// Tests for the baseline scheduling policies: Equipartition,
// Equal_efficiency and the IRIX time-sharing model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <string_view>
#include <vector>

#include "src/common/rng.h"
#include "src/core/pdpa_policy.h"
#include "src/machine/machine.h"
#include "src/rm/equal_efficiency.h"
#include "src/rm/equipartition.h"
#include "src/rm/irix.h"
#include "src/rm/mccann_dynamic.h"
#include "tests/golden.h"

namespace pdpa {
namespace {

PolicyContext MakeContext(std::vector<std::pair<JobId, int>> jobs_requests, int total_cpus = 60,
                          int free_cpus = 0) {
  PolicyContext ctx;
  ctx.total_cpus = total_cpus;
  ctx.free_cpus = free_cpus;
  for (const auto& [id, request] : jobs_requests) {
    PolicyJobInfo info;
    info.id = id;
    info.request = request;
    ctx.jobs.push_back(info);
  }
  return ctx;
}

TEST(EquipartitionTest, EqualSplitTwoBigJobs) {
  const auto plan = Equipartition::EqualSplit(MakeContext({{1, 30}, {2, 30}}));
  EXPECT_EQ(plan.at(1), 30);
  EXPECT_EQ(plan.at(2), 30);
}

TEST(EquipartitionTest, EqualSplitFourBigJobs) {
  const auto plan = Equipartition::EqualSplit(MakeContext({{1, 30}, {2, 30}, {3, 30}, {4, 30}}));
  for (JobId j = 1; j <= 4; ++j) {
    EXPECT_EQ(plan.at(j), 15);
  }
}

TEST(EquipartitionTest, SmallRequestCappedAndLeftoverRedistributed) {
  // apsi requests 2: its leftover share goes to the others.
  const auto plan = Equipartition::EqualSplit(MakeContext({{1, 30}, {2, 2}, {3, 30}}));
  EXPECT_EQ(plan.at(2), 2);
  EXPECT_EQ(plan.at(1) + plan.at(3), 58);
  EXPECT_LE(plan.at(1), 30);
  EXPECT_LE(plan.at(3), 30);
}

TEST(EquipartitionTest, UnevenRemainderDistributedDeterministically) {
  const auto plan = Equipartition::EqualSplit(MakeContext({{1, 30}, {2, 30}, {3, 30}, {4, 30},
                                                           {5, 30}, {6, 30}, {7, 30}}));
  // 60 / 7 = 8 remainder 4: first four jobs get 9.
  int total = 0;
  for (const auto& [job, count] : plan) {
    total += count;
    EXPECT_GE(count, 8);
    EXPECT_LE(count, 9);
  }
  EXPECT_EQ(total, 60);
}

TEST(EquipartitionTest, AdmissionIsFixedMl) {
  Equipartition policy(4);
  EXPECT_TRUE(policy.ShouldAdmit(MakeContext({{1, 30}, {2, 30}, {3, 30}})));
  EXPECT_FALSE(policy.ShouldAdmit(MakeContext({{1, 30}, {2, 30}, {3, 30}, {4, 30}})));
}

TEST(EquipartitionTest, ReallocatesOnlyAtArrivalAndCompletion) {
  Equipartition policy(4);
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}});
  EXPECT_FALSE(policy.OnJobStart(ctx, 2).empty());
  EXPECT_FALSE(policy.OnJobFinish(ctx, 3).empty());
  PerfReport report;
  report.job = 1;
  EXPECT_TRUE(policy.OnReport(ctx, report).empty());
  EXPECT_TRUE(policy.OnQuantum(ctx).empty());
}

TEST(EqualEfficiencyTest, UnknownJobAssumedLinear) {
  EqualEfficiency policy;
  PolicyContext ctx = MakeContext({{1, 30}});
  (void)policy.OnJobStart(ctx, 1);
  EXPECT_DOUBLE_EQ(policy.ExtrapolatedSpeedup(1, 10), 10.0);
}

TEST(EqualEfficiencyTest, ExtrapolatesPowerLawFromTwoSamples) {
  EqualEfficiency policy;
  PolicyContext ctx = MakeContext({{1, 30}});
  (void)policy.OnJobStart(ctx, 1);
  PerfReport report;
  report.job = 1;
  report.procs = 4;
  report.speedup = 4.0;
  (void)policy.OnReport(ctx, report);
  report.procs = 16;
  report.speedup = 8.0;  // alpha = log(2)/log(4) = 0.5
  (void)policy.OnReport(ctx, report);
  EXPECT_NEAR(policy.ExtrapolatedSpeedup(1, 64), 16.0, 0.01);
  EXPECT_NEAR(policy.ExtrapolatedSpeedup(1, 4), 4.0, 0.01);
}

TEST(EqualEfficiencyTest, MostEfficientJobGetsMoreProcessors) {
  EqualEfficiency policy;
  // Capacity below the sum of requests so the split is contested.
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}}, /*total_cpus=*/40);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  // Job 1 scales (alpha ~1), job 2 does not (alpha ~0.1).
  PerfReport r;
  r.job = 1;
  r.procs = 4;
  r.speedup = 3.9;
  (void)policy.OnReport(ctx, r);
  r.procs = 8;
  r.speedup = 7.8;
  (void)policy.OnReport(ctx, r);
  r.job = 2;
  r.procs = 4;
  r.speedup = 1.3;
  (void)policy.OnReport(ctx, r);
  r.procs = 8;
  r.speedup = 1.4;
  const AllocationPlan plan = policy.OnReport(ctx, r);
  EXPECT_GT(plan.at(1), plan.at(2));
  EXPECT_EQ(plan.at(1) + plan.at(2), 40);
  EXPECT_LE(plan.at(1), 30);
}

TEST(EqualEfficiencyTest, PlanRespectsRequestsAndFloor) {
  EqualEfficiency policy;
  PolicyContext ctx = MakeContext({{1, 2}, {2, 30}});
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  const AllocationPlan plan = policy.OnQuantum(ctx);
  EXPECT_GE(plan.at(1), 1);
  EXPECT_LE(plan.at(1), 2);
  EXPECT_GE(plan.at(2), 1);
  EXPECT_LE(plan.at(2), 30);
}

TEST(EqualEfficiencyTest, RestartForgetsSamplesWithAnUnchangedJobList) {
  // A start resets the job's model to "unknown, assume linear" even when the
  // context names the same jobs as the previous plan did.
  EqualEfficiency policy;
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}}, /*total_cpus=*/40);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  const AllocationPlan fresh = policy.OnQuantum(ctx);
  // Job 1 turns out not to scale, so job 2 takes over its processors.
  PerfReport r;
  r.job = 1;
  r.procs = 4;
  r.speedup = 1.3;
  (void)policy.OnReport(ctx, r);
  r.procs = 8;
  r.speedup = 1.4;
  (void)policy.OnReport(ctx, r);
  ASSERT_NE(policy.OnQuantum(ctx), fresh);
  (void)policy.OnJobStart(ctx, 1);
  EXPECT_EQ(policy.OnQuantum(ctx), fresh);
}

TEST(EqualEfficiencyTest, NoiseCausesAllocationVariance) {
  // The paper's complaint: small measurement changes produce large
  // reallocation swings. Two jobs with identical true curves but noisy
  // samples should receive meaningfully different allocations over time.
  EqualEfficiency policy;
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}}, /*total_cpus=*/40);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  Rng rng(5);
  int min_alloc = 60;
  int max_alloc = 0;
  for (int i = 0; i < 50; ++i) {
    for (JobId job : {1, 2}) {
      PerfReport r;
      r.job = job;
      r.procs = 8 + (i % 3) * 4;
      r.speedup = r.procs * 0.8 * rng.Uniform(0.95, 1.05);
      const AllocationPlan plan = policy.OnReport(ctx, r);
      min_alloc = std::min(min_alloc, plan.at(1));
      max_alloc = std::max(max_alloc, plan.at(1));
    }
  }
  EXPECT_GT(max_alloc - min_alloc, 4) << "expected allocation jitter under noise";
}

TEST(IrixTest, ThreadsFollowJobLifecycle) {
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(1));
  Machine machine(8);
  PolicyContext ctx = MakeContext({{1, 4}}, 8);
  (void)policy.OnJobStart(ctx, 1);
  std::vector<CpuHandoff> handoffs;
  auto shares = policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs);
  EXPECT_DOUBLE_EQ(shares.at(1).effective_procs, 4.0);
  EXPECT_EQ(machine.CountOf(1), 4);
  (void)policy.OnJobFinish(MakeContext({}, 8), 1);
  shares = policy.TimeShareTick(machine, MakeContext({}, 8), 20 * kMillisecond, &handoffs);
  EXPECT_TRUE(shares.empty());
  EXPECT_EQ(machine.FreeCpus(), 8);
}

TEST(IrixTest, UndercommittedRunsEverythingWithoutOverhead) {
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(1));
  Machine machine(16);
  PolicyContext ctx = MakeContext({{1, 4}, {2, 4}}, 16);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  std::vector<CpuHandoff> handoffs;
  const auto shares = policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs);
  EXPECT_DOUBLE_EQ(shares.at(1).effective_procs, 4.0);
  EXPECT_DOUBLE_EQ(shares.at(2).effective_procs, 4.0);
  EXPECT_NEAR(shares.at(1).overhead, 1.0, 1e-9);
}

TEST(IrixTest, OvercommitSharesCpusAndDegrades) {
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(1));
  Machine machine(8);
  PolicyContext ctx = MakeContext({{1, 8}, {2, 8}}, 8);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  std::vector<CpuHandoff> handoffs;
  double total_eff_procs = 0.0;
  double min_overhead = 1.0;
  for (int tick = 0; tick < 200; ++tick) {
    const auto shares = policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs);
    total_eff_procs += shares.at(1).effective_procs + shares.at(2).effective_procs;
    min_overhead = std::min(min_overhead, shares.at(1).overhead);
  }
  // All 8 CPUs are always busy, split between the jobs...
  EXPECT_NEAR(total_eff_procs / 200.0, 8.0, 1e-9);
  // ...and contention overhead applies (2x overcommit).
  EXPECT_LT(min_overhead, 0.8);
}

TEST(IrixTest, TimeSlicingCausesMigrations) {
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(1));
  Machine machine(8);
  PolicyContext ctx = MakeContext({{1, 8}, {2, 8}}, 8);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  std::vector<CpuHandoff> handoffs;
  for (int tick = 0; tick < 500; ++tick) {
    (void)policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs);
  }
  EXPECT_GT(policy.total_thread_migrations(), 20);
}

TEST(IrixTest, OmpDynamicDriftsThreadCountsTowardFairShare) {
  IrixTimeShare::Params params;
  params.omp_dynamic = true;
  params.omp_adjust_period = 100 * kMillisecond;  // fast, for the test
  params.omp_adjust_step = 2;
  params.omp_min_fraction = 0.5;  // floor 8 = the fair share
  IrixTimeShare policy(params, Rng(1));
  Machine machine(16);
  PolicyContext ctx = MakeContext({{1, 16}, {2, 16}}, 16);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  EXPECT_EQ(policy.ThreadCountOf(1), 16);
  std::vector<CpuHandoff> handoffs;
  for (int tick = 0; tick < 200; ++tick) {
    (void)policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs);
  }
  // Fair share is 8 per job: both teams must have drifted down to it.
  EXPECT_EQ(policy.ThreadCountOf(1), 8);
  EXPECT_EQ(policy.ThreadCountOf(2), 8);
}

TEST(IrixTest, OmpDynamicDisabledKeepsRequestThreads) {
  IrixTimeShare::Params params;
  params.omp_dynamic = false;
  IrixTimeShare policy(params, Rng(1));
  Machine machine(16);
  PolicyContext ctx = MakeContext({{1, 16}, {2, 16}}, 16);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  std::vector<CpuHandoff> handoffs;
  for (int tick = 0; tick < 200; ++tick) {
    (void)policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs);
  }
  EXPECT_EQ(policy.ThreadCountOf(1), 16);
  EXPECT_EQ(policy.ThreadCountOf(2), 16);
}

TEST(IrixTest, IsTimeSharingAndFixedMl) {
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(1));
  EXPECT_TRUE(policy.is_time_sharing());
  EXPECT_TRUE(policy.ShouldAdmit(MakeContext({{1, 8}})));
  EXPECT_FALSE(policy.ShouldAdmit(MakeContext({{1, 8}, {2, 8}, {3, 8}, {4, 8}})));
}

TEST(McCannDynamicTest, UnknownJobsSplitLikeEquipartition) {
  McCannDynamic policy;
  const AllocationPlan plan =
      policy.OnQuantum(MakeContext({{1, 30}, {2, 30}, {3, 30}, {4, 30}}));
  for (JobId j = 1; j <= 4; ++j) {
    EXPECT_EQ(plan.at(j), 15);
  }
}

TEST(McCannDynamicTest, IdlenessReportMovesProcessorsImmediately) {
  McCannDynamic policy;
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}});
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  // Job 2 reports 50% idleness at 30 processors: useful ~ 15+1.
  PerfReport report;
  report.job = 2;
  report.procs = 30;
  report.speedup = 15.0;
  report.efficiency = 0.5;
  const AllocationPlan plan = policy.OnReport(ctx, report);
  EXPECT_EQ(plan.at(2), 16);
  EXPECT_EQ(plan.at(1), 30);  // the freed processors flow to job 1
}

TEST(McCannDynamicTest, FinishForgetsJobState) {
  McCannDynamic policy;
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}});
  PerfReport report;
  report.job = 2;
  report.procs = 30;
  report.speedup = 3.0;
  report.efficiency = 0.1;
  (void)policy.OnReport(ctx, report);
  // Job 2 finishes and a new job reuses the id: it must start uncapped.
  (void)policy.OnJobFinish(MakeContext({{1, 30}}), 2);
  const AllocationPlan plan = policy.OnQuantum(MakeContext({{1, 30}, {2, 30}}));
  EXPECT_EQ(plan.at(2), 30);
}

TEST(McCannDynamicTest, PlanNeverBelowOneProcessor) {
  McCannDynamic policy;
  PolicyContext ctx = MakeContext({{1, 30}, {2, 30}});
  PerfReport report;
  report.job = 1;
  report.procs = 30;
  report.speedup = 0.1;
  report.efficiency = 0.003;
  const AllocationPlan plan = policy.OnReport(ctx, report);
  EXPECT_GE(plan.at(1), 1);
}

TEST(IrixTest, ThreadReclaimsItsCpuAfterWaiting) {
  // Undercommitted after a transient: a thread that ran on cpu k and waited
  // one slice must come back to cpu k (affinity), not migrate.
  IrixTimeShare::Params params;
  params.affinity_bonus = 0;  // force alternation every tick
  params.vruntime_jitter = 0.0;
  IrixTimeShare policy(params, Rng(1));
  Machine machine(2);
  PolicyContext ctx = MakeContext({{1, 2}, {2, 2}}, 2);
  (void)policy.OnJobStart(ctx, 1);
  (void)policy.OnJobStart(ctx, 2);
  std::vector<CpuHandoff> handoffs;
  const long long before = policy.total_thread_migrations();
  for (int tick = 0; tick < 50; ++tick) {
    (void)policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs);
  }
  // With zero jitter the two gangs alternate cleanly: after the initial
  // placements each thread returns to its own cpu, so migrations stay tiny.
  EXPECT_LE(policy.total_thread_migrations() - before, 4);
}

TEST(SpaceSharingPolicyDeathTest, TimeShareTickForbidden) {
  Equipartition policy(4);
  Machine machine(4);
  PolicyContext ctx = MakeContext({}, 4);
  EXPECT_DEATH(policy.TimeShareTick(machine, ctx, 1000, nullptr), "Check failed");
}

TEST(PdpaPolicyTest, LifecyclePlumbing) {
  PdpaPolicy policy(PdpaParams{}, PdpaMlParams{});
  PolicyContext ctx = MakeContext({{1, 30}}, 60, 60);
  AllocationPlan plan = policy.OnJobStart(ctx, 1);
  EXPECT_EQ(plan.at(1), 30);
  ASSERT_NE(policy.AutomatonFor(1), nullptr);
  EXPECT_EQ(policy.AutomatonFor(1)->state(), PdpaState::kNoRef);

  ctx.jobs[0].alloc = 30;
  ctx.free_cpus = 30;
  PerfReport report;
  report.job = 1;
  report.procs = 30;
  report.speedup = 24.0;  // eff 0.8 -> STABLE, no change
  plan = policy.OnReport(ctx, report);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(policy.AutomatonFor(1)->state(), PdpaState::kStable);

  plan = policy.OnJobFinish(MakeContext({{1, 30}}, 60, 30), 99);
  EXPECT_EQ(policy.AutomatonFor(99), nullptr);
}

TEST(PdpaPolicyTest, OnJobFinishRedistributesToEfficientStableJobs) {
  PdpaPolicy policy(PdpaParams{}, PdpaMlParams{});
  PolicyContext ctx = MakeContext({{1, 30}}, 60, 8);
  (void)policy.OnJobStart(ctx, 1);  // alloc 8
  PerfReport report;
  report.job = 1;
  report.procs = 8;
  report.speedup = 7.8;  // eff 0.97 but free=0 at report time -> STABLE
  ctx.free_cpus = 0;
  (void)policy.OnReport(ctx, report);
  ASSERT_EQ(policy.AutomatonFor(1)->state(), PdpaState::kStable);
  // Another job finished; 12 processors free.
  const AllocationPlan plan = policy.OnJobFinish(MakeContext({{1, 30}}, 60, 12), 2);
  ASSERT_TRUE(plan.contains(1));
  EXPECT_EQ(plan.at(1), 12);
  EXPECT_EQ(policy.AutomatonFor(1)->state(), PdpaState::kInc);
}

TEST(PdpaPolicyTest, AdmissionRequiresFreeCpu) {
  PdpaPolicy policy(PdpaParams{}, PdpaMlParams{});
  EXPECT_FALSE(policy.ShouldAdmit(MakeContext({{1, 30}}, 60, 0)));
  EXPECT_TRUE(policy.ShouldAdmit(MakeContext({{1, 30}}, 60, 5)));
}

// ---------------------------------------------------------------------------
// Golden runs of the two per-tick baselines. The expected digests were taken
// from the straightforward implementations (full stable sort of every thread
// per IRIX tick; a from-scratch Equal_efficiency reallocation on every call),
// so any faster path must reproduce them bit for bit.

// FNV-1a over 64-bit words, fed least significant byte first.
class Digest {
 public:
  void Add(std::uint64_t word) {
    char bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<char>((word >> (8 * i)) & 0xFF);
    }
    hash_ = Fnv1a(std::string_view(bytes, sizeof(bytes)), hash_);
  }
  void Add(double value) { Add(std::bit_cast<std::uint64_t>(value)); }
  void Add(int value) { Add(static_cast<std::uint64_t>(static_cast<std::int64_t>(value))); }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = kFnvOffset;
};

struct IrixGolden {
  std::uint64_t digest = 0;
  long long migrations = 0;
};

// Scripted IRIX run on 60 CPUs: four 30-thread jobs start together (all
// threads tie at vruntime 0), jobs finish and start mid-run, the machine
// drains to undercommit and then to no threads at all, and OMP_DYNAMIC
// adjusts team sizes every simulated second.
IrixGolden RunIrixScript(IrixTimeShare::Params params) {
  params.omp_adjust_period = kSecond;
  IrixTimeShare policy(params, Rng(7));
  Machine machine(60);
  PolicyContext ctx = MakeContext({}, 60);
  const auto start = [&](JobId job, int request) {
    PolicyJobInfo info;
    info.id = job;
    info.request = request;
    ctx.jobs.push_back(info);
    (void)policy.OnJobStart(ctx, job);
  };
  const auto finish = [&](JobId job) {
    std::erase_if(ctx.jobs, [job](const PolicyJobInfo& info) { return info.id == job; });
    (void)policy.OnJobFinish(ctx, job);
  };
  for (JobId job = 0; job < 4; ++job) {
    start(job, 30);
  }
  // (tick, job, request): a positive request starts the job, 0 finishes it.
  struct Step {
    int tick;
    JobId job;
    int request;
  };
  const std::vector<Step> script = {{700, 1, 0},   {900, 4, 30},  {1500, 0, 0},  {1500, 2, 0},
                                    {1501, 5, 12}, {2000, 6, 30}, {2000, 7, 24}, {2400, 3, 0},
                                    {2400, 4, 0},  {2400, 6, 0},  {2700, 5, 0},  {2700, 7, 0},
                                    {2750, 8, 30}};
  std::size_t next_step = 0;
  Digest digest;
  std::vector<CpuHandoff> handoffs;
  for (int tick = 0; tick < 3000; ++tick) {
    for (; next_step < script.size() && script[next_step].tick == tick; ++next_step) {
      const Step& step = script[next_step];
      if (step.request > 0) {
        start(step.job, step.request);
      } else {
        finish(step.job);
      }
    }
    handoffs.clear();
    const std::map<JobId, TimeShare> shares =
        policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs);
    for (const auto& [job, share] : shares) {
      digest.Add(job);
      digest.Add(share.effective_procs);
      digest.Add(share.overhead);
    }
    digest.Add(static_cast<int>(handoffs.size()));
    for (const CpuHandoff& h : handoffs) {
      digest.Add(h.cpu);
      digest.Add(h.from);
      digest.Add(h.to);
    }
  }
  return IrixGolden{digest.value(), policy.total_thread_migrations()};
}

TEST(IrixGoldenTest, DefaultParamsScriptedRun) {
  const IrixGolden golden = RunIrixScript(IrixTimeShare::Params{});
  EXPECT_EQ(golden.digest, 0xB43D1C7A0CEFAD48ULL);
  EXPECT_EQ(golden.migrations, 4468);
}

TEST(IrixGoldenTest, ZeroJitterScriptedRunBreaksTiesByThreadIndex) {
  // Without jitter every running thread advances by exactly one tick, so
  // effective vruntimes tie all the time and the thread index decides.
  IrixTimeShare::Params params;
  params.vruntime_jitter = 0.0;
  const IrixGolden golden = RunIrixScript(params);
  EXPECT_EQ(golden.digest, 0xB4CE34C56D4D926BULL);
  EXPECT_EQ(golden.migrations, 4061);
}

TEST(EqualEfficiencyGoldenTest, PlanSequenceOverInterleavedEvents) {
  // Reports, quanta, starts and finishes interleaved at random; every plan
  // returned goes into the digest, so a quantum that reused a plan across a
  // change of the job set or of a job's samples would show.
  Registry registry;
  EqualEfficiency policy;
  policy.set_registry(&registry);
  Rng rng(11);
  PolicyContext ctx = MakeContext({}, 60);
  std::map<JobId, int> alloc;
  std::map<JobId, double> alpha;
  JobId next_job = 0;
  Digest digest;
  int nonempty_calls = 0;
  const auto record = [&](const AllocationPlan& plan) {
    nonempty_calls += ctx.jobs.empty() ? 0 : 1;
    digest.Add(static_cast<int>(plan.size()));
    for (const auto& [job, count] : plan) {
      digest.Add(job);
      digest.Add(count);
      alloc[job] = count;
    }
  };
  for (int step = 0; step < 2000; ++step) {
    const double u = rng.NextDouble();
    if ((u < 0.05 && ctx.jobs.size() < 4) || ctx.jobs.empty()) {
      const JobId job = next_job++;
      PolicyJobInfo info;
      info.id = job;
      info.request = rng.UniformInt(2, 40);
      ctx.jobs.push_back(info);
      alpha[job] = rng.Uniform(0.2, 1.1);
      record(policy.OnJobStart(ctx, job));
    } else if (u < 0.08) {
      const std::size_t victim =
          static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(ctx.jobs.size()) - 1));
      const JobId job = ctx.jobs[victim].id;
      ctx.jobs.erase(ctx.jobs.begin() + static_cast<std::ptrdiff_t>(victim));
      record(policy.OnJobFinish(ctx, job));
    } else if (u < 0.5) {
      const std::size_t who =
          static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(ctx.jobs.size()) - 1));
      PerfReport report;
      report.job = ctx.jobs[who].id;
      report.procs = std::max(1, alloc[report.job]);
      report.speedup = std::pow(static_cast<double>(report.procs), alpha[report.job]) *
                       rng.Uniform(0.9, 1.1);
      record(policy.OnReport(ctx, report));
    } else {
      record(policy.OnQuantum(ctx));
    }
  }
  EXPECT_EQ(digest.value(), 0xEDD28C0DB4ABABEFULL);
  EXPECT_EQ(registry.counter("policy.equal_eff.reallocations")->value(), nonempty_calls);
}

}  // namespace
}  // namespace pdpa
