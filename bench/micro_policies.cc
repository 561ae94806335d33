// Microbenchmarks (google-benchmark): cost of one scheduling decision for
// each policy, and of the PDPA automaton itself. The paper's RM runs at a
// 100 ms quantum; these numbers show the decision cost is negligible at
// that cadence even with dozens of jobs. The two per-tick baselines (one
// IRIX dispatch tick, one Equal_efficiency quantum) are the policy layer's
// share of the paper grid, which can elide no ticks under them.
#include <benchmark/benchmark.h>

#include "src/core/pdpa.h"
#include "src/core/pdpa_policy.h"
#include "src/rm/equal_efficiency.h"
#include "src/rm/equipartition.h"
#include "src/rm/irix.h"

namespace pdpa {
namespace {

PolicyContext MakeContext(int jobs, int total_cpus) {
  PolicyContext ctx;
  ctx.total_cpus = total_cpus;
  ctx.free_cpus = 0;
  for (int i = 0; i < jobs; ++i) {
    PolicyJobInfo info;
    info.id = i;
    info.request = 30;
    info.alloc = total_cpus / jobs;
    ctx.jobs.push_back(info);
  }
  return ctx;
}

void BM_PdpaAutomatonReport(benchmark::State& state) {
  PdpaAutomaton automaton(PdpaParams{}, 30);
  automaton.OnJobStart(8);
  double speedup = 7.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(automaton.OnReport(speedup, automaton.current_alloc(), 8));
    speedup = speedup > 20 ? 7.0 : speedup * 1.05;
  }
}
BENCHMARK(BM_PdpaAutomatonReport);

void BM_EquipartitionSplit(benchmark::State& state) {
  const PolicyContext ctx = MakeContext(static_cast<int>(state.range(0)), 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Equipartition::EqualSplit(ctx));
  }
}
BENCHMARK(BM_EquipartitionSplit)->Arg(2)->Arg(4)->Arg(16)->Arg(32);

void BM_EqualEfficiencyReallocate(benchmark::State& state) {
  EqualEfficiency policy;
  const int jobs = static_cast<int>(state.range(0));
  PolicyContext ctx = MakeContext(jobs, 60);
  // Prime the models with two measurements per job.
  for (int i = 0; i < jobs; ++i) {
    PerfReport report;
    report.job = i;
    report.procs = 8;
    report.speedup = 6.0;
    (void)policy.OnReport(ctx, report);
    report.procs = 12;
    report.speedup = 8.0;
    (void)policy.OnReport(ctx, report);
  }
  PerfReport report;
  report.job = 0;
  report.procs = 12;
  report.speedup = 8.5;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.OnReport(ctx, report));
  }
}
BENCHMARK(BM_EqualEfficiencyReallocate)->Arg(2)->Arg(4)->Arg(16);

void BM_EqualEfficiencyQuantum(benchmark::State& state) {
  // Four 30-CPU jobs with two samples each, as between reports in the paper
  // grid: a quantum with no intervening report, start or finish.
  EqualEfficiency policy;
  const PolicyContext ctx = MakeContext(4, 60);
  for (int i = 0; i < 4; ++i) {
    PerfReport report;
    report.job = i;
    report.procs = 8;
    report.speedup = 6.0 + i;
    (void)policy.OnReport(ctx, report);
    report.procs = 16;
    report.speedup = 9.0 + 1.5 * i;
    (void)policy.OnReport(ctx, report);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.OnQuantum(ctx));
  }
}
BENCHMARK(BM_EqualEfficiencyQuantum);

void BM_IrixTimeShareTick(benchmark::State& state) {
  // The paper's IRIX setting: ML 4 of 30-thread jobs on 60 CPUs (2x
  // overcommitted), default parameters, 20 ms ticks.
  IrixTimeShare policy(IrixTimeShare::Params{}, Rng(7));
  Machine machine(60);
  PolicyContext ctx = MakeContext(0, 60);
  for (int i = 0; i < 4; ++i) {
    PolicyJobInfo info;
    info.id = i;
    info.request = 30;
    ctx.jobs.push_back(info);
    (void)policy.OnJobStart(ctx, i);
  }
  std::vector<CpuHandoff> handoffs;
  for (auto _ : state) {
    handoffs.clear();
    benchmark::DoNotOptimize(policy.TimeShareTick(machine, ctx, 20 * kMillisecond, &handoffs));
    benchmark::DoNotOptimize(handoffs.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_IrixTimeShareTick);

void BM_PdpaPolicyReport(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  PdpaPolicy policy(PdpaParams{}, PdpaMlParams{});
  PolicyContext ctx = MakeContext(jobs, 60);
  ctx.free_cpus = 10;
  for (int i = 0; i < jobs; ++i) {
    (void)policy.OnJobStart(ctx, i);
  }
  PerfReport report;
  report.job = 0;
  report.procs = policy.AutomatonFor(0)->current_alloc();
  report.speedup = report.procs * 0.8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.OnReport(ctx, report));
  }
}
BENCHMARK(BM_PdpaPolicyReport)->Arg(2)->Arg(4)->Arg(16)->Arg(32);

}  // namespace
}  // namespace pdpa

BENCHMARK_MAIN();
