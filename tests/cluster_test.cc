// Tests for the cluster engine: placement, admission-driven queueing,
// node-boundary fragmentation, cutoff semantics — and the core contract
// that the epoch-batched control plane is byte-identical to the
// one-arrival-per-barrier reference across every captured artifact.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/core/pdpa_policy.h"
#include "src/obs/event_log.h"
#include "src/rm/equipartition.h"

namespace pdpa {
namespace {

ResourceManager::Params FastParams() {
  ResourceManager::Params params;
  params.analyzer.noise_sigma = 0.0;
  params.app_costs.reconfig_freeze = 0;
  params.app_costs.warmup = 0;
  return params;
}

std::vector<JobSpec> MakeJobs(int count, int request, SimDuration spacing = kSecond) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < count; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app_class = static_cast<AppClass>(i % kNumAppClasses);
    spec.submit = i * spacing;
    spec.request = request;
    jobs.push_back(spec);
  }
  return jobs;
}

ClusterOptions BaseOptions(int num_nodes, int cpus_per_node, int ml = 4) {
  ClusterOptions options;
  options.num_nodes = num_nodes;
  options.cpus_per_node = cpus_per_node;
  options.make_policy = [ml] { return std::make_unique<Equipartition>(ml); };
  options.rm_params = FastParams();
  options.capture_events = true;
  options.capture_timeseries = true;
  return options;
}

// Reports the first line where two large artifacts diverge instead of
// dumping both wholesale.
void ExpectSameBytes(const std::string& expected, const std::string& actual, const char* what) {
  if (expected == actual) {
    return;
  }
  std::size_t line = 1;
  std::size_t i = 0;
  const std::size_t limit = std::min(expected.size(), actual.size());
  std::size_t line_start = 0;
  while (i < limit && expected[i] == actual[i]) {
    if (expected[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
    ++i;
  }
  const auto line_of = [line_start](const std::string& s) {
    const std::size_t end = s.find('\n', line_start);
    return s.substr(line_start, end == std::string::npos ? std::string::npos : end - line_start);
  };
  ADD_FAILURE() << what << " diverges at line " << line << ":\n  expected: " << line_of(expected)
                << "\n  actual:   " << line_of(actual);
}

// Every output but the counters, which each caller compares in full or
// through the filter its comparison allows.
void ExpectIdenticalOutputs(const ClusterResult& expected, const ClusterResult& actual) {
  ASSERT_EQ(expected.outcomes.size(), actual.outcomes.size());
  for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
    EXPECT_EQ(expected.outcomes[i].id, actual.outcomes[i].id) << "outcome " << i;
    EXPECT_EQ(expected.outcomes[i].start, actual.outcomes[i].start) << "outcome " << i;
    EXPECT_EQ(expected.outcomes[i].finish, actual.outcomes[i].finish) << "outcome " << i;
  }
  EXPECT_EQ(expected.outcome_nodes, actual.outcome_nodes);
  EXPECT_EQ(expected.completed, actual.completed);
  EXPECT_EQ(expected.end_time, actual.end_time);
  EXPECT_EQ(expected.max_node_running, actual.max_node_running);
  EXPECT_EQ(expected.total_reallocations, actual.total_reallocations);
  EXPECT_EQ(expected.alloc_integral_us, actual.alloc_integral_us);
  ExpectSameBytes(expected.events_jsonl, actual.events_jsonl, "events_jsonl");
  ExpectSameBytes(expected.timeseries_csv, actual.timeseries_csv, "timeseries_csv");
}

void ExpectIdenticalResults(const ClusterResult& expected, const ClusterResult& actual) {
  ExpectIdenticalOutputs(expected, actual);
  ExpectSameBytes(expected.counters.ToString(), actual.counters.ToString(), "counters");
}

// Admission flips (PDPA ML holds) are the visible-event kind besides
// completions; a hold-heavy run must repeat byte for byte, counters too.
TEST(ClusterShardingTest, PdpaAdmissionFlipsStayDeterministic) {
  const std::vector<JobSpec> jobs = MakeJobs(12, 8, 400 * kMillisecond);
  ClusterOptions options = BaseOptions(3, 8);
  options.make_policy = [] {
    return std::make_unique<PdpaPolicy>(PdpaParams{}, PdpaMlParams{});
  };
  options.placement = PlacementPolicy::kLeastLoaded;
  const ClusterResult first = RunCluster(jobs, options);
  ASSERT_TRUE(first.completed);
  ExpectIdenticalResults(first, RunCluster(jobs, options));
}

TEST(ClusterTest, RoundRobinSpreadsJobsAcrossNodes) {
  ClusterOptions options = BaseOptions(4, 8);
  const ClusterResult result = RunCluster(MakeJobs(4, 2), options);
  ASSERT_TRUE(result.completed);
  const std::set<int> nodes(result.outcome_nodes.begin(), result.outcome_nodes.end());
  EXPECT_EQ(nodes.size(), 4u);
}

// All three placement policies must break ties toward the lowest node
// index — the determinism of the whole run rests on it.
TEST(ClusterTest, PlacementTieBreaksToLowestNodeIndex) {
  for (const PlacementPolicy placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kMostFreeCpus,
        PlacementPolicy::kLeastLoaded}) {
    ClusterOptions options = BaseOptions(3, 8);
    options.placement = placement;
    const ClusterResult result = RunCluster(MakeJobs(1, 4), options);
    ASSERT_EQ(result.outcome_nodes.size(), 1u) << PlacementPolicyName(placement);
    EXPECT_EQ(result.outcome_nodes[0], 0) << PlacementPolicyName(placement);
  }
}

TEST(ClusterTest, QueueHoldsJobsWhenNoNodeAdmits) {
  // Single node, ML 1: the second job must wait for the first to finish.
  ClusterOptions options = BaseOptions(1, 8, /*ml=*/1);
  const ClusterResult result = RunCluster(MakeJobs(2, 2), options);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.outcomes.size(), 2u);
  EXPECT_GE(result.outcomes[1].start, result.outcomes[0].finish);
}

// A request wider than a node cannot span nodes; it runs capped at the
// node's size instead of deadlocking the queue (node-boundary
// fragmentation, the cluster's new failure mode).
TEST(ClusterTest, RequestWiderThanNodeRunsCappedAndCompletes) {
  ClusterOptions options = BaseOptions(2, 8);
  options.placement = PlacementPolicy::kMostFreeCpus;
  std::vector<JobSpec> jobs = MakeJobs(2, 30, 0);
  const ClusterResult result = RunCluster(jobs, options);
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.outcomes.size(), 2u);
  // Both wide jobs started immediately (one per node) — 2x8 free CPUs do
  // not merge into 16, but neither do they block a 30-CPU request.
  EXPECT_EQ(result.outcomes[0].start, 0);
  EXPECT_EQ(result.outcomes[1].start, 0);
  EXPECT_NE(result.outcome_nodes[0], result.outcome_nodes[1]);
  // Capped at the node width: no job ever integrated more than
  // cpus_per_node worth of allocation per microsecond of runtime.
  for (const JobOutcome& outcome : result.outcomes) {
    const double avg_alloc = result.alloc_integral_us.at(outcome.id) /
                             static_cast<double>(outcome.finish - outcome.start);
    EXPECT_LE(avg_alloc, 8.0 + 1e-9) << "job " << outcome.id;
  }
}

TEST(ClusterTest, CutoffReportsIncompleteRun) {
  ClusterOptions options = BaseOptions(2, 4);
  options.max_sim_time = 2 * kSecond;
  const ClusterResult result = RunCluster(MakeJobs(8, 4), options);
  EXPECT_FALSE(result.completed);
  EXPECT_EQ(result.end_time, 2 * kSecond);
  EXPECT_LT(result.outcomes.size(), 8u);
}

TEST(ClusterTest, PerNodePdpaStillTrimsUnscalableJobs) {
  ClusterOptions options = BaseOptions(2, 16);
  options.make_policy = [] {
    return std::make_unique<PdpaPolicy>(PdpaParams{}, PdpaMlParams{});
  };
  options.placement = PlacementPolicy::kLeastLoaded;
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 2; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app_class = AppClass::kApsi;  // barely scalable
    spec.submit = i * kSecond;
    spec.request = 16;
    jobs.push_back(spec);
  }
  const ClusterResult result = RunCluster(jobs, options);
  ASSERT_TRUE(result.completed);
  // PDPA on each node walks the unscalable apsi jobs down toward the floor:
  // the time-averaged allocation ends far below the 16-CPU request.
  for (const JobOutcome& outcome : result.outcomes) {
    const double avg_alloc = result.alloc_integral_us.at(outcome.id) /
                             static_cast<double>(outcome.finish - outcome.start);
    EXPECT_LE(avg_alloc, 6.0) << "job " << outcome.id;
  }
}

// The merged event log is time-ordered, node-tagged, and carries the
// controller's placement records.
TEST(ClusterTest, MergedEventLogIsOrderedAndTagged) {
  ClusterOptions options = BaseOptions(3, 8);
  const ClusterResult result = RunCluster(MakeJobs(6, 4), options);
  ASSERT_TRUE(result.completed);
  ASSERT_FALSE(result.events_jsonl.empty());
  long long last_t = 0;
  int places = 0;
  int node_tagged = 0;
  std::size_t pos = 0;
  while (pos < result.events_jsonl.size()) {
    std::size_t end = result.events_jsonl.find('\n', pos);
    if (end == std::string::npos) {
      end = result.events_jsonl.size();
    }
    const std::string line = result.events_jsonl.substr(pos, end - pos);
    pos = end + 1;
    std::map<std::string, std::string> fields;
    ASSERT_TRUE(ParseFlatJson(line, &fields)) << line;
    const auto t_it = fields.find("t_us");
    const long long t = t_it == fields.end() ? 0 : std::stoll(t_it->second);
    EXPECT_GE(t, last_t) << line;
    last_t = t;
    if (fields["type"] == "place") {
      ++places;
    }
    if (fields.count("node") != 0 && fields["type"] != "place") {
      ++node_tagged;
    }
  }
  EXPECT_EQ(places, 6);
  EXPECT_GT(node_tagged, 0);
}

// --- epoch batching vs reference mode (rm_params.reference) --------------

long long CounterValue(const RegistrySnapshot& snapshot, std::string_view name) {
  for (const CounterSnapshot& counter : snapshot.counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return 0;
}

// Fast-vs-reference identity: everything ExpectIdenticalResults checks,
// with the counter comparison restricted by WithoutReferenceVariants.
void ExpectIdenticalToReference(const ClusterResult& reference, const ClusterResult& batched) {
  ExpectIdenticalOutputs(reference, batched);
  ExpectSameBytes(WithoutReferenceVariants(reference.counters).ToString(),
                  WithoutReferenceVariants(batched.counters).ToString(), "filtered counters");
}

// The contract of the epoch-batched control plane: batched runs reproduce
// reference mode's one-arrival-per-barrier protocol byte for byte (modulo
// WithoutReferenceVariants) for every placement policy.
TEST(ClusterBatchingTest, BatchedProtocolMatchesReferenceAcrossShardsAndPlacements) {
  const std::vector<JobSpec> jobs = MakeJobs(24, 6, 700 * kMillisecond);
  for (const PlacementPolicy placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kMostFreeCpus,
        PlacementPolicy::kLeastLoaded}) {
    ClusterOptions options = BaseOptions(6, 8);
    options.placement = placement;
    options.rm_params.reference = true;
    const ClusterResult reference = RunCluster(jobs, options);
    ASSERT_TRUE(reference.completed);
    EXPECT_EQ(CounterValue(reference.counters, "cluster.batched_arrivals"), 0);
    options.rm_params.reference = false;
    const ClusterResult batched = RunCluster(jobs, options);
    SCOPED_TRACE(PlacementPolicyName(placement));
    ExpectIdenticalToReference(reference, batched);
  }
}

// Batching alone must not move a tick or an event: against the
// one-arrival-per-barrier protocol on the same eliding nodes, every counter
// but the two batch-protocol ones matches exactly. Headless nodes are
// covered here only: they elide the grid ticks these arrivals land on,
// where full reference mode still differs (DESIGN.md §13).
TEST(ClusterBatchingTest, BatchingAloneChangesOnlyTheBatchCounters) {
  const auto without_batch_counters = [](RegistrySnapshot snapshot) {
    std::erase_if(snapshot.counters, [](const CounterSnapshot& c) {
      return c.name == "cluster.arrival_batches" || c.name == "cluster.batched_arrivals";
    });
    return snapshot.ToString();
  };
  const std::vector<JobSpec> jobs = MakeJobs(24, 6, 700 * kMillisecond);
  for (const PlacementPolicy placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kMostFreeCpus,
        PlacementPolicy::kLeastLoaded}) {
    for (const bool capture : {true, false}) {
      ClusterOptions options = BaseOptions(6, 8);
      options.placement = placement;
      options.capture_events = capture;
      options.capture_timeseries = capture;
      const ClusterResult per_arrival = RunClusterPerArrival(jobs, options);
      ASSERT_TRUE(per_arrival.completed);
      EXPECT_EQ(CounterValue(per_arrival.counters, "cluster.batched_arrivals"), 0);
      const ClusterResult batched = RunCluster(jobs, options);
      SCOPED_TRACE(std::string(PlacementPolicyName(placement)) +
                   (capture ? " capture" : " headless"));
      EXPECT_GT(CounterValue(batched.counters, "rm.ticks_elided"), 0);
      ExpectIdenticalOutputs(per_arrival, batched);
      ExpectSameBytes(without_batch_counters(per_arrival.counters),
                      without_batch_counters(batched.counters), "counters");
    }
  }
}

// An arrival landing exactly on a completion time must drain the completion
// batch first (finish-before-submit tie order) in both protocols — the
// regime-B feeder enqueues strictly-earlier arrivals only.
TEST(ClusterBatchingTest, ArrivalExactlyAtCompletionBatchBoundary) {
  // Pin the boundary: run one job to learn its finish time, then submit the
  // second job at exactly that instant. ML 1 keeps the node non-admitting
  // while busy, so the arrival rides the regime-B path.
  ClusterOptions options = BaseOptions(2, 8, /*ml=*/1);
  const ClusterResult probe = RunCluster(MakeJobs(1, 4), options);
  ASSERT_TRUE(probe.completed);
  const SimTime boundary = probe.outcomes[0].finish;
  ASSERT_GT(boundary, 0);

  std::vector<JobSpec> jobs = MakeJobs(2, 4, 0);
  jobs[1].submit = boundary;
  options.rm_params.reference = true;
  const ClusterResult reference = RunCluster(jobs, options);
  ASSERT_TRUE(reference.completed);
  options.rm_params.reference = false;
  const ClusterResult batched = RunCluster(jobs, options);
  ExpectIdenticalToReference(reference, batched);
}

// A zero-arrival workload terminates immediately in both protocols, with
// and without a cutoff.
TEST(ClusterBatchingTest, ZeroArrivalWorkloadTerminates) {
  for (const bool batch : {true, false}) {
    for (const SimTime cutoff : {SimTime{0}, 5 * kSecond}) {
      ClusterOptions options = BaseOptions(3, 8);
      options.rm_params.reference = !batch;
      options.max_sim_time = cutoff;
      const ClusterResult result = RunCluster({}, options);
      SCOPED_TRACE((batch ? "batched" : "reference") + std::string(" cutoff ") +
                   std::to_string(cutoff));
      EXPECT_TRUE(result.completed);
      EXPECT_TRUE(result.outcomes.empty());
      EXPECT_EQ(result.end_time, 0);
      EXPECT_EQ(CounterValue(result.counters, "cluster.arrival_batches"), 0);
    }
  }
}

// Cutoff semantics are protocol-invariant: the batched run times out at the
// same instant with the same completed prefix.
TEST(ClusterBatchingTest, CutoffMatchesReferenceProtocol) {
  const std::vector<JobSpec> jobs = MakeJobs(8, 4);
  ClusterOptions options = BaseOptions(2, 4);
  options.max_sim_time = 2 * kSecond;
  options.rm_params.reference = true;
  const ClusterResult reference = RunCluster(jobs, options);
  EXPECT_FALSE(reference.completed);
  options.rm_params.reference = false;
  const ClusterResult batched = RunCluster(jobs, options);
  ExpectIdenticalToReference(reference, batched);
}

// --- RM boundary batching (rm_params.boundary_batch) ---------------------

// With a report-passive policy and no capture sinks, the boundary-batched
// RM skips immaterial progress ticks; completions, placements and
// allocation integrals must not move by a microsecond.
TEST(ClusterBoundaryBatchTest, FastPathReproducesExactOutcomes) {
  const std::vector<JobSpec> jobs = MakeJobs(24, 6, 400 * kMillisecond);
  ClusterOptions exact_options = BaseOptions(4, 8);
  exact_options.capture_events = false;
  exact_options.capture_timeseries = false;
  const ClusterResult exact = RunCluster(jobs, exact_options);
  ASSERT_TRUE(exact.completed);

  ClusterOptions fast_options = exact_options;
  fast_options.rm_params.boundary_batch = true;
  const ClusterResult fast = RunCluster(jobs, fast_options);
  ASSERT_TRUE(fast.completed);

  ASSERT_EQ(exact.outcomes.size(), fast.outcomes.size());
  for (std::size_t i = 0; i < exact.outcomes.size(); ++i) {
    EXPECT_EQ(exact.outcomes[i].id, fast.outcomes[i].id) << "outcome " << i;
    EXPECT_EQ(exact.outcomes[i].start, fast.outcomes[i].start) << "outcome " << i;
    EXPECT_EQ(exact.outcomes[i].finish, fast.outcomes[i].finish) << "outcome " << i;
  }
  EXPECT_EQ(exact.outcome_nodes, fast.outcome_nodes);
  EXPECT_EQ(exact.end_time, fast.end_time);
  EXPECT_EQ(exact.total_reallocations, fast.total_reallocations);
  EXPECT_EQ(exact.alloc_integral_us, fast.alloc_integral_us);
  // The whole point: far fewer ticks fired.
  EXPECT_LT(CounterValue(fast.counters, "rm.ticks"),
            CounterValue(exact.counters, "rm.ticks") / 2);
}

// Capture sinks disengage the fast path: a boundary-batched run with
// event/time-series capture is byte-identical to the exact one, ticks
// included.
TEST(ClusterBoundaryBatchTest, CaptureSinksDisengageFastPath) {
  const std::vector<JobSpec> jobs = MakeJobs(12, 6, 500 * kMillisecond);
  ClusterOptions exact_options = BaseOptions(3, 8);
  const ClusterResult exact = RunCluster(jobs, exact_options);
  ClusterOptions fast_options = exact_options;
  fast_options.rm_params.boundary_batch = true;
  const ClusterResult fast = RunCluster(jobs, fast_options);
  ExpectIdenticalResults(exact, fast);
}

// A report-reactive policy (PDPA) must ignore boundary_batch entirely: its
// OnReport decisions need every boundary tick.
TEST(ClusterBoundaryBatchTest, ReactivePolicyIgnoresBoundaryBatch) {
  const std::vector<JobSpec> jobs = MakeJobs(8, 8, 600 * kMillisecond);
  ClusterOptions exact_options = BaseOptions(2, 8);
  exact_options.capture_events = false;
  exact_options.capture_timeseries = false;
  exact_options.make_policy = [] {
    return std::make_unique<PdpaPolicy>(PdpaParams{}, PdpaMlParams{});
  };
  const ClusterResult exact = RunCluster(jobs, exact_options);
  ClusterOptions fast_options = exact_options;
  fast_options.rm_params.boundary_batch = true;
  const ClusterResult fast = RunCluster(jobs, fast_options);
  ExpectSameBytes(exact.counters.ToString(), fast.counters.ToString(), "counters");
}

TEST(ClusterTest, PlacementPolicyNamesRoundTrip) {
  for (const PlacementPolicy placement :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kMostFreeCpus,
        PlacementPolicy::kLeastLoaded}) {
    PlacementPolicy parsed;
    ASSERT_TRUE(ParsePlacementPolicy(PlacementPolicyName(placement), &parsed));
    EXPECT_EQ(parsed, placement);
    ASSERT_TRUE(ParsePlacementPolicy(PlacementPolicyShortName(placement), &parsed));
    EXPECT_EQ(parsed, placement);
  }
  PlacementPolicy parsed = PlacementPolicy::kRoundRobin;
  EXPECT_FALSE(ParsePlacementPolicy("bogus", &parsed));
}

}  // namespace
}  // namespace pdpa
