// Tests for the parallel sweep engine: grid expansion, serial/parallel
// golden determinism, per-cell observability isolation, and concurrent
// RunExperiment safety (run under TSan in CI via the "concurrency" label).
#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "src/obs/counters.h"
#include "src/workload/sweep.h"

namespace pdpa {
namespace {

SweepGrid SmallGrid() {
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1};
  grid.loads = {0.6};
  grid.policies = {PolicyKind::kPdpa, PolicyKind::kEquipartition};
  grid.seeds = {42, 43};
  return grid;
}

TEST(ExpandGridTest, NestedOrderSeedInnermost) {
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1, WorkloadId::kW2};
  grid.loads = {0.6, 1.0};
  grid.policies = {PolicyKind::kPdpa};
  grid.seeds = {1, 2};
  const std::vector<SweepCell> cells = ExpandGrid(grid);
  ASSERT_EQ(cells.size(), 8u);
  EXPECT_EQ(cells[0].name, "w1_0.60_PDPA_s1");
  EXPECT_EQ(cells[1].name, "w1_0.60_PDPA_s2");
  EXPECT_EQ(cells[2].name, "w1_1.00_PDPA_s1");
  EXPECT_EQ(cells[4].name, "w2_0.60_PDPA_s1");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].config.seed, cells[i].seed);
  }
}

TEST(ExpandGridTest, SingleSeedOmitsSuffix) {
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW3};
  grid.loads = {1.0};
  grid.policies = {PolicyKind::kIrix};
  grid.seeds = {7};
  const std::vector<SweepCell> cells = ExpandGrid(grid);
  ASSERT_EQ(cells.size(), 1u);
  // Legacy filename shape, so existing --events_out consumers keep working.
  EXPECT_EQ(cells[0].name, "w3_1.00_IRIX");
}

// A parallel sweep must be indistinguishable from a serial one: same CSV
// bytes, same per-cell event logs.
TEST(SweepEngineTest, ParallelMatchesSerialByteForByte) {
  const SweepGrid grid = SmallGrid();
  SweepOptions serial;
  serial.jobs = 1;
  serial.capture_events = true;
  serial.capture_counters = true;
  SweepOptions parallel = serial;
  parallel.jobs = 8;

  const std::vector<SweepCellResult> a = RunSweep(grid, serial);
  const std::vector<SweepCellResult> b = RunSweep(grid, parallel);
  ASSERT_EQ(a.size(), b.size());

  std::ostringstream csv_a, csv_b;
  SweepCsv(a, grid.seeds.size(), csv_a);
  SweepCsv(b, grid.seeds.size(), csv_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());

  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell.name, b[i].cell.name);
    EXPECT_FALSE(a[i].events_jsonl.empty());
    EXPECT_EQ(a[i].events_jsonl, b[i].events_jsonl) << a[i].cell.name;
    EXPECT_EQ(a[i].counters.ToString(), b[i].counters.ToString()) << a[i].cell.name;
  }
}

// A cluster grid (nodes > 1) adds the placements axis between policy and
// seed, suffixes cell names with the short placement name, and overrides
// num_cpus with the cluster's total capacity.
TEST(ExpandGridTest, ClusterGridAddsPlacementAxis) {
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1};
  grid.loads = {0.6};
  grid.policies = {PolicyKind::kPdpa};
  grid.placements = {PlacementPolicy::kRoundRobin, PlacementPolicy::kMostFreeCpus};
  grid.seeds = {1, 2};
  grid.nodes = 3;
  grid.cpus_per_node = 20;
  const std::vector<SweepCell> cells = ExpandGrid(grid);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].name, "w1_0.60_PDPA_rr_s1");
  EXPECT_EQ(cells[1].name, "w1_0.60_PDPA_rr_s2");
  EXPECT_EQ(cells[2].name, "w1_0.60_PDPA_mf_s1");
  EXPECT_EQ(cells[3].name, "w1_0.60_PDPA_mf_s2");
  for (const SweepCell& cell : cells) {
    EXPECT_EQ(cell.nodes, 3);
    EXPECT_EQ(cell.config.num_cpus, 60);
  }
  // Single-SMP grids ignore the placements axis entirely.
  grid.nodes = 1;
  EXPECT_EQ(ExpandGrid(grid).size(), 2u);
}

// Cluster cells run on sweep worker threads: the whole sweep must stay
// byte-identical across worker counts, and the policy column must carry
// the placement suffix.
TEST(SweepEngineTest, ClusterSweepMatchesAcrossWorkersAndShards) {
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1};
  grid.loads = {0.6};
  grid.policies = {PolicyKind::kPdpa};
  grid.placements = {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded};
  grid.seeds = {42};
  grid.nodes = 3;
  grid.cpus_per_node = 20;
  SweepOptions serial;
  serial.jobs = 1;
  serial.capture_events = true;
  serial.capture_counters = true;
  SweepOptions parallel = serial;
  parallel.jobs = 4;

  const std::vector<SweepCellResult> a = RunSweep(grid, serial);
  const std::vector<SweepCellResult> b = RunSweep(grid, parallel);
  ASSERT_EQ(a.size(), b.size());

  std::ostringstream csv_a, csv_b;
  SweepCsv(a, grid.seeds.size(), csv_a);
  SweepCsv(b, grid.seeds.size(), csv_b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  EXPECT_NE(csv_a.str().find("PDPA@rr"), std::string::npos);
  EXPECT_NE(csv_a.str().find("PDPA@ll"), std::string::npos);

  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].cell.name, b[i].cell.name);
    EXPECT_FALSE(a[i].events_jsonl.empty());
    EXPECT_EQ(a[i].events_jsonl, b[i].events_jsonl) << a[i].cell.name;
    EXPECT_EQ(a[i].counters.ToString(), b[i].counters.ToString()) << a[i].cell.name;
  }
}

// The progress callback fires exactly once per cell, serialized under the
// engine's progress mutex: `done` must pass through 1..total with no
// duplicate or skipped cell index, in both serial and parallel mode.
TEST(SweepEngineTest, ProgressCallbackFiresOncePerCell) {
  const SweepGrid grid = SmallGrid();
  for (int jobs : {1, 4}) {
    SweepOptions options;
    options.jobs = jobs;
    std::vector<std::size_t> done_values;
    std::vector<int> cell_counts(ExpandGrid(grid).size(), 0);
    options.on_progress = [&done_values, &cell_counts](const SweepProgress& progress) {
      // Serialized by contract: no locking needed here.
      done_values.push_back(progress.done);
      ASSERT_LT(progress.cell_index, cell_counts.size());
      ++cell_counts[progress.cell_index];
      EXPECT_EQ(progress.total, cell_counts.size());
    };
    const std::vector<SweepCellResult> results = RunSweep(grid, options);
    ASSERT_EQ(done_values.size(), results.size()) << "jobs=" << jobs;
    for (int count : cell_counts) {
      EXPECT_EQ(count, 1) << "jobs=" << jobs;
    }
    // `done` is incremented under the same lock that delivers the callback,
    // so the observed sequence is exactly 1..total.
    for (std::size_t i = 0; i < done_values.size(); ++i) {
      EXPECT_EQ(done_values[i], i + 1) << "jobs=" << jobs;
    }
  }
}

// Regression for the old --counters behavior, which dumped one cumulative
// Registry::Default() snapshot for the whole grid: every sweep cell must
// report exactly the counters of an isolated single run.
TEST(SweepEngineTest, PerCellCountersMatchIsolatedRuns) {
  const SweepGrid grid = SmallGrid();
  SweepOptions options;
  options.jobs = 4;
  options.capture_counters = true;
  const std::vector<SweepCellResult> results = RunSweep(grid, options);
  ASSERT_EQ(results.size(), 4u);
  for (const SweepCellResult& r : results) {
    Registry registry;
    ExperimentConfig config = r.cell.config;
    config.registry = &registry;
    RunExperiment(config);
    EXPECT_EQ(r.counters.ToString(), registry.Snapshot().ToString()) << r.cell.name;
    // And the cells genuinely differ from each other (not one shared dump).
    EXPECT_FALSE(r.counters.counters.empty());
  }
  EXPECT_NE(results[0].counters.ToString(), results[2].counters.ToString());
}

// Two RunExperiment calls racing on separate registries — the exact pattern
// the worker pool relies on. Run under TSan this is the data-race oracle.
TEST(SweepEngineTest, ConcurrentRunsWithSeparateRegistriesMatchSerial) {
  ExperimentConfig base;
  base.workload = WorkloadId::kW1;
  base.load = 0.6;
  ExperimentConfig config_a = base;
  config_a.policy = PolicyKind::kPdpa;
  config_a.seed = 42;
  ExperimentConfig config_b = base;
  config_b.policy = PolicyKind::kEquipartition;
  config_b.seed = 43;

  ExperimentResult concurrent_a, concurrent_b;
  std::string counters_a, counters_b;
  std::thread thread_a([&] {
    Registry registry;
    ExperimentConfig config = config_a;
    config.registry = &registry;
    concurrent_a = RunExperiment(config);
    counters_a = registry.Snapshot().ToString();
  });
  std::thread thread_b([&] {
    Registry registry;
    ExperimentConfig config = config_b;
    config.registry = &registry;
    concurrent_b = RunExperiment(config);
    counters_b = registry.Snapshot().ToString();
  });
  thread_a.join();
  thread_b.join();

  Registry registry_a;
  config_a.registry = &registry_a;
  const ExperimentResult serial_a = RunExperiment(config_a);
  Registry registry_b;
  config_b.registry = &registry_b;
  const ExperimentResult serial_b = RunExperiment(config_b);

  EXPECT_EQ(concurrent_a.metrics.makespan_s, serial_a.metrics.makespan_s);
  EXPECT_EQ(concurrent_b.metrics.makespan_s, serial_b.metrics.makespan_s);
  EXPECT_EQ(concurrent_a.reallocations, serial_a.reallocations);
  EXPECT_EQ(concurrent_b.reallocations, serial_b.reallocations);
  EXPECT_EQ(counters_a, registry_a.Snapshot().ToString());
  EXPECT_EQ(counters_b, registry_b.Snapshot().ToString());
}

TEST(AggregateSeedsTest, MeanAndPercentilesAcrossReplicas) {
  std::vector<SweepCellResult> results(3);
  for (int i = 0; i < 3; ++i) {
    ClassMetrics m;
    m.count = 10;
    m.avg_response_s = 1.0 + i;  // 1, 2, 3
    results[i].result.metrics.per_class[AppClass::kSwim] = m;
    results[i].result.metrics.makespan_s = 100.0 * (i + 1);
    results[i].result.max_ml = 4;
    results[i].result.reallocations = 8;
    results[i].result.completed = true;
  }
  const CellAggregate agg = AggregateSeeds(results, 0, 3);
  EXPECT_EQ(agg.replicas, 3);
  EXPECT_TRUE(agg.all_completed);
  const ClassAggregate& swim = agg.per_class.at(AppClass::kSwim);
  EXPECT_EQ(swim.replicas, 3);
  EXPECT_DOUBLE_EQ(swim.avg_response_s.mean, 2.0);
  EXPECT_DOUBLE_EQ(swim.avg_response_s.p50, 2.0);
  EXPECT_NEAR(swim.avg_response_s.p95, 2.9, 1e-9);
  EXPECT_DOUBLE_EQ(swim.count.mean, 10.0);
  EXPECT_DOUBLE_EQ(agg.makespan_s.mean, 200.0);
  EXPECT_DOUBLE_EQ(agg.max_ml.p50, 4.0);
  EXPECT_DOUBLE_EQ(agg.reallocations.mean, 8.0);
}

TEST(AggregateSeedsTest, IncompleteReplicaClearsAllCompleted) {
  std::vector<SweepCellResult> results(2);
  results[0].result.completed = true;
  results[1].result.completed = false;
  EXPECT_FALSE(AggregateSeeds(results, 0, 2).all_completed);
}

}  // namespace
}  // namespace pdpa
