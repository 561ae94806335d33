// Cluster sweep cells: runs one grid cell on a multi-node cluster
// (src/cluster) instead of a single SMP, translating the cell's
// ExperimentConfig into ClusterOptions and the merged ClusterResult back
// into an ExperimentResult so the sweep CSV, aggregates and recordings
// work unchanged. The policy column reads "<policy>@<placement>", e.g.
// "PDPA@rr", so single-node and cluster rows cannot be confused.
//
// Cluster cells bypass the shared-prefix fork machinery (DESIGN.md §12):
// every node owns a private pre-arrival timeline, so there is no single
// policy-independent prefix to snapshot. They still share the group's
// immutable job trace.
#ifndef SRC_WORKLOAD_CLUSTER_CELL_H_
#define SRC_WORKLOAD_CLUSTER_CELL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/obs/counters.h"
#include "src/qs/job.h"
#include "src/workload/experiment.h"

namespace pdpa {

// Everything a cluster cell adds on top of its ExperimentConfig.
struct ClusterCellConfig {
  int nodes = 1;
  int cpus_per_node = 60;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  bool capture_counters = false;
  bool capture_events = false;
  bool capture_timeseries = false;
};

// A cluster cell's recordings come back by value (RunCluster owns its
// sinks), unlike single-node cells which write through borrowed pointers.
struct ClusterCellOutput {
  ExperimentResult result;
  RegistrySnapshot counters;
  std::string events_jsonl;
  std::string timeseries_csv;
};

// Runs `jobs` on the cluster described by (config, cluster). The trace must
// be the one BuildJobs would produce for `config` (whose num_cpus must
// already equal nodes * cpus_per_node, so arrival rates scale with cluster
// capacity). Trace recording is a single-node feature: config.record_trace
// must be unset. config.profiler, when set, profiles the run
// (cluster.barrier_wait / cluster.drain / cluster.place plus the node
// spans).
ClusterCellOutput RunClusterCell(const ExperimentConfig& config, const ClusterCellConfig& cluster,
                                 std::shared_ptr<const std::vector<JobSpec>> jobs);

}  // namespace pdpa

#endif  // SRC_WORKLOAD_CLUSTER_CELL_H_
