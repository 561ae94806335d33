// Cluster of SMPs (the paper's second future-work direction, Sec. 6): a
// set of shared-memory nodes, each managed by its own NANOS RM running its
// own scheduling policy, plus a cluster-level controller that queues each
// arriving job and places it on one node ("cooperation between the
// scheduling policies running on the different machines").
//
// Jobs are node-local: a malleable OpenMP application cannot span nodes, so
// the interesting new decision is *placement*, and the new failure mode is
// node-boundary fragmentation (a 30-CPU request cannot use 2x15 free CPUs
// on two different machines).
//
// Execution (DESIGN.md §13): every node owns a private Simulation, and one
// serial event loop interleaves them one event at a time in global
// (time, node) order up to the controller's barrier, before which no new
// cross-node interaction can possibly occur. The only cross-node facts are
// job completions and admission flips, which nodes surface to the
// controller at their exact timestamps; the controller handles each
// completion batch, places queued jobs, and resumes. Every controller
// decision is made in canonical (time, node-index) order, so event logs,
// time-series CSVs and counters are a pure function of the inputs.
//
// Epoch batching: instead of re-barriering at every single arrival, the
// controller batches arrivals inside provably safe windows — while no node
// admits, arrivals are pure queue pushes and the barrier jumps straight to
// the cutoff; while nodes admit, successive arrival groups are placed in
// one controller cycle as long as each group precedes the earliest pending
// node event. Placements are applied in the same canonical (time,
// node-index) order either way, so batching changes only the two
// batch-protocol counters. Reference mode (`rm_params.reference`) runs one
// barrier per arrival and ticks every node on every grid point (for its one
// known difference, see DESIGN.md §13).
#ifndef SRC_CLUSTER_CLUSTER_H_
#define SRC_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/app/app_profile.h"
#include "src/obs/counters.h"
#include "src/obs/prof.h"
#include "src/qs/job.h"
#include "src/rm/resource_manager.h"

namespace pdpa {

// How the cluster controller picks the node for the next queued job. All
// three break ties toward the lowest node index, which keeps placement —
// and therefore the whole run — deterministic.
enum class PlacementPolicy : int {
  // Rotate over nodes that can admit the job.
  kRoundRobin = 0,
  // Node with the most free processors (best chance of a large initial
  // allocation).
  kMostFreeCpus = 1,
  // Node with the fewest running jobs (spreads the ML pressure).
  kLeastLoaded = 2,
};

const char* PlacementPolicyName(PlacementPolicy policy);
// Compact suffix for sweep-cell names: "rr", "mf", "ll".
const char* PlacementPolicyShortName(PlacementPolicy policy);
// Accepts both the long and the short names. Returns false on anything
// else, leaving *out untouched.
bool ParsePlacementPolicy(std::string_view text, PlacementPolicy* out);

struct ClusterOptions {
  int num_nodes = 1;
  int cpus_per_node = 60;
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  // Fresh policy instance per node; required.
  std::function<std::unique_ptr<SchedulingPolicy>()> make_policy;
  // Per-node RM parameters; num_cpus is overridden with cpus_per_node, and
  // reference also turns epoch batching off.
  ResourceManager::Params rm_params;
  // Root seed; node k's RM gets the k-th fork.
  std::uint64_t seed = 1;
  // Simulation-time cutoff; 0 means run until the workload drains.
  SimTime max_sim_time = 0;
  // Borrowed host-time profiler (null disables). Controller spans:
  // cluster.barrier_wait, cluster.drain, cluster.place; the node-level
  // sim/rm/obs spans are recorded too (the nodes run on the calling thread).
  Profiler* profiler = nullptr;
  // Flight-recorder capture. Events and time-series are merged across the
  // controller and all nodes into single deterministic artifacts; the
  // "queued" column of machine samples is always 0 in cluster mode (the
  // backlog lives in the controller, not in any node's RM).
  bool capture_events = false;
  bool capture_timeseries = false;
  // App profile lookup; null means CachedProfile().
  std::function<const AppProfile&(AppClass)> profile_source;
};

struct ClusterResult {
  // Completion order: by finish time, then node index, then per-node
  // completion order. outcome_nodes[i] is the node outcomes[i] ran on.
  std::vector<JobOutcome> outcomes;
  std::vector<int> outcome_nodes;
  bool completed = true;
  // Last completion time, or the cutoff when the run timed out.
  SimTime end_time = 0;
  // High-water mark of per-node multiprogramming level.
  int max_node_running = 0;
  long long total_reallocations = 0;
  // Keyed by global job id (per-node integrals remapped).
  std::map<JobId, double> alloc_integral_us;
  // Merged JSONL, ordered by (t_us, stream, line): stream 0 is the
  // controller (job_submit / place / job_finish / run_end), stream k+1 is
  // node k (records carry a trailing "node":k field). Empty unless
  // capture_events.
  std::string events_jsonl;
  // Merged per-node CSV with a leading "node" column (see
  // WriteClusterTimeSeriesCsv). Empty unless capture_timeseries.
  std::string timeseries_csv;
  // Controller + per-node registries merged (counters summed); includes
  // cluster.* controller counters, e.g. cluster.placements.
  RegistrySnapshot counters;
};

// Simulates `workload` (submit-sorted, unique job ids) on the cluster
// described by `options` and returns the merged result. Every field of
// ClusterResult is a pure function of (workload, options).
ClusterResult RunCluster(const std::vector<JobSpec>& workload, const ClusterOptions& options);

// RunCluster with epoch batching off (reference mode's one barrier per
// arrival) but the nodes' tick schedule as `options` sets it: checks
// batching apart from the tick gap of DESIGN.md §13, and goes with it.
ClusterResult RunClusterPerArrival(const std::vector<JobSpec>& workload,
                                   const ClusterOptions& options);

}  // namespace pdpa

#endif  // SRC_CLUSTER_CLUSTER_H_
