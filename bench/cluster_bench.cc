// Cluster-engine throughput benchmark: simulates a large cluster (default
// 1000 nodes) draining >= 1M tiny synthetic jobs through the sharded
// engine, and writes BENCH_cluster.json with jobs/sec.
//
// Two claims are measured, following the sweep_bench protocol:
//
//  * Correctness — ALWAYS verified, on every host: a sharded run must be
//    byte-identical to the single-loop serial reference. A small
//    capture-enabled configuration compares the merged event log,
//    time-series CSV and counters byte for byte; the headline configuration
//    compares outcomes, placements and counters (capturing 1M jobs' event
//    text would measure string building, not the engine). Any divergence is
//    written to --divergence_out and the bench exits nonzero.
//
//  * Speed — the sharded-vs-single-loop A/B runs only on multi-CPU hosts.
//    On a single-CPU runner the worker threads cannot beat the inline loop,
//    so the "speedup" would be scheduler noise around 1.0; the JSON then
//    says skipped_single_cpu and omits the sharded timings (bench_check
//    treats metrics missing from a skipped run as skips). The single-loop
//    throughput (cluster_jobs_per_s) is always present and is the CI floor.
//
// Usage: cluster_bench [--nodes N] [--cpus_per_node N] [--total_jobs N]
//                      [--shards N] [--repeat N] [--out BENCH_cluster.json]
//                      [--divergence_out FILE]
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/cluster/cluster.h"
#include "src/common/flags.h"
#include "src/rm/equipartition.h"

namespace pdpa {
namespace {

ResourceManager::Params FastParams() {
  ResourceManager::Params params;
  params.analyzer.noise_sigma = 0.0;
  params.app_costs.reconfig_freeze = 0;
  params.app_costs.warmup = 0;
  // Skip immaterial boundary ticks (Equipartition ignores reports). The
  // capture-enabled identity config below ignores this — the fast path
  // disengages whenever a sink is attached — so the byte-identity gate
  // always runs against the exact tick schedule.
  params.boundary_batch = true;
  return params;
}

// Tiny synthetic jobs with deterministic arrival spacing: enough load to
// keep every node busy without building an unbounded controller backlog.
std::vector<JobSpec> MakeJobs(long long count, int request, SimDuration spacing) {
  std::vector<JobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (long long i = 0; i < count; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app_class = static_cast<AppClass>(i % kNumAppClasses);
    spec.submit = i * spacing;
    spec.request = request;
    jobs.push_back(spec);
  }
  return jobs;
}

ClusterOptions BaseOptions(int num_nodes, int cpus_per_node) {
  ClusterOptions options;
  options.num_nodes = num_nodes;
  options.cpus_per_node = cpus_per_node;
  options.make_policy = [] { return std::make_unique<Equipartition>(4); };
  options.rm_params = FastParams();
  return options;
}

// Counter value by name, 0 when absent.
long long CounterValue(const RegistrySnapshot& snapshot, std::string_view name) {
  for (const CounterSnapshot& counter : snapshot.counters) {
    if (counter.name == name) {
      return counter.value;
    }
  }
  return 0;
}

// Appends a first-divergent-line report for two large artifacts.
void AppendDivergence(const std::string& serial, const std::string& sharded, const char* what,
                      std::string* report) {
  if (serial == sharded) {
    return;
  }
  std::size_t line = 1, i = 0, line_start = 0;
  const std::size_t limit = std::min(serial.size(), sharded.size());
  while (i < limit && serial[i] == sharded[i]) {
    if (serial[i] == '\n') {
      ++line;
      line_start = i + 1;
    }
    ++i;
  }
  const auto line_of = [line_start](const std::string& s) {
    const std::size_t end = s.find('\n', line_start);
    return s.substr(line_start, end == std::string::npos ? std::string::npos : end - line_start);
  };
  *report += what;
  *report += " diverges at line " + std::to_string(line) + ":\n  serial:  " + line_of(serial) +
             "\n  sharded: " + line_of(sharded) + "\n";
}

// Outcomes/placements equality with a pointed report on the first mismatch.
void AppendOutcomeDivergence(const ClusterResult& serial, const ClusterResult& sharded,
                             const char* what, std::string* report) {
  if (serial.outcomes.size() != sharded.outcomes.size()) {
    *report += std::string(what) + ": " + std::to_string(serial.outcomes.size()) +
               " serial outcomes vs " + std::to_string(sharded.outcomes.size()) + " sharded\n";
    return;
  }
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i) {
    const JobOutcome& a = serial.outcomes[i];
    const JobOutcome& b = sharded.outcomes[i];
    if (a.id != b.id || a.start != b.start || a.finish != b.finish ||
        serial.outcome_nodes[i] != sharded.outcome_nodes[i]) {
      *report += std::string(what) + ": outcome " + std::to_string(i) + " differs (job " +
                 std::to_string(a.id) + " vs " + std::to_string(b.id) + ", node " +
                 std::to_string(serial.outcome_nodes[i]) + " vs " +
                 std::to_string(sharded.outcome_nodes[i]) + ", finish us " +
                 std::to_string(a.finish) + " vs " + std::to_string(b.finish) + ")\n";
      return;
    }
  }
  if (serial.end_time != sharded.end_time || serial.completed != sharded.completed ||
      serial.max_node_running != sharded.max_node_running ||
      serial.total_reallocations != sharded.total_reallocations) {
    *report += std::string(what) + ": summary fields differ\n";
  }
}

constexpr const char* kUsage =
    "usage: cluster_bench [--nodes N] [--cpus_per_node N] [--total_jobs N]\n"
    "                     [--shards N] [--repeat N] [--out BENCH_cluster.json]\n"
    "                     [--divergence_out FILE]\n";

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const int nodes = flags.GetInt("nodes", 1000);
  const int cpus_per_node = flags.GetInt("cpus_per_node", 8);
  const long long total_jobs = flags.GetInt("total_jobs", 1000000);
  int shards = flags.GetInt("shards", 0);
  if (shards <= 0) {
    shards = static_cast<int>(std::thread::hardware_concurrency());
    if (shards <= 0) {
      shards = 1;
    }
    if (shards > 8) {
      shards = 8;  // the merge is controller-bound past this
    }
  }
  const int repeat = flags.GetInt("repeat", 1);
  const std::string out_path = flags.GetString("out", "BENCH_cluster.json");
  const std::string divergence_path = flags.GetString("divergence_out", "cluster_divergence.txt");
  if (!FlagsValid(flags)) {
    return 2;
  }

  std::string divergence;

  // --- Correctness gate 1: byte-identity on a capture-enabled config. -----
  // Small enough to capture every artifact, big enough to exercise real
  // placement contention, parking and completion batches.
  {
    const std::vector<JobSpec> jobs = MakeJobs(2000, 6, kSecond / 4);
    ClusterOptions options = BaseOptions(24, 8);
    options.capture_events = true;
    options.capture_timeseries = true;
    const ClusterResult serial = RunCluster(jobs, options);
    for (int test_shards : {2, 5}) {
      options.shards = test_shards;
      const ClusterResult sharded = RunCluster(jobs, options);
      AppendDivergence(serial.events_jsonl, sharded.events_jsonl, "small-config event log",
                       &divergence);
      AppendDivergence(serial.timeseries_csv, sharded.timeseries_csv, "small-config time-series",
                       &divergence);
      AppendDivergence(serial.counters.ToString(), sharded.counters.ToString(),
                       "small-config counters", &divergence);
      AppendOutcomeDivergence(serial, sharded, "small-config outcomes", &divergence);
    }
  }

  // --- Correctness gate 2: fast paths vs their protocol, no captures. ----
  // The epoch-batched controller and the boundary-batched RM must reproduce
  // the one-arrival-per-barrier protocol on eliding nodes exactly; counters
  // match too, minus the instruments WithoutReferenceVariants removes. Full
  // reference mode would also tick every node on every grid point, which
  // this workload's placements on elided ticks tell apart (DESIGN.md §13).
  {
    const std::vector<JobSpec> jobs = MakeJobs(2000, 6, kSecond / 4);
    const ClusterOptions fast_options = BaseOptions(24, 8);
    ClusterOptions per_arrival_options = fast_options;
    per_arrival_options.rm_params.boundary_batch = false;
    const ClusterResult fast = RunCluster(jobs, fast_options);
    const ClusterResult per_arrival = RunClusterPerArrival(jobs, per_arrival_options);
    AppendOutcomeDivergence(per_arrival, fast, "cross-mode outcomes", &divergence);
    AppendDivergence(WithoutReferenceVariants(per_arrival.counters).ToString(),
                     WithoutReferenceVariants(fast.counters).ToString(), "cross-mode counters",
                     &divergence);
  }

  // --- Headline configuration. -------------------------------------------
  const std::vector<JobSpec> jobs = MakeJobs(total_jobs, cpus_per_node / 2 + 1, kSecond / 100);
  const ClusterOptions single_options = BaseOptions(nodes, cpus_per_node);
  ClusterOptions sharded_options = single_options;
  // The identity gate must exercise the threaded engine even when the host
  // has one CPU (shards == 1 would be the inline loop compared to itself).
  sharded_options.shards = shards >= 2 ? shards : 2;

  std::fprintf(stderr, "cluster_bench: %d nodes x %d cpus, %lld jobs, %d shards, "
                       "hardware_concurrency %u\n",
               nodes, cpus_per_node, total_jobs, shards,
               std::thread::hardware_concurrency());

  ClusterResult single_result;
  const double single_s =
      MedianWallSeconds(repeat, [&] { single_result = RunCluster(jobs, single_options); });

  // Correctness gate 3 always runs: outcome/placement/counter identity of
  // the sharded headline run against the single-loop reference. Only the
  // *timing* A/B is gated on a multi-CPU host.
  const bool single_cpu = std::thread::hardware_concurrency() == 1;
  double sharded_s = 0.0;
  {
    ClusterResult sharded_result;
    if (single_cpu) {
      sharded_result = RunCluster(jobs, sharded_options);
    } else {
      sharded_s =
          MedianWallSeconds(repeat, [&] { sharded_result = RunCluster(jobs, sharded_options); });
    }
    AppendOutcomeDivergence(single_result, sharded_result, "headline outcomes", &divergence);
    AppendDivergence(single_result.counters.ToString(), sharded_result.counters.ToString(),
                     "headline counters", &divergence);
  }
  const bool identical = divergence.empty();
  if (!identical) {
    std::ofstream div(divergence_path);
    div << divergence;
    std::fprintf(stderr, "IDENTITY FAILURE, report written to %s:\n%s", divergence_path.c_str(),
                 divergence.c_str());
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n"
      << "  \"nodes\": " << nodes << ",\n"
      << "  \"cpus_per_node\": " << cpus_per_node << ",\n"
      << "  \"total_jobs\": " << total_jobs << ",\n"
      << "  \"shards\": " << shards << ",\n"
      << "  \"threads\": " << (single_cpu ? 1 : shards) << ",\n"
      << "  \"repeat\": " << repeat << ",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"skipped_single_cpu\": " << (single_cpu ? "true" : "false") << ",\n"
      << "  \"sharded_output_identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"arrival_batches\": " << CounterValue(single_result.counters, "cluster.arrival_batches")
      << ",\n"
      << "  \"batched_arrivals\": "
      << CounterValue(single_result.counters, "cluster.batched_arrivals") << ",\n"
      << "  \"single_loop_wall_s\": " << single_s << ",\n"
      << "  \"cluster_jobs_per_s\": "
      << (single_s > 0 ? static_cast<double>(total_jobs) / single_s : 0);
  if (!single_cpu) {
    out << ",\n"
        << "  \"sharded_wall_s\": " << sharded_s << ",\n"
        << "  \"sharded_jobs_per_s\": "
        << (sharded_s > 0 ? static_cast<double>(total_jobs) / sharded_s : 0) << ",\n"
        << "  \"cluster_speedup\": " << (sharded_s > 0 ? single_s / sharded_s : 0);
  }
  out << "\n}\n";
  if (single_cpu) {
    std::fprintf(stderr, "single-loop %.2fs (%.0f jobs/s); sharded timing skipped (single "
                         "CPU); identity %s; wrote %s\n",
                 single_s, single_s > 0 ? total_jobs / single_s : 0.0,
                 identical ? "ok" : "FAILED", out_path.c_str());
  } else {
    std::fprintf(stderr, "single-loop %.2fs, sharded %.2fs (%.2fx), identity %s, wrote %s\n",
                 single_s, sharded_s, sharded_s > 0 ? single_s / sharded_s : 0.0,
                 identical ? "ok" : "FAILED", out_path.c_str());
  }
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
