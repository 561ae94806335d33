// Cluster-engine throughput benchmark: simulates a large cluster (default
// 1000 nodes) draining >= 1M tiny synthetic jobs, and writes
// BENCH_cluster.json with jobs/sec (cluster_jobs_per_s, the CI floor).
//
// Correctness is verified on every run, and any failure is written to
// --divergence_out with a nonzero exit:
//
//  * The fast paths (epoch-batched controller, boundary-batched RM) must
//    reproduce the one-arrival-per-barrier protocol on eliding nodes:
//    outcomes, placements and counters (minus WithoutReferenceVariants).
//  * The headline run must satisfy the run invariants: every job id
//    finishes exactly once, and the summed allocation integral fits in
//    nodes x cpus_per_node x end_time.
//
// Usage: cluster_bench [--nodes N] [--cpus_per_node N] [--total_jobs N]
//                      [--repeat N] [--out BENCH_cluster.json]
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
  // Skip immaterial boundary ticks (Equipartition ignores reports).
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
void AppendDivergence(const std::string& expected, const std::string& actual, const char* what,
                      std::string* report) {
  if (expected == actual) {
    return;
  }
  std::size_t line = 1, i = 0, line_start = 0;
  const std::size_t limit = std::min(expected.size(), actual.size());
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
  *report += what;
  *report += " diverges at line " + std::to_string(line) + ":\n  expected: " +
             line_of(expected) + "\n  actual:   " + line_of(actual) + "\n";
}

// Outcomes/placements equality with a pointed report on the first mismatch.
void AppendOutcomeDivergence(const ClusterResult& expected, const ClusterResult& actual,
                             const char* what, std::string* report) {
  if (expected.outcomes.size() != actual.outcomes.size()) {
    *report += std::string(what) + ": " + std::to_string(expected.outcomes.size()) +
               " expected outcomes vs " + std::to_string(actual.outcomes.size()) + " actual\n";
    return;
  }
  for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
    const JobOutcome& a = expected.outcomes[i];
    const JobOutcome& b = actual.outcomes[i];
    if (a.id != b.id || a.start != b.start || a.finish != b.finish ||
        expected.outcome_nodes[i] != actual.outcome_nodes[i]) {
      *report += std::string(what) + ": outcome " + std::to_string(i) + " differs (job " +
                 std::to_string(a.id) + " vs " + std::to_string(b.id) + ", node " +
                 std::to_string(expected.outcome_nodes[i]) + " vs " +
                 std::to_string(actual.outcome_nodes[i]) + ", finish us " +
                 std::to_string(a.finish) + " vs " + std::to_string(b.finish) + ")\n";
      return;
    }
  }
  if (expected.end_time != actual.end_time || expected.completed != actual.completed ||
      expected.max_node_running != actual.max_node_running ||
      expected.total_reallocations != actual.total_reallocations) {
    *report += std::string(what) + ": summary fields differ\n";
  }
}

// Run invariants of a completed run over job ids 0..total_jobs-1: each id
// finishes exactly once, and no more CPU time was handed out than the
// cluster had up to end_time.
void AppendInvariantViolations(const ClusterResult& result, long long total_jobs,
                               long long total_cpus, const char* what, std::string* report) {
  std::vector<bool> finished(static_cast<std::size_t>(total_jobs), false);
  long long finished_count = 0;
  for (const JobOutcome& outcome : result.outcomes) {
    if (outcome.id < 0 || outcome.id >= total_jobs ||
        finished[static_cast<std::size_t>(outcome.id)]) {
      *report += std::string(what) + ": job " + std::to_string(outcome.id) +
                 " finished twice or is not in the workload\n";
      return;
    }
    finished[static_cast<std::size_t>(outcome.id)] = true;
    ++finished_count;
  }
  if (!result.completed || finished_count != total_jobs) {
    *report += std::string(what) + ": " + std::to_string(finished_count) + " of " +
               std::to_string(total_jobs) + " jobs finished\n";
  }
  double allocated = 0.0;
  for (const auto& [id, integral] : result.alloc_integral_us) {
    allocated += integral;
  }
  const double capacity = static_cast<double>(total_cpus) * static_cast<double>(result.end_time);
  if (allocated > capacity) {
    *report += std::string(what) + ": allocation integral " + std::to_string(allocated) +
               " cpu-us exceeds capacity " + std::to_string(capacity) + " cpu-us\n";
  }
}

constexpr const char* kUsage =
    "usage: cluster_bench [--nodes N] [--cpus_per_node N] [--total_jobs N]\n"
    "                     [--repeat N] [--out BENCH_cluster.json]\n"
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
  const int repeat = flags.GetInt("repeat", 1);
  const std::string out_path = flags.GetString("out", "BENCH_cluster.json");
  const std::string divergence_path = flags.GetString("divergence_out", "cluster_divergence.txt");
  if (!FlagsValid(flags)) {
    return 2;
  }

  std::string divergence;

  // --- Correctness gate: fast paths vs their protocol, no captures. -----
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
  const ClusterOptions options = BaseOptions(nodes, cpus_per_node);

  std::fprintf(stderr, "cluster_bench: %d nodes x %d cpus, %lld jobs, hardware_concurrency %u\n",
               nodes, cpus_per_node, total_jobs, std::thread::hardware_concurrency());

  ClusterResult result;
  const double wall_s = MedianWallSeconds(repeat, [&] { result = RunCluster(jobs, options); });
  const bool identical = divergence.empty();
  AppendInvariantViolations(result, total_jobs, static_cast<long long>(nodes) * cpus_per_node,
                            "headline run", &divergence);
  const bool ok = divergence.empty();
  if (!ok) {
    std::ofstream div(divergence_path);
    div << divergence;
    std::fprintf(stderr, "CHECK FAILURE, report written to %s:\n%s", divergence_path.c_str(),
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
      << "  \"repeat\": " << repeat << ",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"output_identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"arrival_batches\": " << CounterValue(result.counters, "cluster.arrival_batches")
      << ",\n"
      << "  \"batched_arrivals\": " << CounterValue(result.counters, "cluster.batched_arrivals")
      << ",\n"
      << "  \"single_loop_wall_s\": " << wall_s << ",\n"
      << "  \"cluster_jobs_per_s\": "
      << (wall_s > 0 ? static_cast<double>(total_jobs) / wall_s : 0) << "\n}\n";
  std::fprintf(stderr, "%.2fs (%.0f jobs/s), identity and invariants %s, wrote %s\n", wall_s,
               wall_s > 0 ? static_cast<double>(total_jobs) / wall_s : 0.0, ok ? "ok" : "FAILED",
               out_path.c_str());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
