// pdpa_batch — run the full evaluation grid (workloads x loads x policies x
// seeds) and emit one CSV row per (cell, application class), ready for
// plotting. Cells run concurrently on a worker pool (--jobs); output is in
// deterministic grid order, byte-identical to a serial run.
//
// Usage:
//   pdpa_batch                          # the paper's full grid to stdout
//   pdpa_batch --workloads w1,w3 --loads 0.6,1.0 --policies equip,pdpa
//   pdpa_batch --seed 7 --untuned
//   pdpa_batch --seeds 8 --jobs 8       # 8 replicas per cell, 8 workers
//   pdpa_batch --events_out ev_ --timeseries_out ts_   # per-cell recordings
//   pdpa_batch --counters               # per-cell counter dumps to stderr
//   pdpa_batch --counters_out c_        # ... or to c_<cell>.txt files
//   pdpa_batch --jobs 8 --progress      # completion ticker on stderr
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/prof.h"
#include "src/obs/trace_export.h"
#include "src/workload/sweep.h"

namespace pdpa {
namespace {

constexpr const char* kUsage = R"(usage: pdpa_batch [flags]

grid axes:
  --workloads LIST         comma list of w1..w4 (default w1,w2,w3,w4)
  --loads LIST             comma list of load fractions (default 0.6,0.8,1.0)
  --policies LIST          comma list of irix,equip,equal_eff,pdpa,dynamic
                           (default irix,equip,equal_eff,pdpa)
  --seed N                 first RNG seed (default 42)
  --seeds N                replicas per cell under consecutive seeds
                           (default 1); adds per-class mean/p50/p95 rows
  --untuned                override every request to 30 CPUs

cluster (nodes > 1 runs every cell on a cluster of SMPs):
  --nodes N                cluster nodes (default 1 = single 60-CPU SMP)
  --cpus_per_node N        processors per node (default 60); the machine
                           is nodes x cpus_per_node
  --placement LIST         comma list of rr,mf,ll placement policies,
                           swept as a grid axis (default rr); the CSV
                           policy column reads "<policy>@<placement>"
  --cluster_shards N       worker event loops per cluster cell (default 1;
                           outputs are shard-count invariant)

execution:
  --jobs N                 worker threads (default: hardware concurrency)
  --reference              reference (oracle) mode: a tick at every grid
                           point, every cell run cold from t=0, and one
                           cluster barrier per arrival; the CSV matches
                           the default fast paths byte for byte (cluster
                           caveat: DESIGN.md section 13)
  --progress               completion ticker on stderr

output (CSV on stdout):
  --slowdown               append slowdown_p50/p95/p99 columns (per-replica
                           and merged-across-replica percentiles)

flight recorder (per-cell files, <prefix><cell>.<ext>):
  --events_out P           event logs (JSONL)
  --timeseries_out P       time-series (CSV)
  --counters_out P         counter snapshots (TXT)
  --counters               per-cell counter dumps to stderr

profiling & tracing:
  --trace_out FILE         write one Chrome/Perfetto trace of the whole
                           sweep: per-cell sim-time tracks, plus host-time
                           worker spans when --prof is also set
  --prof                   print the merged host-time profiler breakdown on
                           stderr (hit counts deterministic; ns are not)
  --prof_out FILE          write the merged profiler spans as JSONL
  --log_level LEVEL        debug|info|warning|error|none (default warning)
  --help                   this text
)";

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  out << content;
  return true;
}

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }

  const std::string log_level = flags.GetString("log_level", "warning");
  LogLevel level = LogLevel::kWarning;
  if (!ParseLogLevel(log_level, &level)) {
    std::fprintf(stderr, "unknown --log_level %s\n", log_level.c_str());
    return 2;
  }
  SetLogLevel(level);

  SweepGrid grid;
  grid.workloads.clear();
  for (const std::string& token :
       SplitTokens(flags.GetString("workloads", "w1,w2,w3,w4"), ',')) {
    if (token == "w1") {
      grid.workloads.push_back(WorkloadId::kW1);
    } else if (token == "w2") {
      grid.workloads.push_back(WorkloadId::kW2);
    } else if (token == "w3") {
      grid.workloads.push_back(WorkloadId::kW3);
    } else if (token == "w4") {
      grid.workloads.push_back(WorkloadId::kW4);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", token.c_str());
      return 2;
    }
  }
  grid.loads.clear();
  for (const std::string& token : SplitTokens(flags.GetString("loads", "0.6,0.8,1.0"), ',')) {
    double load = 0;
    if (!ParseDouble(token, &load) || load <= 0) {
      std::fprintf(stderr, "bad load %s\n", token.c_str());
      return 2;
    }
    grid.loads.push_back(load);
  }
  grid.policies.clear();
  for (const std::string& token :
       SplitTokens(flags.GetString("policies", "irix,equip,equal_eff,pdpa"), ',')) {
    if (token == "irix") {
      grid.policies.push_back(PolicyKind::kIrix);
    } else if (token == "equip") {
      grid.policies.push_back(PolicyKind::kEquipartition);
    } else if (token == "equal_eff") {
      grid.policies.push_back(PolicyKind::kEqualEfficiency);
    } else if (token == "pdpa") {
      grid.policies.push_back(PolicyKind::kPdpa);
    } else if (token == "dynamic") {
      grid.policies.push_back(PolicyKind::kMcCannDynamic);
    } else {
      std::fprintf(stderr, "unknown policy %s\n", token.c_str());
      return 2;
    }
  }
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  // Replication: run every (workload, load, policy) cell under `--seeds`
  // consecutive seeds starting at --seed, and append per-class
  // mean/p50/p95 aggregate rows.
  const int num_seeds = flags.GetInt("seeds", 1);
  if (num_seeds < 1) {
    std::fprintf(stderr, "--seeds must be >= 1\n");
    return 2;
  }
  grid.seeds.clear();
  for (int i = 0; i < num_seeds; ++i) {
    grid.seeds.push_back(seed + static_cast<std::uint64_t>(i));
  }
  grid.base.untuned = flags.GetBool("untuned", false);
  grid.base.rm.reference = flags.GetBool("reference", false);
  grid.nodes = flags.GetInt("nodes", 1);
  grid.cpus_per_node = flags.GetInt("cpus_per_node", 60);
  grid.cluster_shards = flags.GetInt("cluster_shards", 1);
  if (grid.nodes < 1 || grid.cpus_per_node < 1 || grid.cluster_shards < 1) {
    std::fprintf(stderr, "--nodes, --cpus_per_node and --cluster_shards must be >= 1\n");
    return 2;
  }
  grid.placements.clear();
  for (const std::string& token : SplitTokens(flags.GetString("placement", "rr"), ',')) {
    PlacementPolicy placement = PlacementPolicy::kRoundRobin;
    if (!ParsePlacementPolicy(token, &placement)) {
      std::fprintf(stderr, "unknown placement %s\n", token.c_str());
      return 2;
    }
    grid.placements.push_back(placement);
  }

  SweepOptions options;
  // Worker threads; 0 (the default) auto-detects hardware concurrency.
  options.jobs = flags.GetInt("jobs", 0);
  ForkStats fork_stats;
  options.fork_stats = &fork_stats;

  // Flight-recorder prefixes: each grid cell writes
  // <prefix><workload>_<load>_<policy>[_s<seed>].jsonl / .csv.
  const std::string events_prefix = flags.GetString("events_out", "");
  const std::string timeseries_prefix = flags.GetString("timeseries_out", "");
  const std::string counters_prefix = flags.GetString("counters_out", "");
  const bool want_counters = flags.GetBool("counters", false);
  const bool want_slowdown = flags.GetBool("slowdown", false);
  const std::string trace_out = flags.GetString("trace_out", "");
  const bool want_prof = flags.GetBool("prof", false);
  const std::string prof_out = flags.GetString("prof_out", "");
  options.capture_events = !events_prefix.empty() || !trace_out.empty();
  options.capture_timeseries = !timeseries_prefix.empty();
  options.capture_counters = want_counters || !counters_prefix.empty();
  options.capture_prof = want_prof || !prof_out.empty();

  // Completion ticker for long grids. The engine serializes on_progress
  // under its progress mutex, so stderr lines never interleave.
  std::vector<SweepCell> cell_names;
  if (flags.GetBool("progress", false)) {
    cell_names = ExpandGrid(grid);
    options.on_progress = [&cell_names](const SweepProgress& progress) {
      std::fprintf(stderr, "[%zu/%zu] %s\n", progress.done, progress.total,
                   cell_names[progress.cell_index].name.c_str());
    };
  }

  for (const std::string& unknown : flags.UnconsumedFlags()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", unknown.c_str());
    return 2;
  }
  if (flags.had_parse_error()) {
    std::fprintf(stderr, "malformed flag value (see --help)\n");
    return 2;
  }

  // Open the trace sink before the sweep so a bad path fails fast.
  std::ofstream trace_stream;
  if (!trace_out.empty()) {
    trace_stream.open(trace_out);
    if (!trace_stream) {
      std::fprintf(stderr, "cannot open %s\n", trace_out.c_str());
      return 2;
    }
  }

  const std::vector<SweepCellResult> results = RunSweep(grid, options);
  PDPA_LOG(Info) << "fork: " << fork_stats.prefixes_built << "/" << fork_stats.groups
                 << " group prefixes built, " << fork_stats.forked_cells << " cells forked, "
                 << fork_stats.cold_cells << " cold";
  SweepCsv(results, grid.seeds.size(), std::cout, want_slowdown);
  std::cout.flush();

  if (!trace_out.empty()) {
    TraceEventWriter writer(&trace_stream);
    writer.ProcessName(1, "sweep host");
    if (options.capture_prof && !results.empty()) {
      // Host-time tracks: one thread row per sweep worker, one complete
      // span per cell, timestamps relative to the earliest cell start.
      long long epoch_ns = results.front().host_begin_ns;
      for (const SweepCellResult& r : results) {
        epoch_ns = std::min(epoch_ns, r.host_begin_ns);
      }
      std::map<int, bool> workers_named;
      for (const SweepCellResult& r : results) {
        if (!workers_named[r.worker]) {
          workers_named[r.worker] = true;
          std::string name = "worker ";
          name += std::to_string(r.worker);
          writer.ThreadName(1, r.worker, name);
        }
        writer.Complete(1, r.worker, r.cell.name, (r.host_begin_ns - epoch_ns) / 1000,
                        (r.host_end_ns - r.host_begin_ns) / 1000);
      }
    }
    long long bad_lines = 0;
    for (const SweepCellResult& r : results) {
      bad_lines += ExportSimTrace(r.events_jsonl, 2 + static_cast<long long>(r.cell.index),
                                  r.cell.name, &writer);
    }
    writer.Finish();
    if (bad_lines > 0) {
      std::fprintf(stderr, "trace export skipped %lld malformed event lines\n", bad_lines);
    }
    std::fprintf(stderr, "trace: %lld trace events written to %s\n", writer.events_written(),
                 trace_out.c_str());
  }
  if (options.capture_prof) {
    const Profiler merged = MergeProfiles(results);
    if (want_prof) {
      std::string table;
      AppendProfTable(merged, &table);
      std::fprintf(stderr, "\nhost-time profile (hits are deterministic; times are not):\n%s",
                   table.c_str());
    }
    if (!prof_out.empty()) {
      std::string jsonl;
      AppendProfJsonl(merged, "pdpa_batch", &jsonl);
      if (!WriteFile(prof_out, jsonl)) {
        return 2;
      }
      std::fprintf(stderr, "profile: %lld span hits written to %s\n", merged.TotalHits(),
                   prof_out.c_str());
    }
  }

  // Per-cell recordings, written in grid order after the sweep.
  for (const SweepCellResult& r : results) {
    if (!events_prefix.empty() &&
        !WriteFile(events_prefix + r.cell.name + ".jsonl", r.events_jsonl)) {
      return 2;
    }
    if (!timeseries_prefix.empty() &&
        !WriteFile(timeseries_prefix + r.cell.name + ".csv", r.timeseries_csv)) {
      return 2;
    }
    if (!counters_prefix.empty() &&
        !WriteFile(counters_prefix + r.cell.name + ".txt", r.counters.ToString())) {
      return 2;
    }
    if (want_counters) {
      // One section per cell: each run has its own registry, so these are
      // genuinely per-cell values, not a cumulative grid total.
      std::fprintf(stderr, "\ncounters (%s):\n%s", r.cell.name.c_str(),
                   r.counters.ToString().c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
