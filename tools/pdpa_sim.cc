// pdpa_sim — command-line driver for the NANOS/PDPA simulator.
//
// Run any workload under any policy and inspect the paper's metrics, or
// replay/archive SWF traces and dump Paraver/ASCII execution views.
//
// Examples:
//   pdpa_sim --workload w3 --load 1.0 --policy pdpa
//   pdpa_sim --workload w4 --policy equip --untuned --ml 4
//   pdpa_sim --swf-in trace.swf --policy pdpa --view --prv-out run.prv
//   pdpa_sim --workload w2 --load 0.8 --swf-out w2.swf --dry-run
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "src/common/flags.h"
#include "src/common/logging.h"
#include "src/common/strings.h"
#include "src/obs/counters.h"
#include "src/obs/event_log.h"
#include "src/obs/prof.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace_export.h"
#include "src/qs/swf.h"
#include "src/trace/paraver_writer.h"
#include "src/workload/cluster_cell.h"
#include "src/workload/experiment.h"

namespace pdpa {
namespace {

constexpr const char* kUsage = R"(usage: pdpa_sim [flags]

workload selection (one of):
  --workload w1|w2|w3|w4   generated workload (default w1)
  --swf-in FILE            replay an SWF trace instead

generator flags:
  --load F                 target machine load fraction (default 1.0)
  --seed N                 RNG seed (default 42)
  --untuned                override every request to 30 CPUs
  --swf-out FILE           archive the generated workload as SWF
  --dry-run                generate/archive only, do not simulate

scheduler flags:
  --policy irix|equip|equal_eff|pdpa|dynamic   (default pdpa)
  --queue-order fcfs|sjf   job selection within the queue (default fcfs)
  --ml N                   fixed ML (baselines) / default ML (PDPA), default 4
  --cpus N                 usable processors (default 60)
  --nodes N                cluster of N SMP nodes instead of one machine
                           (default 1; the machine is then nodes x
                           cpus_per_node and --cpus is ignored)
  --cpus_per_node N        processors per cluster node (default 60)
  --placement rr|mf|ll     cluster placement policy: round-robin, most-free,
                           least-loaded (default rr)
  --shards N               worker event loops for the cluster engine
                           (default 1; outputs are shard-count invariant)
  --target-eff F           PDPA target efficiency (default 0.7)
  --high-eff F             PDPA high efficiency (default 0.9)
  --step N                 PDPA allocation step (default 4)
  --no-relative-speedup    disable PDPA's RelativeSpeedup test (ablation)
  --no-coordination        disable PDPA's coordinated ML rule (ablation)
  --dynamic-target         load-adaptive target efficiency
  --reference              reference (oracle) mode: a tick at every grid
                           point and, with --nodes, one cluster barrier per
                           arrival; outputs match the default fast paths
                           byte for byte except tick-schedule counters
                           (cluster caveat: DESIGN.md section 13)

output flags:
  --view                   print the ASCII execution view (Fig. 5 style)
  --prv-out FILE           write a Paraver trace of the execution
  --pcf-out FILE           write the companion Paraver config (names/colors)
  --ml-timeline            print the multiprogramming level over time
  --help                   this text

flight recorder (observability):
  --events_out FILE        write the structured event log (JSONL; feed to
                           pdpa_report for per-app timelines)
  --timeseries_out FILE    write the per-quantum allocation time-series (CSV)
  --trace_out FILE         write a Chrome/Perfetto trace (trace-event JSON):
                           job lifecycle tracks + allocation counters,
                           reconstructed from the event log (load the file
                           in ui.perfetto.dev or chrome://tracing)
  --prof                   print the host-time self-profiler breakdown
                           (span hit counts are deterministic; ns are not)
  --prof_out FILE          write the profiler spans as JSONL
  --counters               print the counters-registry snapshot after the run
  --log_level LEVEL        debug|info|warning|error|none (default warning);
                           log lines are stamped with simulation time
)";

// Opens `path` for writing; names it on stderr when that fails.
bool OpenOut(const std::string& path, std::ofstream* out) {
  out->open(path);
  if (!*out) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
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

  ExperimentConfig config;
  const std::string workload = flags.GetString("workload", "w1");
  if (workload == "w1") {
    config.workload = WorkloadId::kW1;
  } else if (workload == "w2") {
    config.workload = WorkloadId::kW2;
  } else if (workload == "w3") {
    config.workload = WorkloadId::kW3;
  } else if (workload == "w4") {
    config.workload = WorkloadId::kW4;
  } else {
    std::fprintf(stderr, "unknown --workload %s\n", workload.c_str());
    return 2;
  }
  config.load = flags.GetDouble("load", 1.0);
  config.seed = static_cast<std::uint64_t>(flags.GetInt("seed", 42));
  config.untuned = flags.GetBool("untuned", false);
  config.rm.reference = flags.GetBool("reference", false);

  const std::string policy = flags.GetString("policy", "pdpa");
  if (policy == "irix") {
    config.policy = PolicyKind::kIrix;
  } else if (policy == "equip") {
    config.policy = PolicyKind::kEquipartition;
  } else if (policy == "equal_eff") {
    config.policy = PolicyKind::kEqualEfficiency;
  } else if (policy == "pdpa") {
    config.policy = PolicyKind::kPdpa;
  } else if (policy == "dynamic") {
    config.policy = PolicyKind::kMcCannDynamic;
  } else {
    std::fprintf(stderr, "unknown --policy %s\n", policy.c_str());
    return 2;
  }
  const std::string queue_order = flags.GetString("queue-order", "fcfs");
  if (queue_order == "sjf") {
    config.queue_order = QueueOrder::kShortestDemandFirst;
  } else if (queue_order != "fcfs") {
    std::fprintf(stderr, "unknown --queue-order %s\n", queue_order.c_str());
    return 2;
  }
  config.multiprogramming_level = flags.GetInt("ml", 4);
  config.num_cpus = flags.GetInt("cpus", 60);
  const int nodes = flags.GetInt("nodes", 1);
  const int cpus_per_node = flags.GetInt("cpus_per_node", 60);
  const int shards = flags.GetInt("shards", 1);
  const std::string placement_name = flags.GetString("placement", "rr");
  PlacementPolicy placement = PlacementPolicy::kRoundRobin;
  if (!ParsePlacementPolicy(placement_name, &placement)) {
    std::fprintf(stderr, "unknown --placement %s\n", placement_name.c_str());
    return 2;
  }
  if (nodes < 1 || cpus_per_node < 1 || shards < 1) {
    std::fprintf(stderr, "--nodes, --cpus_per_node and --shards must be >= 1\n");
    return 2;
  }
  if (nodes > 1) {
    // Workload generation (and SWF archiving) must see the whole cluster's
    // capacity so arrival rates scale with it.
    config.num_cpus = nodes * cpus_per_node;
  }
  config.pdpa.target_eff = flags.GetDouble("target-eff", 0.7);
  config.pdpa.high_eff = flags.GetDouble("high-eff", 0.9);
  config.pdpa.step = flags.GetInt("step", 4);
  config.pdpa.use_relative_speedup = !flags.GetBool("no-relative-speedup", false);
  config.pdpa.dynamic_target = flags.GetBool("dynamic-target", false);
  config.pdpa_coordinated_ml = !flags.GetBool("no-coordination", false);

  const std::string swf_in = flags.GetString("swf-in", "");
  if (!swf_in.empty()) {
    std::ifstream in(swf_in);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", swf_in.c_str());
      return 2;
    }
    std::string error;
    if (!ReadSwf(in, &config.jobs_override, &error)) {
      std::fprintf(stderr, "SWF parse error in %s: %s\n", swf_in.c_str(), error.c_str());
      return 2;
    }
  }

  const bool want_view = flags.GetBool("view", false);
  const std::string prv_out = flags.GetString("prv-out", "");
  const std::string pcf_out = flags.GetString("pcf-out", "");
  const bool want_ml_timeline = flags.GetBool("ml-timeline", false);
  config.record_trace = want_view || !prv_out.empty();

  const std::string swf_out = flags.GetString("swf-out", "");
  const bool dry_run = flags.GetBool("dry-run", false);

  const std::string events_out = flags.GetString("events_out", "");
  const std::string timeseries_out = flags.GetString("timeseries_out", "");
  const std::string trace_out = flags.GetString("trace_out", "");
  const bool want_prof = flags.GetBool("prof", false);
  const std::string prof_out = flags.GetString("prof_out", "");
  const bool want_counters = flags.GetBool("counters", false);

  for (const std::string& unknown : flags.UnconsumedFlags()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", unknown.c_str());
    return 2;
  }
  if (flags.had_parse_error()) {
    std::fprintf(stderr, "malformed flag value (see --help)\n");
    return 2;
  }

  if (!swf_out.empty() || dry_run) {
    std::vector<JobSpec> jobs = config.jobs_override;
    if (jobs.empty()) {
      jobs = BuildWorkload(config.workload, config.load, config.seed, config.untuned,
                           config.num_cpus);
    }
    if (!swf_out.empty()) {
      std::ofstream out;
      if (!OpenOut(swf_out, &out)) {
        return 2;
      }
      WriteSwf(jobs, out, WorkloadName(config.workload));
      std::printf("wrote %zu jobs to %s\n", jobs.size(), swf_out.c_str());
    }
    if (dry_run) {
      return 0;
    }
    config.jobs_override = jobs;
  }

  if (nodes > 1) {
    // Cluster mode: per-node simulations via the sharded engine
    // (src/cluster). Trace/queue-order features are wired through a single
    // machine's RM and stay single-node only; --prof profiles the
    // controller thread (plus the node spans when --shards 1).
    if (config.record_trace || !pcf_out.empty() || want_ml_timeline || !trace_out.empty() ||
        config.queue_order != QueueOrder::kFcfs) {
      std::fprintf(stderr,
                   "--view/--prv-out/--pcf-out/--ml-timeline/--trace_out/"
                   "--queue-order sjf are single-node only (incompatible with --nodes)\n");
      return 2;
    }
    Profiler profiler;
    if (want_prof || !prof_out.empty()) {
      config.profiler = &profiler;
    }
    ClusterCellConfig cluster;
    cluster.nodes = nodes;
    cluster.cpus_per_node = cpus_per_node;
    cluster.placement = placement;
    cluster.shards = shards;
    cluster.capture_counters = want_counters;
    cluster.capture_events = !events_out.empty();
    cluster.capture_timeseries = !timeseries_out.empty();
    const ClusterCellOutput out = RunClusterCell(config, cluster, BuildJobs(config));
    const ExperimentResult& result = out.result;
    std::printf("policy %s, %d jobs, makespan %.1f s, peak node ML %d%s\n",
                result.policy_name.c_str(), result.metrics.jobs, result.metrics.makespan_s,
                result.max_ml, result.completed ? "" : "  [CUTOFF HIT]");
    std::printf("cluster: %d nodes x %d cpus, %d shard(s)\n", nodes, cpus_per_node, shards);
    std::printf("%-10s %6s %12s %12s %10s %10s\n", "class", "jobs", "response(s)", "exec(s)",
                "wait(s)", "avg cpus");
    for (const auto& [app_class, metrics] : result.metrics.per_class) {
      std::printf("%-10s %6d %12.1f %12.1f %10.1f %10.1f\n", AppClassName(app_class),
                  metrics.count, metrics.avg_response_s, metrics.avg_exec_s,
                  metrics.avg_wait_s, metrics.avg_alloc);
    }
    if (!events_out.empty()) {
      std::ofstream out_stream;
      if (!OpenOut(events_out, &out_stream)) {
        return 2;
      }
      out_stream << out.events_jsonl;
      const long long lines =
          static_cast<long long>(std::count(out.events_jsonl.begin(), out.events_jsonl.end(), '\n'));
      std::printf("event log: %lld events written to %s\n", lines, events_out.c_str());
    }
    if (!timeseries_out.empty()) {
      std::ofstream out_stream;
      if (!OpenOut(timeseries_out, &out_stream)) {
        return 2;
      }
      out_stream << out.timeseries_csv;
      std::printf("time-series: merged cluster CSV written to %s\n", timeseries_out.c_str());
    }
    if (want_prof) {
      std::string table;
      AppendProfTable(profiler, &table);
      std::printf("\nhost-time profile (hits are deterministic; times are not):\n%s",
                  table.c_str());
    }
    if (!prof_out.empty()) {
      std::ofstream prof_stream;
      if (!OpenOut(prof_out, &prof_stream)) {
        return 2;
      }
      std::string jsonl;
      AppendProfJsonl(profiler, "pdpa_sim", &jsonl);
      prof_stream << jsonl;
      std::printf("profile: %lld span hits written to %s\n", profiler.TotalHits(),
                  prof_out.c_str());
    }
    if (want_counters) {
      std::printf("\ncounters:\n%s", out.counters.ToString().c_str());
    }
    return 0;
  }

  std::ofstream events_stream;
  if (!events_out.empty() && !OpenOut(events_out, &events_stream)) {
    return 2;
  }
  std::ofstream trace_stream;
  if (!trace_out.empty() && !OpenOut(trace_out, &trace_stream)) {
    return 2;
  }
  std::ofstream prv_stream;
  if (!prv_out.empty() && !OpenOut(prv_out, &prv_stream)) {
    return 2;
  }
  std::ofstream pcf_stream;
  if (!pcf_out.empty() && !OpenOut(pcf_out, &pcf_stream)) {
    return 2;
  }
  // The trace exporter replays the event log, so --trace_out captures the
  // records in memory; --events_out then writes that same byte stream (the
  // recording is identical either way).
  std::ostringstream events_buffer;
  std::ostream* events_sink = nullptr;
  if (!trace_out.empty()) {
    events_sink = &events_buffer;
  } else if (!events_out.empty()) {
    events_sink = &events_stream;
  }
  EventLog events(events_sink);
  if (events.enabled()) {
    config.event_log = &events;
  }
  TimeSeriesSampler timeseries;
  if (!timeseries_out.empty()) {
    config.timeseries = &timeseries;
  }
  Profiler profiler;
  if (want_prof || !prof_out.empty()) {
    config.profiler = &profiler;
  }
  // A run-local registry keeps the --counters dump scoped to this run (and
  // exercises the same per-run path the sweep engine uses).
  Registry registry;
  config.registry = &registry;

  const ExperimentResult result = RunExperiment(config);
  std::printf("policy %s, %d jobs, makespan %.1f s, peak ML %d%s\n",
              result.policy_name.c_str(), result.metrics.jobs, result.metrics.makespan_s,
              result.max_ml, result.completed ? "" : "  [CUTOFF HIT]");
  if (config.record_trace) {
    std::printf("migrations %lld, avg burst %.0f ms, utilization %.0f%%\n",
                result.trace_stats.migrations, result.trace_stats.avg_burst_ms,
                result.utilization * 100.0);
  }
  std::printf("%-10s %6s %12s %12s %10s %10s\n", "class", "jobs", "response(s)", "exec(s)",
              "wait(s)", "avg cpus");
  for (const auto& [app_class, metrics] : result.metrics.per_class) {
    std::printf("%-10s %6d %12.1f %12.1f %10.1f %10.1f\n", AppClassName(app_class),
                metrics.count, metrics.avg_response_s, metrics.avg_exec_s, metrics.avg_wait_s,
                metrics.avg_alloc);
  }
  if (want_view) {
    std::printf("\n%s", result.ascii_view.c_str());
  }
  if (want_ml_timeline) {
    std::printf("\nmultiprogramming level timeline (s, jobs):\n");
    for (const auto& [when, ml] : result.ml_timeline_s) {
      std::printf("  %8.1f %d\n", when, ml);
    }
  }
  if (!prv_out.empty()) {
    prv_stream << result.paraver_trace;
    std::printf("\nParaver trace written to %s\n", prv_out.c_str());
  }
  if (!pcf_out.empty()) {
    WriteParaverConfig(result.metrics.jobs, pcf_stream);
    std::printf("Paraver config written to %s\n", pcf_out.c_str());
  }
  if (events.enabled()) {
    events.Flush();  // The log buffers; push bytes out before reporting.
    if (!trace_out.empty()) {
      const std::string captured = events_buffer.str();
      if (!events_out.empty()) {
        events_stream << captured;
      }
      TraceEventWriter writer(&trace_stream);
      const std::string process_name =
          StrFormat("%s_%.2f_%s", workload.c_str(), config.load, result.policy_name.c_str());
      const long long bad_lines = ExportSimTrace(captured, 1, process_name, &writer);
      writer.Finish();
      if (bad_lines > 0) {
        std::fprintf(stderr, "trace export skipped %lld malformed event lines\n", bad_lines);
      }
      std::printf("trace: %lld trace events written to %s\n", writer.events_written(),
                  trace_out.c_str());
    }
    if (!events_out.empty()) {
      std::printf("event log: %lld events written to %s\n", events.lines_written(),
                  events_out.c_str());
    }
  }
  if (!timeseries_out.empty()) {
    std::ofstream out;
    if (!OpenOut(timeseries_out, &out)) {
      return 2;
    }
    timeseries.WriteCsv(out);
    std::printf("time-series: %zu app windows, %zu machine samples written to %s\n",
                timeseries.apps().size(), timeseries.machine().size(), timeseries_out.c_str());
  }
  if (want_prof) {
    std::string table;
    AppendProfTable(profiler, &table);
    std::printf("\nhost-time profile (hits are deterministic; times are not):\n%s",
                table.c_str());
  }
  if (!prof_out.empty()) {
    std::ofstream out;
    if (!OpenOut(prof_out, &out)) {
      return 2;
    }
    std::string jsonl;
    AppendProfJsonl(profiler, "pdpa_sim", &jsonl);
    out << jsonl;
    std::printf("profile: %lld span hits written to %s\n", profiler.TotalHits(),
                prof_out.c_str());
  }
  if (want_counters) {
    std::printf("\ncounters:\n%s", registry.Snapshot().ToString().c_str());
  }
  return 0;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
