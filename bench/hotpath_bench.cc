// Simulator hot-path benchmark: quantifies the event-horizon tick elision
// and guards its byte-identity contract.
//
// Part 1 (A/B): runs W1 @ load 1.0 under PDPA twice — reference mode's
// fine tick grid vs the elided default — captures the event log and
// time-series from both, and byte-compares them. Records rm.ticks /
// sim.events_dispatched for each mode and the tick elision factor. Exits
// non-zero if the elided run's observable output diverges from the exact
// run.
//
// Part 2 (throughput): the sweep_bench grid (w1,w2 x 0.6,1.0 x Equip,PDPA
// x 8 seeds = 64 cells) run serially in reference mode (fine ticks, every
// cell cold: sweep_reference_*) and in the default mode (elided ticks,
// forked cells: sweep_elided_*), reporting cells/sec for both.
//
// Part 3 (shared-prefix fork, DESIGN.md §12): a prefix-dominated grid — a
// job trace whose first arrival lands minutes into the run, swept across
// the four space-sharing policies x --seeds — run cold (one RunExperiment
// per cell with elision on, so every cell replays the pre-arrival region)
// and forked (one RunSweep: one prefix per group, forked into each policy
// cell). Both arms elide ticks, so fork_speedup = cold wall / forked wall
// measures forking alone. Byte-compares every cell's event log and the
// sweep CSV; on divergence, writes a per-cell diff to --divergence_out and
// exits non-zero.
//
// Wall times are medians over --repeat runs (p50 in the JSON).
//
// Usage: hotpath_bench [--seeds N] [--repeat N] [--out BENCH_hotpath.json]
//                      [--divergence_out fork_divergence.diff]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/obs/counters.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/workload/sweep.h"

namespace pdpa {
namespace {

// The host a BENCH_hotpath.json was recorded on (with hardware_concurrency):
// its timings are read against this, never across hosts.
#if defined(__clang__)
constexpr const char* kCompiler = "clang++ " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "g++ " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

double Seconds(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

struct AbRun {
  std::string events;
  std::string timeseries;
  long long ticks = 0;
  long long events_dispatched = 0;
  double wall_s = 0.0;
};

AbRun RunAb(bool reference) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW1;
  config.load = 1.0;
  config.seed = 42;
  config.policy = PolicyKind::kPdpa;
  config.rm.reference = reference;

  AbRun run;
  std::ostringstream events_stream;
  EventLog events(&events_stream);
  TimeSeriesSampler timeseries;
  Registry registry;
  config.event_log = &events;
  config.timeseries = &timeseries;
  config.registry = &registry;

  const auto t0 = std::chrono::steady_clock::now();
  (void)RunExperiment(config);
  run.wall_s = Seconds(std::chrono::steady_clock::now() - t0);

  events.Flush();  // The log buffers; push bytes out before reading.
  run.events = events_stream.str();
  std::ostringstream ts_stream;
  timeseries.WriteCsv(ts_stream);
  run.timeseries = ts_stream.str();
  for (const CounterSnapshot& counter : registry.Snapshot().counters) {
    if (counter.name == "rm.ticks") {
      run.ticks = counter.value;
    } else if (counter.name == "sim.events_dispatched") {
      run.events_dispatched = counter.value;
    }
  }
  return run;
}

// Runs every cell of `grid` cold, one RunExperiment each, capturing its
// event log the way RunSweep does.
std::vector<SweepCellResult> RunCold(const SweepGrid& grid) {
  std::vector<SweepCellResult> results;
  for (const SweepCell& cell : ExpandGrid(grid)) {
    SweepCellResult& r = results.emplace_back();
    r.cell = cell;
    std::ostringstream events_stream;
    EventLog events(&events_stream);
    Registry registry;
    ExperimentConfig config = cell.config;
    config.event_log = &events;
    config.registry = &registry;
    r.result = RunExperiment(config);
    events.Flush();
    r.events_jsonl = events_stream.str();
  }
  return results;
}

constexpr const char* kUsage =
    "usage: hotpath_bench [--seeds N] [--repeat N] [--out BENCH_hotpath.json]\n"
    "                     [--divergence_out fork_divergence.diff]\n";

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const int num_seeds = flags.GetInt("seeds", 8);
  const int repeat = flags.GetInt("repeat", 1);
  const std::string out_path = flags.GetString("out", "BENCH_hotpath.json");
  const std::string divergence_path = flags.GetString("divergence_out", "fork_divergence.diff");
  if (!FlagsValid(flags)) {
    return 2;
  }

  // --- Part 1: reference vs elided A/B on one cell -----------------------
  const AbRun fine = RunAb(/*reference=*/true);
  const AbRun coarse = RunAb(/*reference=*/false);
  const bool identical =
      fine.events == coarse.events && fine.timeseries == coarse.timeseries;
  const double elision_factor =
      coarse.ticks > 0 ? static_cast<double>(fine.ticks) / static_cast<double>(coarse.ticks)
                       : 0.0;
  std::fprintf(stderr,
               "A/B w1@1.0 PDPA: rm.ticks %lld -> %lld (%.2fx), events_dispatched %lld -> "
               "%lld, output %s\n",
               fine.ticks, coarse.ticks, elision_factor, fine.events_dispatched,
               coarse.events_dispatched, identical ? "identical" : "DIFFERS");

  // --- Part 2: serial sweep throughput, reference vs default ------------
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1, WorkloadId::kW2};
  grid.loads = {0.6, 1.0};
  grid.policies = {PolicyKind::kEquipartition, PolicyKind::kPdpa};
  grid.seeds.clear();
  for (int i = 0; i < num_seeds; ++i) {
    grid.seeds.push_back(42 + static_cast<std::uint64_t>(i));
  }
  const std::size_t cells = ExpandGrid(grid).size();

  SweepOptions serial;
  serial.jobs = 1;
  grid.base.rm.reference = true;
  const double reference_s = MedianWallSeconds(repeat, [&] { (void)RunSweep(grid, serial); });
  grid.base.rm.reference = false;
  const double elided_s = MedianWallSeconds(repeat, [&] { (void)RunSweep(grid, serial); });
  const double reference_cells_per_s =
      reference_s > 0 ? static_cast<double>(cells) / reference_s : 0;
  const double elided_cells_per_s = elided_s > 0 ? static_cast<double>(cells) / elided_s : 0;
  std::fprintf(stderr, "sweep %zu cells serial: reference %.2fs (%.0f cells/s), elided %.2fs "
               "(%.0f cells/s)\n",
               cells, reference_s, reference_cells_per_s, elided_s, elided_cells_per_s);

  // --- Part 3: shared-prefix fork, cold vs forked ------------------------
  // A grid built to look like the sweeps the fork exists for: every cell of
  // a (workload, seed) group replays the same pre-arrival region, and the
  // region is long enough (first arrival ~10 sim-minutes in) that cold runs
  // pay for it once per *cell* while forked runs pay once per *group*.
  SweepGrid fork_grid;
  fork_grid.workloads = {WorkloadId::kW1};
  fork_grid.loads = {1.0};
  fork_grid.policies = {PolicyKind::kEquipartition, PolicyKind::kEqualEfficiency,
                        PolicyKind::kPdpa, PolicyKind::kMcCannDynamic};
  fork_grid.seeds = grid.seeds;
  std::vector<JobSpec> late_trace;
  for (int i = 0; i < 1; ++i) {
    JobSpec spec;
    spec.id = i + 1;
    spec.app_class = AppClass::kSwim;
    spec.submit = 3600 * kSecond + i * kSecond;
    spec.request = 60;
    late_trace.push_back(spec);
  }
  fork_grid.base.jobs_override = late_trace;
  // A coarser quantum is what long-horizon sweeps actually run with; it also
  // keeps the forked cells dominated by the region, not the replan cadence.
  fork_grid.base.rm.quantum = 250 * kMillisecond;
  const std::size_t fork_cells = ExpandGrid(fork_grid).size();

  SweepOptions fork_on;
  fork_on.jobs = 1;
  fork_on.capture_events = true;
  ForkStats fork_stats;
  fork_on.fork_stats = &fork_stats;

  std::vector<SweepCellResult> cold_results;
  const double fork_cold_s =
      MedianWallSeconds(repeat, [&] { cold_results = RunCold(fork_grid); });
  std::vector<SweepCellResult> forked_results;
  const double fork_on_s =
      MedianWallSeconds(repeat, [&] { forked_results = RunSweep(fork_grid, fork_on); });

  std::ostringstream fork_csv_cold, fork_csv_on;
  SweepCsv(cold_results, fork_grid.seeds.size(), fork_csv_cold);
  SweepCsv(forked_results, fork_grid.seeds.size(), fork_csv_on);
  bool fork_identical = fork_csv_cold.str() == fork_csv_on.str() &&
                        cold_results.size() == forked_results.size();
  std::ostringstream divergence;
  for (std::size_t i = 0; i < cold_results.size() && i < forked_results.size(); ++i) {
    if (cold_results[i].events_jsonl != forked_results[i].events_jsonl) {
      fork_identical = false;
      divergence << "=== cell " << cold_results[i].cell.name << " events diverge\n"
                 << "--- fork off\n"
                 << cold_results[i].events_jsonl << "+++ fork on\n"
                 << forked_results[i].events_jsonl;
    }
  }
  if (fork_csv_cold.str() != fork_csv_on.str()) {
    divergence << "=== sweep CSV diverges\n--- fork off\n"
               << fork_csv_cold.str() << "+++ fork on\n"
               << fork_csv_on.str();
  }
  if (!fork_identical) {
    std::ofstream diff_out(divergence_path);
    diff_out << divergence.str();
    std::fprintf(stderr, "fork divergence details written to %s\n", divergence_path.c_str());
  }

  const double fork_cold_cells_per_s =
      fork_cold_s > 0 ? static_cast<double>(fork_cells) / fork_cold_s : 0;
  const double fork_cells_per_s =
      fork_on_s > 0 ? static_cast<double>(fork_cells) / fork_on_s : 0;
  const double fork_speedup = fork_on_s > 0 ? fork_cold_s / fork_on_s : 0;
  std::fprintf(stderr,
               "shared-prefix sweep %zu cells: cold %.2fs (%.0f cells/s), forked %.2fs "
               "(%.0f cells/s, %.2fx), %zu prefixes -> %zu forked cells, output %s\n",
               fork_cells, fork_cold_s, fork_cold_cells_per_s, fork_on_s, fork_cells_per_s,
               fork_speedup, fork_stats.prefixes_built, fork_stats.forked_cells,
               fork_identical ? "identical" : "DIFFERS");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n"
      << "  \"ab_cell\": \"w1_1.00_PDPA_s42\",\n"
      << "  \"repeat\": " << repeat << ",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"compiler\": \"" << kCompiler << "\",\n"
      << "  \"build_type\": \"" << PDPA_BUILD_TYPE << "\",\n"
      << "  \"ticks_exact\": " << fine.ticks << ",\n"
      << "  \"ticks_elided\": " << coarse.ticks << ",\n"
      << "  \"tick_elision_factor\": " << elision_factor << ",\n"
      << "  \"events_dispatched_exact\": " << fine.events_dispatched << ",\n"
      << "  \"events_dispatched_elided\": " << coarse.events_dispatched << ",\n"
      << "  \"output_identical\": " << (identical ? "true" : "false") << ",\n"
      << "  \"sweep_cells\": " << cells << ",\n"
      << "  \"sweep_reference_wall_s\": " << reference_s << ",\n"
      << "  \"sweep_elided_wall_s\": " << elided_s << ",\n"
      << "  \"sweep_reference_cells_per_s\": " << reference_cells_per_s << ",\n"
      << "  \"sweep_elided_cells_per_s\": " << elided_cells_per_s << ",\n"
      << "  \"fork_sweep_cells\": " << fork_cells << ",\n"
      << "  \"fork_prefixes_built\": " << fork_stats.prefixes_built << ",\n"
      << "  \"fork_forked_cells\": " << fork_stats.forked_cells << ",\n"
      << "  \"fork_cold_wall_s\": " << fork_cold_s << ",\n"
      << "  \"fork_wall_s\": " << fork_on_s << ",\n"
      << "  \"fork_cold_cells_per_s\": " << fork_cold_cells_per_s << ",\n"
      << "  \"fork_cells_per_s\": " << fork_cells_per_s << ",\n"
      << "  \"fork_speedup\": " << fork_speedup << ",\n"
      << "  \"fork_output_identical\": " << (fork_identical ? "true" : "false") << "\n"
      << "}\n";
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return identical && fork_identical ? 0 : 1;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
