// Profiler overhead benchmark: runs one serial sweep grid with the
// self-profiler off and again with it on, verifies the sweep CSVs are
// byte-identical (the profiler must never perturb outputs), and writes
// BENCH_prof.json. The headline gate is prof_off_factor — this bench's
// profiler-off throughput relative to sweep_bench's serial_cells_per_s from
// --sweep_baseline, measured on the same host so machine speed cancels; CI
// enforces `bench_check --min prof_off_factor=0.98` (<= 2% overhead from
// the disabled instrumentation). Wall times are medians over --repeat.
//
// prof_hits_total / prof_span_kinds are the deterministic half of the
// profile (exact-match metrics in bench_check); the *_wall_s / *_per_s
// fields are informational host measurements.
//
// Usage: prof_bench [--seeds N] [--repeat N] [--sweep_baseline BENCH_sweep.json]
//                   [--out BENCH_prof.json]
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/common/strings.h"
#include "src/obs/event_log.h"
#include "src/obs/prof.h"
#include "src/workload/sweep.h"

namespace pdpa {
namespace {

// Reads serial_cells_per_s from a sweep_bench JSON report. The file is one
// object pretty-printed across lines; flattening the newlines makes it a
// flat JSON object ParseFlatJson accepts. Names the file and returns false
// when it is missing or holds no positive serial_cells_per_s.
bool ReadSweepBaseline(const std::string& path, double* cells_per_s) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "prof_bench: cannot open sweep baseline %s\n", path.c_str());
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  for (char& c : text) {
    if (c == '\n' || c == '\r') {
      c = ' ';
    }
  }
  std::map<std::string, std::string> fields;
  const auto it = ParseFlatJson(text, &fields) ? fields.find("serial_cells_per_s") : fields.end();
  if (it == fields.end() || !ParseDouble(it->second, cells_per_s) || *cells_per_s <= 0) {
    std::fprintf(stderr, "prof_bench: sweep baseline %s has no positive serial_cells_per_s\n",
                 path.c_str());
    return false;
  }
  return true;
}

constexpr const char* kUsage =
    "usage: prof_bench [--seeds N] [--repeat N] [--sweep_baseline BENCH_sweep.json]\n"
    "                  [--out BENCH_prof.json]\n";

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const int num_seeds = flags.GetInt("seeds", 8);
  const int repeat = flags.GetInt("repeat", 1);
  const std::string baseline_path = flags.GetString("sweep_baseline", "BENCH_sweep.json");
  const std::string out_path = flags.GetString("out", "BENCH_prof.json");
  double baseline_cells_per_s = 0.0;
  if (!FlagsValid(flags) || !ReadSweepBaseline(baseline_path, &baseline_cells_per_s)) {
    return 2;
  }

  // The same grid as sweep_bench's serial leg, so cells/sec are comparable.
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1, WorkloadId::kW2};
  grid.loads = {0.6, 1.0};
  grid.policies = {PolicyKind::kEquipartition, PolicyKind::kPdpa};
  grid.seeds.clear();
  for (int i = 0; i < num_seeds; ++i) {
    grid.seeds.push_back(42 + static_cast<std::uint64_t>(i));
  }
  const std::size_t cells = ExpandGrid(grid).size();
  std::fprintf(stderr, "prof_bench: %zu cells, sweep baseline %.1f cells/s (%s)\n", cells,
               baseline_cells_per_s, baseline_path.c_str());

  SweepOptions off;
  off.jobs = 1;
  std::vector<SweepCellResult> off_results;
  const double off_s = MedianWallSeconds(repeat, [&] { off_results = RunSweep(grid, off); });

  SweepOptions on = off;
  on.capture_prof = true;
  std::vector<SweepCellResult> on_results;
  const double on_s = MedianWallSeconds(repeat, [&] { on_results = RunSweep(grid, on); });

  std::ostringstream csv_off, csv_on;
  SweepCsv(off_results, grid.seeds.size(), csv_off);
  SweepCsv(on_results, grid.seeds.size(), csv_on);
  const bool identical = csv_off.str() == csv_on.str();

  const Profiler merged = MergeProfiles(on_results);
  const long long hits = merged.TotalHits();
  int span_kinds = 0;
  for (int i = 0; i < kNumSpanIds; ++i) {
    span_kinds += merged.stats(static_cast<SpanId>(i)).hits > 0 ? 1 : 0;
  }

  const double off_cells_per_s = off_s > 0 ? static_cast<double>(cells) / off_s : 0;
  const double on_cells_per_s = on_s > 0 ? static_cast<double>(cells) / on_s : 0;

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n"
      << "  \"cells\": " << cells << ",\n"
      << "  \"seeds\": " << num_seeds << ",\n"
      << "  \"repeat\": " << repeat << ",\n"
      << "  \"jobs\": " << 1 << ",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"sweep_baseline_cells_per_s\": " << baseline_cells_per_s << ",\n"
      << "  \"off_wall_s\": " << off_s << ",\n"
      << "  \"on_wall_s\": " << on_s << ",\n"
      << "  \"off_cells_per_s\": " << off_cells_per_s << ",\n"
      << "  \"on_cells_per_s\": " << on_cells_per_s << ",\n"
      << "  \"prof_off_factor\": " << off_cells_per_s / baseline_cells_per_s << ",\n"
      << "  \"prof_on_factor\": " << on_cells_per_s / baseline_cells_per_s << ",\n"
      << "  \"prof_spans_per_s\": "
      << (on_s > 0 ? static_cast<double>(hits) / on_s : 0) << ",\n"
      << "  \"prof_hits_total\": " << hits << ",\n"
      << "  \"prof_span_kinds\": " << span_kinds << ",\n"
      << "  \"outputs_identical\": " << (identical ? "true" : "false") << "\n"
      << "}\n";
  std::fprintf(stderr,
               "off %.2fs (%.1f cells/s), on %.2fs (%.1f cells/s), %lld span hits, csv %s, "
               "wrote %s\n",
               off_s, off_cells_per_s, on_s, on_cells_per_s, hits,
               identical ? "identical" : "DIFFERS", out_path.c_str());
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
