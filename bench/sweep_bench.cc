// Sweep-engine throughput benchmark: runs one replicated grid serially and
// on the worker pool, verifies the outputs are byte-identical, and writes
// BENCH_sweep.json with cells/sec for both plus the speedup. Wall times are
// medians over --repeat runs (p50 in the JSON).
//
// Usage: sweep_bench [--jobs N] [--seeds N] [--repeat N] [--out BENCH_sweep.json]
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/workload/sweep.h"

namespace pdpa {
namespace {

constexpr const char* kUsage =
    "usage: sweep_bench [--jobs N] [--seeds N] [--repeat N] [--out BENCH_sweep.json]\n";

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  int jobs = flags.GetInt("jobs", 0);
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
    if (jobs <= 0) {
      jobs = 1;
    }
  }
  const int num_seeds = flags.GetInt("seeds", 8);
  const int repeat = flags.GetInt("repeat", 1);
  const std::string out_path = flags.GetString("out", "BENCH_sweep.json");
  if (!FlagsValid(flags)) {
    return 2;
  }

  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1, WorkloadId::kW2};
  grid.loads = {0.6, 1.0};
  grid.policies = {PolicyKind::kEquipartition, PolicyKind::kPdpa};
  grid.seeds.clear();
  for (int i = 0; i < num_seeds; ++i) {
    grid.seeds.push_back(42 + static_cast<std::uint64_t>(i));
  }
  const std::size_t cells = ExpandGrid(grid).size();
  std::fprintf(stderr, "sweep_bench: %zu cells, --jobs %d, hardware_concurrency %u\n", cells,
               jobs, std::thread::hardware_concurrency());

  SweepOptions serial;
  serial.jobs = 1;
  std::vector<SweepCellResult> serial_results;
  const double serial_s =
      MedianWallSeconds(repeat, [&] { serial_results = RunSweep(grid, serial); });

  // On a single-CPU runner the worker pool cannot beat the serial run — the
  // "speedup" it would report is scheduler noise around 1.0, misleading in a
  // committed baseline. Skip the parallel A/B and say so in the JSON
  // (bench_check treats metrics missing from a skipped run as skips).
  const bool single_cpu = std::thread::hardware_concurrency() == 1;
  double parallel_s = 0.0;
  bool identical = true;
  if (!single_cpu) {
    SweepOptions parallel;
    parallel.jobs = jobs;
    std::vector<SweepCellResult> parallel_results;
    parallel_s = MedianWallSeconds(repeat, [&] { parallel_results = RunSweep(grid, parallel); });
    std::ostringstream csv_serial, csv_parallel;
    SweepCsv(serial_results, grid.seeds.size(), csv_serial);
    SweepCsv(parallel_results, grid.seeds.size(), csv_parallel);
    identical = csv_serial.str() == csv_parallel.str();
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n"
      << "  \"cells\": " << cells << ",\n"
      << "  \"seeds\": " << num_seeds << ",\n"
      << "  \"repeat\": " << repeat << ",\n"
      << "  \"jobs\": " << jobs << ",\n"
      << "  \"hardware_concurrency\": " << std::thread::hardware_concurrency() << ",\n"
      << "  \"skipped_single_cpu\": " << (single_cpu ? "true" : "false") << ",\n"
      << "  \"serial_wall_s\": " << serial_s << ",\n"
      << "  \"serial_cells_per_s\": "
      << (serial_s > 0 ? static_cast<double>(cells) / serial_s : 0);
  if (!single_cpu) {
    out << ",\n"
        << "  \"parallel_wall_s\": " << parallel_s << ",\n"
        << "  \"parallel_cells_per_s\": "
        << (parallel_s > 0 ? static_cast<double>(cells) / parallel_s : 0) << ",\n"
        << "  \"speedup\": " << (parallel_s > 0 ? serial_s / parallel_s : 0) << ",\n"
        << "  \"csv_identical\": " << (identical ? "true" : "false");
  }
  out << "\n}\n";
  if (single_cpu) {
    std::fprintf(stderr, "serial %.2fs; parallel A/B skipped (single CPU), wrote %s\n", serial_s,
                 out_path.c_str());
  } else {
    std::fprintf(stderr, "serial %.2fs, parallel %.2fs (%.2fx), csv %s, wrote %s\n", serial_s,
                 parallel_s, parallel_s > 0 ? serial_s / parallel_s : 0.0,
                 identical ? "identical" : "DIFFERS", out_path.c_str());
  }
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
