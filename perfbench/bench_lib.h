// The parts of the perfbench driver that carry its statistics, its output
// checks and its command line, kept apart from the workloads so that
// bench_lib_test.cc can pin them down without running a simulation.
//
// Every metric helper here refuses to turn zero work or zero time into a
// number: it throws BenchError instead, and the driver exits non-zero
// without printing a result.
#ifndef PERFBENCH_BENCH_LIB_H_
#define PERFBENCH_BENCH_LIB_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class BenchError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// The workloads the driver knows, in the order BENCHMARK.json lists them.
const std::vector<std::string>& WorkloadNames();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Run each variant (serial, parallel, traced) once, check outputs, report
  // no metrics.
  bool check = false;
  bool help = false;
  // Source identity for the host record (a git commit or a tree digest).
  std::string commit;
  // Where the traced run writes its spans as JSONL; empty writes none.
  std::string spans_out;
};

// Parses argv without argv[0]. Returns false with *error set on an unknown
// flag, a stray positional argument, an unknown workload or a malformed or
// out-of-range value. --help needs no other flag.
bool ParseOptions(int argc, const char* const* argv, Options* options, std::string* error);

const char* Usage();

// Per-cell host times across repetitions. The statistic is each cell's
// median over the repetitions: on a host whose speed drifts between levels
// for seconds at a time, it is steadier from run to run than each cell's
// best time (perfbench/README.md has the measurements).
class CellTimes {
 public:
  // Throws BenchError when the repetition has a different cell count than
  // earlier ones, or no cells.
  void Add(const std::vector<double>& cell_seconds);
  // Each cell's median; throws when nothing was added.
  std::vector<double> Medians() const;
  // Sum of the per-cell medians.
  double Total() const;

 private:
  std::vector<std::vector<double>> repetitions_;
};

// The yardstick for the host's speed of the moment. The same vCPU runs the
// simulator up to 2x faster or slower from one minute to the next, for
// reasons the process cannot see (perfbench/README.md). perfbench times a
// few hundred steps of this fixed kernel on the same CPU right before and
// right after each cell, and expresses the cell's time in reference
// seconds: the time the host would need, at that moment, for
// kRefStepsPerRefSecond steps of the kernel. The kernel is a small event
// loop — a binary heap of 256 pending events over 1,024 state slots, about
// 36 KB, with data-dependent branches — and is part of the benchmark, never
// of the program, so a change to the program moves only the cell's side of
// the ratio.
inline constexpr double kRefStepsPerRefSecond = 1e7;

class ReferenceKernel {
 public:
  ReferenceKernel();
  // Runs `steps` steps and returns a checksum of the state, so the work
  // cannot be optimized away. Two kernels given the same steps return the
  // same checksums.
  std::uint64_t Run(int steps);
  // Host nanoseconds per step over `steps` timed steps, after a short
  // untimed warm-up that brings the kernel's state back into this CPU's
  // caches. Throws BenchError for steps < 1.
  double NsPerStep(int steps);

 private:
  struct Slot {
    double a = 0.0;
    double b = 0.0;
    std::uint64_t n = 0;
    std::uint64_t pad = 0;
  };
  std::uint64_t NextRandom();

  std::vector<std::uint64_t> heap_;  // (time << 16) | slot, min-heap
  std::vector<Slot> slots_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t checksum_ = 0;
};

// Host seconds at `ns_per_step` of the reference kernel, in reference
// seconds. Throws BenchError naming `what` unless both are positive and
// finite.
double RefSeconds(double host_seconds, double ns_per_step, std::string_view what);

// Median of samples (the middle one, or the mean of the middle two);
// throws BenchError when there are none.
double Median(std::vector<double> samples);

// work / seconds. Throws BenchError naming `what` unless both are positive
// and finite.
double Rate(double work, double seconds, std::string_view what);

// part / whole for a share or a count ratio. Throws BenchError naming
// `what` unless whole is positive and part is non-negative, both finite.
double Ratio(double part, double whole, std::string_view what);

// Percentile `p` (linear interpolation between order statistics) of
// samples that leave at least `min_beyond` samples ranked above it. Throws
// BenchError when there are fewer, or when any sample is not positive.
double TailPercentile(std::vector<double> samples, double p, std::string_view what,
                      std::size_t min_beyond = 10);

// Samples ranked strictly above the interpolation position of percentile p.
std::size_t SamplesBeyond(std::size_t n, double p);

// First, second and third quartile with Python's statistics.quantiles(n=4)
// ("exclusive" method); a single sample is its own three quartiles.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};
Quartiles QuartilesOf(std::vector<double> samples);

// 64-bit FNV-1a, chainable through `state`.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
std::uint64_t Fnv1a(std::string_view data, std::uint64_t state = kFnvOffset);
std::string Hex(std::uint64_t value);

// An artifact kept as one FNV-1a hash per line (newline included), so a
// repetition can be compared with the reference without holding the
// reference's bytes.
class LineHashes {
 public:
  explicit LineHashes(std::string_view text);
  // 0 when `text` has the same lines, else the 1-based number of the first
  // line that differs or is missing on either side.
  std::size_t FirstDifferentLine(std::string_view text) const;

 private:
  std::vector<std::uint64_t> hashes_;
};

// Line `line` (1-based) of `text` without its newline, or "<end of text>".
std::string LineOf(std::string_view text, std::size_t line);

// Spans the benchmark records around its calls into the program: name,
// host start/end, parent span (-1 for none) and grid cell (-1 for none).
struct Span {
  std::string name;
  long long start_ns = 0;
  long long end_ns = 0;
  int parent = -1;
  long long cell = -1;
};

class SpanLog {
 public:
  int Add(std::string name, long long start_ns, long long end_ns, int parent = -1,
          long long cell = -1);
  // Duration minus the durations of the span's direct children.
  long long SelfNs(int id) const;
  // Total duration of every span with this name.
  long long TotalNs(std::string_view name) const;
  std::string ToJsonl() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_LIB_H_
