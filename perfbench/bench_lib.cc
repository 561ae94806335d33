#include "perfbench/bench_lib.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>

#include "src/common/flags.h"
#include "src/common/stats.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"paper_grid", "replica_grid", "recorded_grid",
                                                  "cluster_1k"};
  return kNames;
}

const char* Usage() {
  return "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--check]\n"
         "                 [--commit ID] [--spans_out FILE]\n"
         "\n"
         "Runs one workload of the repository benchmark for S seconds and prints, as the\n"
         "last line of standard output, one JSON object with the keys correct, attempted,\n"
         "failed and metrics.\n"
         "\n"
         "  --workload   paper_grid | replica_grid | recorded_grid | cluster_1k\n"
         "  --seed       input seed, a whole number >= 0 (default 1; seed 1 is the one\n"
         "               whose output digests are pinned)\n"
         "  --seconds    measuring time, 1..600 (default 10)\n"
         "  --trace      0 prints the end-to-end metrics, 1 the per-layer metrics\n"
         "  --check      run serial, 2-thread and traced once each, check outputs, no metrics\n"
         "  --commit     source identity recorded with the host\n"
         "  --spans_out  traced run: write the benchmark's spans here as JSONL\n"
         "\n"
         "Exit codes: 0 ok, 1 failed output check or metric error, 2 bad usage.\n";
}

namespace {

bool ParseWhole(const std::string& text, std::uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return !text.empty() && ec == std::errc() && ptr == end;
}

}  // namespace

bool ParseOptions(int argc, const char* const* argv, Options* options, std::string* error) {
  pdpa::FlagSet flags = pdpa::FlagSet::Parse(argc, argv);
  *options = Options{};
  options->help = flags.GetBool("help", false);
  options->workload = flags.GetString("workload", "");
  const std::string seed = flags.GetString("seed", "1");
  const std::string seconds = flags.GetString("seconds", "10");
  const std::string trace = flags.GetString("trace", "0");
  options->check = flags.GetBool("check", false);
  options->commit = flags.GetString("commit", "");
  options->spans_out = flags.GetString("spans_out", "");
  if (flags.had_parse_error()) {
    *error = "malformed flag value";
    return false;
  }
  const std::vector<std::string> unknown = flags.UnconsumedFlags();
  if (!unknown.empty()) {
    *error = "unknown flag --" + unknown.front();
    return false;
  }
  if (!flags.positional().empty()) {
    *error = "unexpected argument '" + flags.positional().front() + "'";
    return false;
  }
  if (options->help) {
    return true;
  }
  const std::vector<std::string>& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options->workload) == names.end()) {
    *error = options->workload.empty() ? "--workload is required"
                                       : "unknown workload '" + options->workload + "'";
    return false;
  }
  std::uint64_t value = 0;
  if (!ParseWhole(seed, &options->seed)) {
    *error = "--seed must be a whole number, got '" + seed + "'";
    return false;
  }
  if (!ParseWhole(seconds, &value) || value < 1 || value > 600) {
    *error = "--seconds must be a whole number in 1..600, got '" + seconds + "'";
    return false;
  }
  options->seconds = static_cast<int>(value);
  if (trace != "0" && trace != "1") {
    *error = "--trace must be 0 or 1, got '" + trace + "'";
    return false;
  }
  options->trace = trace == "1";
  return true;
}

void CellTimes::Add(const std::vector<double>& cell_seconds) {
  if (cell_seconds.empty()) {
    throw BenchError("a repetition timed no cells");
  }
  if (!repetitions_.empty() && cell_seconds.size() != repetitions_.front().size()) {
    throw BenchError("repetition timed " + std::to_string(cell_seconds.size()) +
                     " cells, earlier ones " + std::to_string(repetitions_.front().size()));
  }
  repetitions_.push_back(cell_seconds);
}

std::vector<double> CellTimes::Medians() const {
  if (repetitions_.empty()) {
    throw BenchError("no repetition was timed");
  }
  std::vector<double> medians;
  std::vector<double> samples(repetitions_.size());
  for (std::size_t cell = 0; cell < repetitions_.front().size(); ++cell) {
    for (std::size_t rep = 0; rep < repetitions_.size(); ++rep) {
      samples[rep] = repetitions_[rep][cell];
    }
    medians.push_back(Median(samples));
  }
  return medians;
}

double CellTimes::Total() const {
  double total = 0.0;
  for (const double seconds : Medians()) {
    total += seconds;
  }
  return total;
}

ReferenceKernel::ReferenceKernel() : slots_(1024) {
  for (std::uint64_t slot = 0; slot < 256; ++slot) {
    heap_.push_back(((NextRandom() & 0xffff) << 16) | slot);
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
}

std::uint64_t ReferenceKernel::NextRandom() {
  rng_ ^= rng_ << 13;
  rng_ ^= rng_ >> 7;
  rng_ ^= rng_ << 17;
  return rng_;
}

std::uint64_t ReferenceKernel::Run(int steps) {
  for (int i = 0; i < steps; ++i) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const std::uint64_t event = heap_.back();
    heap_.pop_back();
    const std::uint64_t time = event >> 16;
    const std::uint64_t id = event & 0xffff;
    Slot& slot = slots_[(id * 2654435761ULL + time) & (slots_.size() - 1)];
    const std::uint64_t r = NextRandom();
    if ((r & 1) != 0) {
      slot.a += static_cast<double>(r & 0xff) * 0.5;
    } else {
      slot.b = slot.a * 0.75 + 1.0;
    }
    ++slot.n;
    checksum_ += slot.n;
    heap_.push_back(((time + 1 + (r >> 40) % 997) << 16) | id);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  return checksum_;
}

double ReferenceKernel::NsPerStep(int steps) {
  if (steps < 1) {
    throw BenchError("reference kernel: steps must be >= 1");
  }
  Run(64);
  const auto begin = std::chrono::steady_clock::now();
  Run(steps);
  const auto end = std::chrono::steady_clock::now();
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
                                 .count()) /
         steps;
}

double RefSeconds(double host_seconds, double ns_per_step, std::string_view what) {
  // Host nanoseconds over nanoseconds per step are reference steps.
  return Rate(host_seconds * 1e9 / kRefStepsPerRefSecond, ns_per_step, what);
}

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    throw BenchError("median of no samples");
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2.0;
}

double Rate(double work, double seconds, std::string_view what) {
  if (!(work > 0.0) || !(seconds > 0.0) || !std::isfinite(work) || !std::isfinite(seconds)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.*s: no rate from work %g over %g s",
                  static_cast<int>(what.size()), what.data(), work, seconds);
    throw BenchError(buf);
  }
  return work / seconds;
}

double Ratio(double part, double whole, std::string_view what) {
  if (!(whole > 0.0) || !(part >= 0.0) || !std::isfinite(part) || !std::isfinite(whole)) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.*s: no ratio of %g to %g", static_cast<int>(what.size()),
                  what.data(), part, whole);
    throw BenchError(buf);
  }
  return part / whole;
}

std::size_t SamplesBeyond(std::size_t n, double p) {
  if (n == 0) {
    return 0;
  }
  const double position = p / 100.0 * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::size_t>(std::floor(position));
}

double TailPercentile(std::vector<double> samples, double p, std::string_view what,
                      std::size_t min_beyond) {
  const std::string name(what);
  if (SamplesBeyond(samples.size(), p) < min_beyond) {
    throw BenchError(name + ": " + std::to_string(samples.size()) + " samples leave fewer than " +
                     std::to_string(min_beyond) + " beyond p" + std::to_string(p));
  }
  for (const double sample : samples) {
    if (!(sample > 0.0)) {
      throw BenchError(name + ": a sample is not positive");
    }
  }
  return pdpa::Percentile(std::move(samples), p);
}

Quartiles QuartilesOf(std::vector<double> samples) {
  if (samples.empty()) {
    throw BenchError("quartiles of no samples");
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  if (n == 1) {
    return {samples[0], samples[0], samples[0]};
  }
  // statistics.quantiles(data, n=4, method="exclusive").
  double cut[3] = {0.0, 0.0, 0.0};
  const std::size_t m = n + 1;
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (samples[j - 1] * (4.0 - delta) + samples[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

std::uint64_t Fnv1a(std::string_view data, std::uint64_t state) {
  for (const char c : data) {
    state ^= static_cast<unsigned char>(c);
    state *= 1099511628211ULL;
  }
  return state;
}

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

namespace {

// Calls fn(line) for each line of text, newline included.
template <typename Fn>
void ForEachLine(std::string_view text, Fn&& fn) {
  while (!text.empty()) {
    const std::size_t end = text.find('\n');
    const std::size_t length = end == std::string_view::npos ? text.size() : end + 1;
    fn(text.substr(0, length));
    text.remove_prefix(length);
  }
}

}  // namespace

LineHashes::LineHashes(std::string_view text) {
  ForEachLine(text, [this](std::string_view line) { hashes_.push_back(Fnv1a(line)); });
}

std::size_t LineHashes::FirstDifferentLine(std::string_view text) const {
  std::size_t line = 0;
  std::size_t first_different = 0;
  ForEachLine(text, [&](std::string_view content) {
    if (first_different == 0 && (line >= hashes_.size() || hashes_[line] != Fnv1a(content))) {
      first_different = line + 1;
    }
    ++line;
  });
  if (first_different == 0 && line != hashes_.size()) {
    first_different = line + 1;
  }
  return first_different;
}

std::string LineOf(std::string_view text, std::size_t line) {
  std::string found = "<end of text>";
  std::size_t number = 0;
  ForEachLine(text, [&](std::string_view content) {
    if (++number == line) {
      if (!content.empty() && content.back() == '\n') {
        content.remove_suffix(1);
      }
      found = std::string(content);
    }
  });
  return found;
}

int SpanLog::Add(std::string name, long long start_ns, long long end_ns, int parent,
                 long long cell) {
  spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, cell});
  return static_cast<int>(spans_.size()) - 1;
}

long long SpanLog::SelfNs(int id) const {
  const Span& span = spans_.at(static_cast<std::size_t>(id));
  long long self = span.end_ns - span.start_ns;
  for (const Span& child : spans_) {
    if (child.parent == id) {
      self -= child.end_ns - child.start_ns;
    }
  }
  return self;
}

long long SpanLog::TotalNs(std::string_view name) const {
  long long total = 0;
  for (const Span& span : spans_) {
    if (span.name == name) {
      total += span.end_ns - span.start_ns;
    }
  }
  return total;
}

std::string SpanLog::ToJsonl() const {
  std::string out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                  "\"cell\":%lld,\"self_ns\":%lld}\n",
                  i, s.name.c_str(), s.start_ns, s.end_ns, s.parent, s.cell,
                  SelfNs(static_cast<int>(i)));
    out += buf;
  }
  return out;
}

}  // namespace perfbench
