// bench_check — compare a freshly generated BENCH_*.json against the
// committed baseline and fail on regression.
//
// The BENCH files are flat JSON objects (ParseFlatJson reads them), and the
// metrics fall into four classes:
//   * informational: wall-seconds and rates (hardware-dependent; CI runners
//     are not the machine the baseline was recorded on), plus run-shape
//     fields (jobs, shards, threads, repeat, hardware_concurrency).
//     Reported, never compared.
//   * ratio metrics (name contains "speedup" or "factor"): higher is
//     better and the ratio of two same-machine measurements transfers
//     across hardware, so the fresh value must stay within a relative
//     tolerance *below* the baseline (default 30%, override with --tol).
//   * booleans / strings: exact match (e.g. output_identical must stay
//     true).
//   * everything else (deterministic counts: ticks, cells, events): exact.
// --min imposes absolute floors (e.g. --min events_speedup=2 keeps the
// fast path's ">= 2x" acceptance criterion enforced in CI).
//
// Usage: bench_check BASELINE FRESH [flags]
//   --tol name=frac,...   per-metric relative tolerance (overrides class)
//   --min name=value,...  require fresh[name] >= value
//   --ignore name,...     skip these metrics entirely
//   --help                this text
// Exit: 0 ok, 1 regression, 2 usage/IO/parse error.
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/strings.h"
#include "src/obs/event_log.h"

namespace pdpa {
namespace {

constexpr const char* kUsage = R"(usage: bench_check BASELINE FRESH [flags]

Compares a freshly generated bench JSON against the committed baseline:
deterministic counts and booleans must match exactly, ratio metrics
("speedup"/"factor") may drop at most the relative tolerance below the
baseline, wall-seconds and rates are informational only.

flags:
  --tol name=frac,...   per-metric relative tolerance (e.g. events_speedup=0.5)
  --min name=value,...  require fresh[name] >= value
  --ignore name,...     skip these metrics
  --help                this text
)";

using Fields = std::map<std::string, std::string>;

bool LoadFlatJson(const std::string& path, Fields* fields) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_check: cannot open %s\n", path.c_str());
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  if (!ParseFlatJson(text.str(), fields)) {
    std::fprintf(stderr, "bench_check: %s is not a flat JSON object\n", path.c_str());
    return false;
  }
  // "{}" parses fine but compares everything against nothing — every metric
  // silently passes. A bench that wrote no metrics is a broken run, not a
  // clean one.
  if (fields->empty()) {
    std::fprintf(stderr, "bench_check: %s has no metrics (empty JSON object — truncated bench run?)\n",
                 path.c_str());
    return false;
  }
  // ParseFlatJson keeps JSON null as the literal token "null"; a null metric
  // means the bench aborted mid-write, so refuse to compare against it.
  for (const auto& [name, value] : *fields) {
    if (value == "null") {
      std::fprintf(stderr, "bench_check: %s: metric '%s' is null (bench aborted mid-write?)\n",
                   path.c_str(), name.c_str());
      return false;
    }
  }
  return true;
}

bool Contains(const std::string& name, const char* needle) {
  return name.find(needle) != std::string::npos;
}

bool EndsWith(const std::string& name, const char* suffix) {
  const std::string s(suffix);
  return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
}

// Hardware-dependent or run-shape metrics: reported, never compared.
// skipped_single_cpu is a run-shape fact about the machine (sweep_bench
// omits its parallel A/B on 1-CPU runners), so it can never
// "regress"; jobs/shards/threads are the worker counts those benches sized
// to the runner at hand.
bool IsInformational(const std::string& name) {
  return EndsWith(name, "_wall_s") || EndsWith(name, "_per_s") || name == "jobs" ||
         name == "shards" || name == "threads" || name == "repeat" ||
         name == "hardware_concurrency" || name == "skipped_single_cpu";
}

// Ratio of two same-machine measurements (or a deterministic ratio):
// transfers across hardware, compared as higher-is-better within tolerance.
bool IsRatio(const std::string& name) {
  return Contains(name, "speedup") || Contains(name, "factor");
}

// Parses "name=value,name=value" into the map; returns false on bad syntax.
bool ParseAssignments(const std::string& text, const char* flag,
                      std::map<std::string, double>* out) {
  for (const std::string& token : SplitTokens(text, ',')) {
    const std::size_t eq = token.find('=');
    double value = 0.0;
    if (eq == std::string::npos || !ParseDouble(token.substr(eq + 1), &value)) {
      std::fprintf(stderr, "bench_check: bad --%s entry '%s' (want name=value)\n", flag,
                   token.c_str());
      return false;
    }
    (*out)[token.substr(0, eq)] = value;
  }
  return true;
}

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const std::string tol_text = flags.GetString("tol", "");
  const std::string min_text = flags.GetString("min", "");
  const std::string ignore_text = flags.GetString("ignore", "");
  const std::vector<std::string> inputs = flags.positional();
  for (const std::string& unknown : flags.UnconsumedFlags()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", unknown.c_str());
    return 2;
  }
  if (flags.had_parse_error()) {
    std::fprintf(stderr, "malformed flag value (see --help)\n");
    return 2;
  }
  if (inputs.size() != 2) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  std::map<std::string, double> tolerances;
  std::map<std::string, double> minimums;
  if (!ParseAssignments(tol_text, "tol", &tolerances) ||
      !ParseAssignments(min_text, "min", &minimums)) {
    return 2;
  }
  std::set<std::string> ignored;
  for (const std::string& name : SplitTokens(ignore_text, ',')) {
    ignored.insert(name);
  }

  Fields baseline;
  Fields fresh;
  if (!LoadFlatJson(inputs[0], &baseline) || !LoadFlatJson(inputs[1], &fresh)) {
    return 2;
  }

  int regressions = 0;
  const auto fail = [&regressions](const std::string& name, const char* why,
                                   const std::string& base_text, const std::string& fresh_text) {
    ++regressions;
    std::printf("FAIL %-32s %s (baseline %s, fresh %s)\n", name.c_str(), why, base_text.c_str(),
                fresh_text.c_str());
  };

  // A fresh run flagged skipped_single_cpu legitimately omits its parallel
  // A/B metrics: a baseline recorded on a multi-core machine then has fields
  // a 1-CPU runner cannot produce. Tolerate those as skips, not regressions.
  const auto skipped_it = fresh.find("skipped_single_cpu");
  const bool fresh_skipped = skipped_it != fresh.end() && skipped_it->second == "true";

  for (const auto& [name, base_text] : baseline) {
    if (ignored.contains(name)) {
      std::printf("skip %-32s (--ignore)\n", name.c_str());
      continue;
    }
    const auto it = fresh.find(name);
    if (it == fresh.end()) {
      if (fresh_skipped) {
        std::printf("skip %-32s (fresh run skipped on single CPU)\n", name.c_str());
      } else {
        fail(name, "missing from fresh run", base_text, "<absent>");
      }
      continue;
    }
    const std::string& fresh_text = it->second;
    double base_value = 0.0;
    double fresh_value = 0.0;
    const bool numeric =
        ParseDouble(base_text, &base_value) && ParseDouble(fresh_text, &fresh_value);
    if (IsInformational(name)) {
      std::printf("info %-32s baseline %s, fresh %s\n", name.c_str(), base_text.c_str(),
                  fresh_text.c_str());
      continue;
    }
    if (!numeric) {
      if (base_text != fresh_text) {
        fail(name, "value changed", base_text, fresh_text);
      } else {
        std::printf("ok   %-32s %s\n", name.c_str(), base_text.c_str());
      }
      continue;
    }
    const auto tol_it = tolerances.find(name);
    if (IsRatio(name) || tol_it != tolerances.end()) {
      const double tol = tol_it != tolerances.end() ? tol_it->second : 0.30;
      if (fresh_value < base_value * (1.0 - tol)) {
        fail(name, "dropped below tolerance", base_text, fresh_text);
      } else {
        std::printf("ok   %-32s baseline %s, fresh %s (tol %.0f%%)\n", name.c_str(),
                    base_text.c_str(), fresh_text.c_str(), tol * 100.0);
      }
      continue;
    }
    if (base_value != fresh_value) {  // lint: float-eq-ok — exact contract
      fail(name, "deterministic value changed", base_text, fresh_text);
    } else {
      std::printf("ok   %-32s %s\n", name.c_str(), base_text.c_str());
    }
  }
  for (const auto& [name, value] : minimums) {
    const auto it = fresh.find(name);
    double fresh_value = 0.0;
    if (it == fresh.end() || !ParseDouble(it->second, &fresh_value)) {
      fail(name, "--min metric missing or non-numeric", "<n/a>",
           it == fresh.end() ? "<absent>" : it->second);
      continue;
    }
    if (fresh_value < value) {
      ++regressions;
      std::printf("FAIL %-32s below --min %g (fresh %s)\n", name.c_str(), value,
                  it->second.c_str());
    } else {
      std::printf("ok   %-32s >= %g (fresh %s)\n", name.c_str(), value, it->second.c_str());
    }
  }
  for (const auto& [name, value] : fresh) {
    if (!baseline.contains(name)) {
      std::printf("new  %-32s %s (not in baseline)\n", name.c_str(), value.c_str());
    }
  }
  if (regressions > 0) {
    std::printf("bench_check: %d regression%s\n", regressions, regressions == 1 ? "" : "s");
    return 1;
  }
  std::printf("bench_check: ok (%zu metrics)\n", baseline.size());
  return 0;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
