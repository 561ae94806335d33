// Shared helpers for the figure/table reproduction binaries: run one
// workload across policies and loads, print the paper-shaped rows.
#ifndef BENCH_BENCH_UTIL_H_
#define BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/common/flags.h"
#include "src/common/stats.h"
#include "src/workload/experiment.h"

namespace pdpa {

// Flag contract of the BENCH_*.json tools, checked once every flag has been
// read and before any work starts: an unknown flag or a malformed value is
// a usage error (exit 2), not a silent run with defaults.
inline bool FlagsValid(const FlagSet& flags) {
  for (const std::string& unknown : flags.UnconsumedFlags()) {
    std::fprintf(stderr, "unknown flag --%s (see --help)\n", unknown.c_str());
    return false;
  }
  if (flags.had_parse_error()) {
    std::fprintf(stderr, "malformed flag value (see --help)\n");
    return false;
  }
  return true;
}

// Times `body` `repeat` times and returns the median (p50) wall seconds.
// Single samples on 1-CPU CI runners are noise; BENCH_*.json files record
// the median so bench_check can compare runs meaningfully.
template <typename Fn>
double MedianWallSeconds(int repeat, Fn&& body) {
  if (repeat < 1) {
    repeat = 1;
  }
  std::vector<double> walls;
  walls.reserve(static_cast<std::size_t>(repeat));
  for (int i = 0; i < repeat; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    walls.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  return Percentile(std::move(walls), 50.0);
}

inline const std::vector<PolicyKind>& AllPolicies() {
  static const std::vector<PolicyKind> kPolicies = {
      PolicyKind::kIrix, PolicyKind::kEquipartition, PolicyKind::kEqualEfficiency,
      PolicyKind::kPdpa};
  return kPolicies;
}

inline ExperimentConfig MakeConfig(WorkloadId workload, double load, PolicyKind policy,
                                   std::uint64_t seed = 42) {
  ExperimentConfig config;
  config.workload = workload;
  config.load = load;
  config.policy = policy;
  config.seed = seed;
  return config;
}

// Runs workload x {loads} x {policies} and prints, per application class,
// the average response and execution times — the layout of Figs. 4/6/9/10.
inline void RunFigureGrid(const char* title, WorkloadId workload,
                          const std::vector<AppClass>& classes,
                          const std::vector<double>& loads = {0.6, 0.8, 1.0},
                          std::uint64_t seed = 42) {
  std::printf("=== %s ===\n", title);
  std::printf("workload %s; x-axis = machine load; policies: IRIX, Equip, Equal_eff, PDPA\n\n",
              WorkloadName(workload));

  struct Cell {
    ClassMetrics metrics;
    int max_ml = 0;
    bool completed = true;
  };
  // results[policy][load] -> per-class metrics
  std::map<PolicyKind, std::map<double, std::map<AppClass, Cell>>> results;
  for (PolicyKind policy : AllPolicies()) {
    for (double load : loads) {
      const ExperimentResult r = RunExperiment(MakeConfig(workload, load, policy, seed));
      for (const auto& [app_class, metrics] : r.metrics.per_class) {
        results[policy][load][app_class] = Cell{metrics, r.max_ml, r.completed};
      }
    }
  }

  for (AppClass app_class : classes) {
    for (const char* metric : {"response", "execution"}) {
      std::printf("-- avg %s time of %s (seconds) --\n", metric, AppClassName(app_class));
      std::printf("%-12s", "policy\\load");
      for (double load : loads) {
        std::printf(" %8.0f%%", load * 100);
      }
      std::printf("\n");
      for (PolicyKind policy : AllPolicies()) {
        std::printf("%-12s", PolicyKindName(policy));
        for (double load : loads) {
          const auto& cell = results[policy][load][app_class];
          const double value = metric[0] == 'r' ? cell.metrics.avg_response_s
                                                : cell.metrics.avg_exec_s;
          std::printf(" %9.1f", value);
        }
        std::printf("\n");
      }
      std::printf("\n");
    }
  }
}

}  // namespace pdpa

#endif  // BENCH_BENCH_UTIL_H_
