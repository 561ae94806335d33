// Host-time self-profiler — the "where does the wall time go" half of
// src/obs/, layered on the same optional-sink pattern as the flight
// recorder: a null Profiler* makes every ProfScope a no-op costing one
// pointer test, so instrumented hot paths stay free when profiling is off.
//
// Design constraints (DESIGN.md §11):
//   * Zero allocation: spans live on a fixed-size thread-local stack and
//     aggregate into a fixed array indexed by SpanId. Nothing on the enter/
//     exit path touches the heap.
//   * Determinism split: per-span hit counts depend only on the simulated
//     schedule and are byte-reproducible across runs and machines;
//     nanosecond totals are host measurements and are never compared
//     exactly. The two live side by side in SpanStats and every consumer
//     (bench gates, golden tests, merged sweep profiles) must only pin the
//     hit counts.
//   * One sanctioned clock: the monotonic host clock lives behind
//     prof::NowNanos(), implemented in prof.cc — the only translation unit
//     in src/ the pdpa_lint wall-clock rule allows to touch steady_clock.
//     Everything else (sweep host spans, benches that want comparable
//     stamps) calls NowNanos() and stays lint-clean.
//
// A Profiler belongs to one run, exactly like an EventLog: the sweep engine
// gives each cell its own and merges them deterministically in grid order.
// ProfScope itself is thread-compatible — concurrent cells profile into
// disjoint Profilers from their own threads; the thread-local span stack
// keeps parent/child (self-time) attribution per thread.
#ifndef SRC_OBS_PROF_H_
#define SRC_OBS_PROF_H_

#include <array>
#include <string>

namespace pdpa {

namespace prof {

// Monotonic host clock, nanoseconds from an arbitrary epoch. The single
// sanctioned wall-clock source in src/ (see the pdpa_lint wall-clock rule).
long long NowNanos();

}  // namespace prof

// The fixed span vocabulary. Adding a span means adding an enumerator here
// and its name to SpanName() — the table is deliberately closed so span
// records need no string interning and profiles merge index-wise.
enum class SpanId : int {
  kSimEventPush = 0,  // EventQueue::Schedule
  kSimEventPop,       // EventQueue::RunNext (dispatch included as children)
  kRmTick,            // ResourceManager::OnTick (advance + completions)
  kRmQuantum,         // ResourceManager::OnQuantum (the quantum scan)
  kPolicyDecide,      // any SchedulingPolicy decision call
  kObsSerialize,      // EventLog record formatting + buffer append
  kObsFlush,          // EventLog buffered bytes pushed to the sink
  kSweepCell,         // one whole sweep cell (RunExperiment)
  // Cluster controller spans. Their hits are functions of the simulated
  // schedule: one barrier_wait per controller cycle, one drain per drained
  // timestamp, one place per placement.
  kClusterBarrierWait,  // ClusterEngine::AdvanceNodes (node events up to a barrier)
  kClusterDrain,        // ClusterEngine::HandleVisibleBatch (one per timestamp)
  kClusterPlace,        // ClusterEngine::PlaceJob (one per placement)
  kCount,
};

inline constexpr int kNumSpanIds = static_cast<int>(SpanId::kCount);

// Stable dotted name of a span ("rm.tick"), used in tables and prof_span
// JSONL records.
const char* SpanName(SpanId id);

struct SpanStats {
  // Times the span was entered. Deterministic: a function of the simulated
  // schedule only, identical across repeated runs, serial vs parallel
  // sweeps, and machines.
  long long hits = 0;
  // Host nanoseconds inside the span, children included. Nondeterministic.
  long long total_ns = 0;
  // Host nanoseconds minus time spent in child spans on the same thread.
  // Nondeterministic.
  long long self_ns = 0;
};

// Per-run span aggregate. Plain data: copyable, mergeable, no locking (one
// run = one writer thread, the same confinement contract as EventLog).
class Profiler {
 public:
  SpanStats& stats(SpanId id) { return stats_[static_cast<std::size_t>(id)]; }
  const SpanStats& stats(SpanId id) const { return stats_[static_cast<std::size_t>(id)]; }

  // Integer element-wise sums: exact, associative, commutative — merging
  // per-cell profiles in any grouping yields identical hit counts.
  void Merge(const Profiler& other);

  // Sum of hits across all spans (the deterministic half only).
  long long TotalHits() const;

 private:
  std::array<SpanStats, static_cast<std::size_t>(kNumSpanIds)> stats_{};
};

// RAII span: enters on construction, attributes elapsed host time on
// destruction. A null profiler disables the scope entirely (no clock read).
class ProfScope {
 public:
  ProfScope(Profiler* profiler, SpanId id);
  ~ProfScope();

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  Profiler* profiler_;
};

// Appends the human-readable breakdown table (pdpa_sim --prof, pdpa_batch
// --prof): one line per span with hits, total/self milliseconds and mean
// ns/hit. Spans with zero hits are omitted.
void AppendProfTable(const Profiler& profiler, std::string* out);

// Appends the JSONL form (pdpa_sim/pdpa_batch --prof_out): one prof_meta
// header record, then one {"type":"prof_span",...} record per span with
// hits > 0 — flat JSON, readable by ParseFlatJson and pdpa_report.
void AppendProfJsonl(const Profiler& profiler, const char* tool, std::string* out);

}  // namespace pdpa

#endif  // SRC_OBS_PROF_H_
