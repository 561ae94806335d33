// The rule catalog: ids, one-line summaries (--list-rules), rationale and
// approved escape hatch (--explain). layer-cycle and layer-up are one
// catalog row (one rule family, two finding ids).
#include "tools/lint/lint.h"

namespace pdpa {
namespace lint {

const std::vector<RuleInfo>& RuleCatalog() {
  static const std::vector<RuleInfo>* catalog = new std::vector<RuleInfo>{
      {"wall-clock",
       "no wall-clock/nondeterministic sources in sim code (src/, tools/); "
       "simulation time is the only clock (sanctioned host clock: steady_clock "
       "in src/obs/prof.cc only)",
       "Every headline result is a byte-identity contract (elided == exact, "
       "forked == cold, batched == per-arrival). A single wall-clock read or "
       "rand() call on a sim path makes outputs run-dependent and turns those "
       "golden comparisons into flakes. Simulation time (SimTime) is the only clock; "
       "the one sanctioned host-clock read is steady_clock in src/obs/prof.cc, "
       "the self-profiler's single translation unit.",
       "Per-line `// lint: wall-clock-ok (reason)` for dev-tool paths that "
       "genuinely need the host clock; a counted, expiring waiver in "
       "lint_waivers.txt for whole-file exemptions."},
      {"unordered-iter",
       "no range-for over unordered containers (unspecified order feeds output "
       "or allocation decisions); justify with // lint: ordered-ok",
       "Iteration order of std::unordered_{map,set} is unspecified and varies "
       "across libstdc++ versions and hash seeds. Anything it feeds — CSV rows, "
       "event streams, allocation decisions — becomes nondeterministic. Sort "
       "keys first, or iterate an ordered mirror.",
       "Per-line `// lint: ordered-ok (reason)` when the loop provably cannot "
       "influence output or decisions (e.g. accumulating into a commutative "
       "sum); a waiver in lint_waivers.txt otherwise."},
      {"float-eq",
       "no ==/!= against floating-point literals; use NearlyEqual "
       "(src/common/stats.h) or justify with // lint: float-eq-ok",
       "Exact comparison against a floating-point literal is almost always a "
       "latent bug: the value being compared went through arithmetic whose "
       "rounding differs across optimization levels and platforms.",
       "Use NearlyEqual (src/common/stats.h); `// lint: float-eq-ok (reason)` "
       "for genuine sentinel comparisons (a value assigned, never computed)."},
      {"direct-io",
       "no printf-family calls or std::cout/cerr in src/; use the obs layer or "
       "PDPA_LOG",
       "src/ output goes through the obs layer (EventLog, counters, "
       "TimeSeriesSampler) or PDPA_LOG so recordings stay deterministic, "
       "capturable per-cell, and silenceable. Direct stdout/stderr writes "
       "bypass all three and interleave nondeterministically under the "
       "parallel sweep.",
       "Per-line `// lint: direct-io-ok (reason)` for crash-path diagnostics "
       "that must not depend on live obs state; a waiver in lint_waivers.txt "
       "for whole-file exemptions (see src/common/logging.cc)."},
      {"stream-flush",
       "no std::endl/std::flush in src/; a flush per line is a syscall per line "
       "and defeats BufWriter — write '\\n' and Flush() once",
       "std::endl flushes the stream every line: a syscall per line, which "
       "defeats BufWriter's 64 KiB batching and dominated serialization cost "
       "before the PR 6 fast path. Write '\\n' and Flush() once at the end.",
       "Per-line `// lint: stream-flush-ok (reason)` when an intermediate "
       "flush is load-bearing (handing a buffer to another process)."},
      {"layer-cycle/layer-up",
       "src/ #include edges must respect the architecture DAG in "
       "tools/lint/layers.txt: no cycles between directories, no includes of a "
       "higher layer",
       "The architecture is a DAG of src/ subdirectories (tools/lint/layers.txt, "
       "foundation first). An include that reaches up a layer, or a cycle "
       "between directories, couples modules both ways: builds lose their "
       "topological order, and the next subsystem (service daemon, policy zoo) "
       "inherits tangled dependencies. Phase 1 indexes every #include over "
       "src/; this rule fails on any edge that points upward (layer-up) and on "
       "any directory cycle, with the offending path printed (layer-cycle).",
       "Move the shared code down a layer (usually into src/common/ or a new "
       "lower directory), or — if the architecture genuinely changed — update "
       "tools/lint/layers.txt in the same PR and say why in DESIGN.md §8. "
       "`// lint: layer-up-ok (reason)` suppresses a single include line "
       "during a staged refactor; cycles have no per-line escape."},
      {"lock-order",
       "every pdpa::Mutex declares PDPA_LOCK_RANK(n); MutexLock sites must "
       "acquire in strictly increasing rank order (runtime twin: -DPDPA_AUDIT)",
       "Lock-order inversions deadlock only under the interleaving that "
       "exhibits them, so they survive test suites. The repo pins one global "
       "hierarchy: every pdpa::Mutex declares PDPA_LOCK_RANK(n) and chains "
       "must acquire in strictly increasing rank. This rule checks it "
       "statically from the phase-1 mutex inventory and lock-site table; the "
       "-DPDPA_AUDIT build checks the same hierarchy at runtime (thread-local "
       "held-rank stack in src/common/mutex.h) on every executed path, "
       "including manual Lock()/Unlock() pairs token patterns cannot see.",
       "Assign ranks consistent with the acquisition order (table in DESIGN.md "
       "§8) — the annotation is the fix, not a suppression. For a site the "
       "textual held-set over-approximates (guard released early on another "
       "path), `// lint: lock-order-ok (reason)`."},
      {"ptr-taint",
       "no pointer/this/thread-id values reaching deterministic sinks (fmt "
       "appends, JsonObjectWriter, EventLog) or used as ordered-container keys",
       "Pointer values change run to run under ASLR and allocation order. A "
       "pointer (or this, or std::this_thread::get_id(), or std::hash of a "
       "pointer) that reaches a deterministic sink — fmt.h appends, "
       "JsonObjectWriter fields, EventLog records — or that keys an ordered "
       "container (iteration = address order) silently breaks byte-identity. "
       "The classic trap: JsonObjectWriter::Field(\"k\", &x) compiles via the "
       "bool overload and serializes `true`.",
       "Emit a stable id instead (node index, job id, interned name). "
       "`// lint: ptr-taint-ok (reason)` when the value provably never "
       "reaches an output (e.g. a debug-build-only diagnostic)."},
  };
  return *catalog;
}

const RuleInfo* FindRuleInfo(const std::string& id) {
  for (const RuleInfo& rule : RuleCatalog()) {
    if (id == rule.id) {
      return &rule;
    }
  }
  if (id == "layer-cycle" || id == "layer-up") {
    return FindRuleInfo("layer-cycle/layer-up");
  }
  return nullptr;
}

bool IsKnownRuleId(const std::string& id) {
  if (id == "layer-cycle" || id == "layer-up") {
    return true;
  }
  if (id == "layer-cycle/layer-up") {
    return false;  // catalog row, not a finding id
  }
  return FindRuleInfo(id) != nullptr;
}

const std::map<std::string, std::string>& DirectiveTable() {
  static const std::map<std::string, std::string>* table =
      new std::map<std::string, std::string>{
          {"wall-clock-ok", "wall-clock"},     {"ordered-ok", "unordered-iter"},
          {"float-eq-ok", "float-eq"},         {"direct-io-ok", "direct-io"},
          {"stream-flush-ok", "stream-flush"}, {"layer-up-ok", "layer-up"},
          {"lock-order-ok", "lock-order"},     {"ptr-taint-ok", "ptr-taint"},
      };
  return *table;
}

bool FindingBefore(const Finding& a, const Finding& b) {
  if (a.file != b.file) {
    return a.file < b.file;
  }
  if (a.line != b.line) {
    return a.line < b.line;
  }
  if (a.rule != b.rule) {
    return a.rule < b.rule;
  }
  return a.message < b.message;
}

}  // namespace lint
}  // namespace pdpa
