// Structured scheduler event log — the "flight recorder" half of src/obs/.
//
// Every interesting decision in the stack (job lifecycle, PDPA automaton
// transitions with their measured efficiency, per-quantum allocation plans,
// ML admission holds, CPU handoffs, runtime performance reports) is emitted
// as one flat JSON object per line (JSONL). Records are stamped exclusively
// with *simulation* time (integer microseconds, field "t_us"), never wall
// clock, so two identical runs produce byte-identical logs — the property
// the determinism golden test asserts.
//
// The log is an optional, non-owning sink: a null/absent EventLog makes
// every emitter a no-op, so instrumented hot paths cost one pointer test
// when recording is off.
//
// Serialization fast path (DESIGN.md §9): each record is formatted into a
// reusable scratch buffer (append-to-buffer number formatters from
// src/common/fmt.h, no per-field temporaries) and handed to a 64 KiB
// BufWriter, so steady-state emission performs zero heap allocations and
// one ostream write per ~64 KiB. The small fixed vocabulary of event-type
// and app-class names is interned as pre-escaped JSON literals. Bytes are
// identical to the original StrFormat path, which survives as
// internal::LegacyJsonObjectWriter behind a test-only flag for the golden
// byte-identity fixture and the serialization A/B bench. Readers of a
// captured ostringstream must call Flush() first while the log is alive.
#ifndef SRC_OBS_EVENT_LOG_H_
#define SRC_OBS_EVENT_LOG_H_

#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/bufwriter.h"
#include "src/common/ids.h"
#include "src/common/mutex.h"
#include "src/common/time_types.h"
#include "src/obs/prof.h"

namespace pdpa {

// A string from a small fixed vocabulary, cached with its JSON-escaped
// quoted form so hot emitters skip the escape loop. Both views point into
// a StringInterner and stay valid for the interner's lifetime.
struct InternedString {
  std::string_view raw;
  std::string_view escaped;  // includes surrounding quotes
};

// Caches the JSON-escaped form of each distinct string it sees. Node-based
// map storage keeps the returned views stable across later insertions.
class StringInterner {
 public:
  InternedString Intern(std::string_view raw);

 private:
  std::map<std::string, std::string, std::less<>> table_;
};

// Appends JSON string-literal escapes of `text` (with surrounding quotes)
// to *out, allocation-free apart from buffer growth.
void JsonEscapeTo(std::string* out, std::string_view text);

// Escapes `text` as a JSON string literal (with surrounding quotes).
std::string JsonEscape(std::string_view text);

// Builds one flat JSON object ({"key":value,...}) by appending into a
// caller-provided buffer — typically a reusable scratch string, so writing
// a record allocates nothing. Keys are emitted in call order; values are
// escaped strings or numbers formatted deterministically (doubles use the
// "%.10g" contract, see src/common/fmt.h).
class JsonObjectWriter {
 public:
  explicit JsonObjectWriter(std::string* out) : out_(out) { out_->push_back('{'); }

  JsonObjectWriter& Field(std::string_view key, std::string_view value);
  JsonObjectWriter& Field(std::string_view key, const char* value);
  JsonObjectWriter& Field(std::string_view key, InternedString value);
  JsonObjectWriter& Field(std::string_view key, long long value);
  JsonObjectWriter& Field(std::string_view key, unsigned long long value);
  JsonObjectWriter& Field(std::string_view key, int value);
  JsonObjectWriter& Field(std::string_view key, bool value);
  JsonObjectWriter& Field(std::string_view key, double value);

  // Closes the object in the buffer. The writer is single-use.
  void Finish() { out_->push_back('}'); }

 private:
  void Key(std::string_view key);

  std::string* out_;
  bool first_ = true;
};

namespace internal {

// The pre-fast-path serializer, byte for byte: builds its own std::string
// via snprintf-backed StrFormat with one temporary per field. Kept only so
// the golden fixture and serialization_bench can A/B the fast path against
// the original allocation behavior; production code must not use it.
class LegacyJsonObjectWriter {
 public:
  LegacyJsonObjectWriter& Field(std::string_view key, std::string_view value);
  LegacyJsonObjectWriter& Field(std::string_view key, const char* value);
  LegacyJsonObjectWriter& Field(std::string_view key, InternedString value) {
    return Field(key, value.raw);
  }
  LegacyJsonObjectWriter& Field(std::string_view key, long long value);
  LegacyJsonObjectWriter& Field(std::string_view key, unsigned long long value);
  LegacyJsonObjectWriter& Field(std::string_view key, int value);
  LegacyJsonObjectWriter& Field(std::string_view key, bool value);
  LegacyJsonObjectWriter& Field(std::string_view key, double value);

  // Returns the closed object. The writer is single-use.
  std::string Finish();

 private:
  void Key(std::string_view key);

  std::string body_ = "{";
  bool first_ = true;
};

}  // namespace internal

// Parses one flat JSON object line (as produced by EventLog) into
// field -> raw value. String values are unescaped; numbers/bools keep their
// textual form. Returns false on malformed input. Nested objects/arrays are
// not supported — the event schema is deliberately flat.
bool ParseFlatJson(std::string_view line, std::map<std::string, std::string>* fields);

// Merges per-stream JSONL event logs into one stream, stably ordered by
// (t_us, stream index, line order within the stream). Each input must be
// individually time-monotone — true of every EventLog sink, which the
// cluster engine relies on: stream 0 is the controller log and stream k+1
// is node k, so equal-time records sort controller-first then by node
// index. Records without a "t_us" field (run_start) sort as t=0.
std::string MergeEventStreams(const std::vector<std::string>& streams);

class EventLog {
 public:
  // `out` is borrowed and must outlive the log; null disables recording.
  explicit EventLog(std::ostream* out);

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Flushes to the old sink, then rebinds the log to `out` (null disables)
  // and zeroes lines_written(). The string interner — and with it the
  // already-escaped vocabulary — is kept, which is what makes per-worker
  // EventLog reuse across sweep cells cheaper than reconstruction. Interned
  // views stay content-deterministic, so reuse cannot change output bytes.
  void Reset(std::ostream* out);

  bool enabled() const { return out_ != nullptr; }
  long long lines_written() const { return lines_; }

  // Pushes buffered bytes through to the sink. Must be called before
  // reading a captured ostringstream while the log is still alive (the
  // destructor also flushes).
  void Flush() {
    if (out_ != nullptr) {
      ProfScope prof_scope(profiler_, SpanId::kObsFlush);
      writer_.Flush();
    }
  }

  // Borrowed host-time profiler; null (the default) disables span timing.
  // When set, every serialized record is wrapped in an obs.serialize span
  // and Flush in an obs.flush span.
  void set_profiler(Profiler* profiler) { profiler_ = profiler; }

  // Test-only: route every record through the retained PR-4 serializer
  // (per-field StrFormat temporaries, unbuffered per-line ostream writes)
  // so golden fixtures and benches can compare it against the fast path.
  void set_legacy_serialization_for_test(bool legacy) { legacy_for_test_ = legacy; }

  // Cluster mode: tag every typed record with a trailing "node":K field so
  // merged per-node streams stay attributable. Negative (the default)
  // leaves output bytes exactly as before — single-machine runs are
  // unaffected. Does not apply to the raw Emit() escape hatch.
  void set_node_tag(int node) { node_tag_ = node; }

  // --- Typed emitters -----------------------------------------------------
  // One experiment begins; no timestamp on purpose (always t=0).
  void RunStart(std::string_view policy, std::string_view workload, double load,
                unsigned long long seed, int cpus);
  void RunEnd(SimTime t, int jobs, bool completed);

  void JobSubmit(SimTime t, JobId job, std::string_view app_class, int request, bool rigid);
  void JobStart(SimTime t, JobId job, std::string_view app_class, int request, int alloc,
                int running, int queued);
  void JobFinish(SimTime t, JobId job, SimTime submit, SimTime start);

  // The queuing system wanted to start a job but the policy (or a rigid
  // hold) refused: the ML coordination said no.
  void AdmitHold(SimTime t, int running, int queued, int free_cpus);

  // A SelfAnalyzer measurement reached the resource manager.
  void PerfSample(SimTime t, JobId job, int procs, double speedup, double efficiency);

  // One PDPA automaton evaluation: `from`/`to` are state names, `trigger`
  // is "start" | "report" | "free_capacity". Self-transitions are recorded
  // too (changed=false) so timelines show every evaluation.
  void PdpaTransition(SimTime t, JobId job, const char* from, const char* to, int from_alloc,
                      int to_alloc, double speedup, double efficiency, double target_eff,
                      const char* trigger);

  // The RM applied an allocation plan. `plan` is "job:cpus job:cpus ...".
  void AllocDecision(SimTime t, const char* trigger, const std::string& plan);

  // Concrete CPU ownership changes from one ApplyAllocation/ReleaseJob.
  void CpuHandoffs(SimTime t, int moved, int migrations);

  // Escape hatch for events without a dedicated emitter; `json_line` must be
  // one complete flat JSON object (no trailing newline).
  void Emit(const std::string& json_line);

 private:
  // Interns the fixed event-type vocabulary (construction and Reset).
  void InternTypes();

  // Shared emit shell: `fill` applies the record's .Field(...) chain to
  // whichever serializer is active (fast buffer writer or retained legacy
  // writer), so each typed emitter states its schema exactly once.
  template <typename Fn>
  void EmitRecord(Fn&& fill) {
    if (out_ == nullptr) {
      return;
    }
    ProfScope prof_scope(profiler_, SpanId::kObsSerialize);
    confinement_.AssertConfined("EventLog");
    if (legacy_for_test_) {
      internal::LegacyJsonObjectWriter writer;
      fill(writer);
      if (node_tag_ >= 0) {
        writer.Field("node", node_tag_);
      }
      *out_ << writer.Finish() << '\n';
    } else {
      scratch_.clear();
      JsonObjectWriter writer(&scratch_);
      fill(writer);
      if (node_tag_ >= 0) {
        writer.Field("node", node_tag_);
      }
      writer.Finish();
      scratch_.push_back('\n');
      writer_.Append(scratch_);
    }
    ++lines_;
  }

  std::ostream* out_;
  BufWriter writer_;
  std::string scratch_;
  StringInterner interner_;
  // The fixed event-type vocabulary, interned once at construction.
  InternedString type_run_start_, type_run_end_, type_job_submit_, type_job_start_,
      type_job_finish_, type_admit_hold_, type_perf_sample_, type_pdpa_transition_,
      type_alloc_decision_, type_cpu_handoffs_;
  long long lines_ = 0;
  bool legacy_for_test_ = false;
  int node_tag_ = -1;
  Profiler* profiler_ = nullptr;
  // The log is not mutex-protected by design: every EventLog belongs to one
  // run and is only written by the thread driving that run (the sweep engine
  // gives each cell a private sink). Audit builds enforce that confinement.
  ThreadConfinementChecker confinement_;
};

}  // namespace pdpa

#endif  // SRC_OBS_EVENT_LOG_H_
