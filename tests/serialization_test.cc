// Serialization fast-path tests (DESIGN.md §9): the byte contract of every
// sink and the costs that make the fast path fast.
//
//   1. the fmt.h number formatters are byte-identical to the snprintf
//      contracts the sinks have always used ("%lld"/"%llu"/"%.Ng"/"%.Nf"),
//      asserted over an exhaustive-edge + deterministic-random corpus;
//   2. the JSON escape table round-trips every byte through
//      JsonEscape/ParseFlatJson, including the \u00XX control-range;
//   3. every sink (event JSONL, time-series CSV, sweep CSV, Paraver .prv)
//      reproduces the committed goldens in tests/golden/ on live simulation
//      data (see tests/golden.h for the update workflow);
//   4. steady-state event emission makes no heap allocation, and every sink
//      hands its stream one write per 64 KiB buffer.
// Plus BufWriter unit coverage (spill, oversized record, dtor flush).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <new>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "src/common/bufwriter.h"
#include "src/common/fmt.h"
#include "src/common/strings.h"
#include "src/obs/counters.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"
#include "src/trace/paraver_writer.h"
#include "src/trace/trace_recorder.h"
#include "src/workload/experiment.h"
#include "src/workload/sweep.h"
#include "tests/golden.h"

// Heap allocations are counted by replacing the global operator new; the
// counter only runs inside an AllocationWindow, so gtest's own bookkeeping
// outside the measured code is never counted.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<long long> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler pairs call sites with operator new rather
// than with the free() inside.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t /*size*/) noexcept { std::free(p); }

namespace pdpa {
namespace {

// Counts the heap allocations made between construction and Count().
class AllocationWindow {
 public:
  AllocationWindow() {
    g_allocations.store(0);
    g_counting.store(true);
  }
  ~AllocationWindow() { g_counting.store(false); }
  long long Count() const {
    g_counting.store(false);
    return g_allocations.load();
  }
};

// ------------------------------------------------------------ fmt golden

// Deterministic 64-bit generator (xorshift*): the corpus must be identical
// on every run, everywhere — no std::random device/seed variation.
class DeterministicBits {
 public:
  std::uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545F4914F6CDD1DULL;
  }

 private:
  std::uint64_t state_ = 0x9E3779B97F4A7C15ULL;
};

std::vector<long long> IntCorpus() {
  std::vector<long long> corpus = {
      0,
      1,
      -1,
      7,
      -42,
      std::numeric_limits<long long>::max(),
      std::numeric_limits<long long>::min(),
      std::numeric_limits<int>::max(),
      std::numeric_limits<int>::min(),
  };
  long long p = 1;
  for (int i = 0; i < 18; ++i) {
    p *= 10;
    corpus.push_back(p);
    corpus.push_back(p - 1);
    corpus.push_back(-p);
    corpus.push_back(-p + 1);
  }
  DeterministicBits bits;
  for (int i = 0; i < 20000; ++i) {
    corpus.push_back(static_cast<long long>(bits.Next()));
  }
  return corpus;
}

std::vector<double> DoubleCorpus() {
  std::vector<double> corpus = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      2.0 / 3.0,
      1e-3,
      123.456,
      1e10,
      1.0 / 3.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),          // smallest normal
      std::numeric_limits<double>::denorm_min(),   // smallest subnormal
      std::numeric_limits<double>::epsilon(),
  };
  for (int e = -30; e <= 30; ++e) {
    corpus.push_back(std::pow(10.0, e));
    corpus.push_back(-std::pow(10.0, e) * 1.2345678901);
  }
  DeterministicBits bits;
  for (int i = 0; i < 20000; ++i) {
    // Raw bit patterns: exercises subnormals, NaN payloads, both signs.
    double value = 0.0;
    const std::uint64_t pattern = bits.Next();
    std::memcpy(&value, &pattern, sizeof(value));
    corpus.push_back(value);
    // And values in the ranges the sinks actually emit.
    corpus.push_back(static_cast<double>(pattern % 1000000) / 997.0);
  }
  return corpus;
}

TEST(FmtGoldenTest, AppendIntMatchesStrFormatLld) {
  std::string got;
  for (const long long value : IntCorpus()) {
    got.clear();
    AppendInt(&got, value);
    ASSERT_EQ(got, StrFormat("%lld", value));
  }
}

TEST(FmtGoldenTest, AppendUintMatchesStrFormatLlu) {
  std::string got;
  for (const long long value : IntCorpus()) {
    const unsigned long long u = static_cast<unsigned long long>(value);
    got.clear();
    AppendUint(&got, u);
    ASSERT_EQ(got, StrFormat("%llu", u));
  }
}

TEST(FmtGoldenTest, AppendGeneralMatchesStrFormatG) {
  const std::vector<double> corpus = DoubleCorpus();
  std::string got;
  for (const int precision : {1, 2, 6, 10, 17}) {
    const std::string spec = StrFormat("%%.%dg", precision);
    for (const double value : corpus) {
      got.clear();
      AppendGeneral(&got, value, precision);
      ASSERT_EQ(got, StrFormat(spec.c_str(), value))
          << "precision " << precision << " value bits " << StrFormat("%a", value);
    }
  }
}

TEST(FmtGoldenTest, AppendFixedMatchesStrFormatF) {
  const std::vector<double> corpus = DoubleCorpus();
  std::string got;
  for (const int precision : {0, 2, 3, 6}) {
    const std::string spec = StrFormat("%%.%df", precision);
    for (const double value : corpus) {
      // Fixed notation of huge magnitudes prints hundreds of digits; the
      // sinks only ever use %f for times/loads. Keep the corpus in range.
      if (std::isfinite(value) && std::abs(value) > 1e15) {
        continue;
      }
      got.clear();
      AppendFixed(&got, value, precision);
      ASSERT_EQ(got, StrFormat(spec.c_str(), value))
          << "precision " << precision << " value bits " << StrFormat("%a", value);
    }
  }
}

TEST(FmtGoldenTest, DefaultGeneralPrecisionIsTen) {
  std::string got;
  AppendGeneral(&got, 2.0 / 3.0);
  EXPECT_EQ(got, StrFormat("%.10g", 2.0 / 3.0));
}

// --------------------------------------------------------- escape table

TEST(JsonEscapeTest, FullEscapeTableRoundTripsThroughParse) {
  // Every byte 0x00..0x7F plus a multi-byte UTF-8 sample; the escape table
  // must emit the short forms for the named controls, \u00XX for the rest
  // of the control range, and pass everything else through.
  std::string raw;
  for (int c = 0; c < 0x80; ++c) {
    raw.push_back(static_cast<char>(c));
  }
  raw += "π … \xC3\xA9";  // multi-byte sequences pass through untouched

  const std::string escaped = JsonEscape(raw);
  EXPECT_TRUE(escaped.find("\\u0000") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\u001f") != std::string::npos);
  // \b and \f take the \u00XX form — the escape table's short forms are
  // only \" \\ \n \r \t, and the byte contract pins it that way.
  EXPECT_TRUE(escaped.find("\\u0008") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\u000c") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\n") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\r") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\t") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\\"") != std::string::npos);
  EXPECT_TRUE(escaped.find("\\\\") != std::string::npos);
  // No raw control bytes may survive escaping.
  for (char c : escaped) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
  }

  std::string line;
  JsonObjectWriter writer(&line);
  writer.Field("payload", raw);
  writer.Finish();
  std::map<std::string, std::string> fields;
  ASSERT_TRUE(ParseFlatJson(line, &fields));
  EXPECT_EQ(fields["payload"], raw);
}

TEST(JsonEscapeTest, JsonEscapeToAppendsIdenticalBytes) {
  const std::string raw = "a\"b\\c\nd\x01";
  std::string appended = "prefix:";
  JsonEscapeTo(&appended, raw);
  EXPECT_EQ(appended, "prefix:" + JsonEscape(raw));
}

TEST(JsonEscapeTest, WriterBytesMatchGolden) {
  std::string raw;
  for (int c = 1; c < 0x80; ++c) {
    raw.push_back(static_cast<char>(c));
  }
  std::string line;
  JsonObjectWriter writer(&line);
  writer.Field("s", raw).Field("n", 42).Field("d", 1.0 / 3.0).Field("b", true);
  writer.Finish();
  EXPECT_TRUE(MatchesGolden(line, "json_writer_escapes.json"));
}

// ------------------------------------------------------------- BufWriter

TEST(BufWriterTest, SmallAppendsReachSinkOnFlush) {
  std::ostringstream sink;
  BufWriter writer(&sink);
  writer.Append("hello");
  writer.Append(' ');
  writer.Append("world");
  EXPECT_EQ(sink.str(), "");  // still buffered
  writer.Flush();
  EXPECT_EQ(sink.str(), "hello world");
  EXPECT_EQ(writer.bytes_written(), 11u);
}

TEST(BufWriterTest, SpillsAtBufferBoundaryWithoutByteLoss) {
  std::ostringstream sink;
  std::string expected;
  {
    BufWriter writer(&sink);
    const std::string chunk(1000, 'x');
    for (int i = 0; i < 200; ++i) {  // 200 KB through a 64 KiB buffer
      std::string record = chunk;
      record[0] = static_cast<char>('a' + i % 26);
      writer.Append(record);
      expected += record;
    }
    EXPECT_EQ(writer.bytes_written(), expected.size());
  }  // destructor flushes the tail
  EXPECT_EQ(sink.str(), expected);
}

TEST(BufWriterTest, OversizedRecordBypassesBuffer) {
  std::ostringstream sink;
  BufWriter writer(&sink);
  writer.Append("head:");
  const std::string big(BufWriter::kBufferSize * 2, 'y');
  writer.Append(big);
  // The oversized record cannot fit the buffer, so it (and the bytes queued
  // before it) must already be in the sink without an explicit Flush.
  EXPECT_EQ(sink.str(), "head:" + big);
}

TEST(BufWriterTest, NullSinkDiscardsQuietly) {
  BufWriter writer(nullptr);
  writer.Append("dropped");
  writer.Flush();
  EXPECT_EQ(writer.bytes_written(), 0u);
}


// ------------------------------------------------ end-to-end byte goldens

// The W1 @ 1.0 s42 recordings each sink writes on a live run, pinned by
// length + FNV-1a (about 0.5 MB of events and 1.1 MB of time-series).
std::string LiveRunDigests(PolicyKind policy) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW1;
  config.load = 1.0;
  config.seed = 42;
  config.policy = policy;

  std::ostringstream events_stream;
  EventLog events(&events_stream);
  TimeSeriesSampler timeseries;
  config.event_log = &events;
  config.timeseries = &timeseries;
  (void)RunExperiment(config);
  events.Flush();
  std::ostringstream csv;
  timeseries.WriteCsv(csv);
  return DigestLine("events", events_stream.str()) + DigestLine("timeseries", csv.str());
}

class SerializationGoldenTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(SerializationGoldenTest, LiveRunEventsAndTimeseriesAreByteIdentical) {
  const std::string name = StrFormat("live_w1_1.00_%s_s42.fnv", PolicyKindName(GetParam()));
  EXPECT_TRUE(MatchesGolden(LiveRunDigests(GetParam()), name));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SerializationGoldenTest,
                         ::testing::Values(PolicyKind::kPdpa, PolicyKind::kEquipartition),
                         [](const ::testing::TestParamInfo<PolicyKind>& param_info) {
                           return std::string(PolicyKindName(param_info.param));
                         });

TEST(SerializationGoldenTest, SweepCsvMatchesGoldenIncludingAggregates) {
  const SweepGrid grid = SweepGoldenGrid();
  SweepOptions capture;
  capture.jobs = 1;
  capture.capture_events = true;
  capture.capture_timeseries = true;
  const std::vector<SweepCellResult> results = RunSweep(grid, capture);

  std::string digests;
  for (const SweepCellResult& r : results) {
    ASSERT_FALSE(r.events_jsonl.empty()) << r.cell.name;
    digests += DigestLine(r.cell.name + ".events", r.events_jsonl);
    digests += DigestLine(r.cell.name + ".timeseries", r.timeseries_csv);
  }
  EXPECT_TRUE(MatchesGolden(digests, "sweep_w1_cells.fnv"));

  // The replica rows and the mean/p50/p95 aggregate rows (3 seeds make the
  // percentiles non-trivial), committed byte for byte.
  std::ostringstream csv;
  SweepCsv(results, grid.seeds.size(), csv);
  EXPECT_TRUE(MatchesGolden(csv.str(), kSweepCsvGolden));
}

TEST(SerializationGoldenTest, ParaverTraceMatchesGolden) {
  TraceRecorder recorder(4);
  // A deterministic ownership history with handoffs, idle gaps, and enough
  // ticks to sample the grid several times.
  for (int step = 0; step < 40; ++step) {
    const SimTime now = step * 100 * kMillisecond;
    recorder.Tick(now);
    if (step % 4 == 0) {
      const int cpu = step % 4;
      const JobId from = step % 8 == 0 ? kIdleJob : static_cast<JobId>(step % 3);
      const JobId to = static_cast<JobId>((step + 1) % 3);
      recorder.OnHandoff(now, CpuHandoff{cpu, from, to});
    }
  }
  recorder.Finalize(40 * 100 * kMillisecond);

  std::ostringstream prv;
  WriteParaverTrace(recorder, /*num_jobs=*/3, prv);
  EXPECT_TRUE(MatchesGolden(prv.str(), "paraver_4cpu.prv"));
}

// ------------------------------------------- allocation and write counts
//
// The properties that make the fast path fast, counted rather than timed so
// they hold on any host: steady-state emission allocates nothing, and the
// sink sees one write per 64 KiB buffer instead of one per record.

// Discards everything; counts write calls and bytes.
class CountingBuf : public std::streambuf {
 public:
  long long writes() const { return writes_; }
  long long bytes() const { return bytes_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      ++writes_;
      ++bytes_;
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    ++writes_;
    bytes_ += n;
    return n;
  }

 private:
  long long writes_ = 0;
  long long bytes_ = 0;
};

long long WriteBound(long long bytes) {
  const long long buffer = static_cast<long long>(BufWriter::kBufferSize);
  return (bytes + buffer - 1) / buffer + 1;
}

// A deterministic 8-event cycle over the typed emitters, numeric content
// varying per iteration so the number formatters see a spread of values.
void EmitMix(EventLog* log, long long events) {
  log->RunStart("PDPA", "w1", 1.0, 42, 60);
  static const std::string plan = "1:8 2:8 3:4 4:12";  // built once, outside any window
  for (long long i = 0; i + 1 < events; ++i) {
    const SimTime t = 20000 * i;
    const JobId job = static_cast<JobId>(i % 40);
    const int procs = static_cast<int>(i % 16) + 1;
    const double speedup = 1.0 + 0.37 * static_cast<double>(i % 29);
    const double eff = speedup / static_cast<double>(4 + i % 13);
    switch (i % 8) {
      case 0:
        log->JobSubmit(t, job, "hydro2d", 24, (i % 5) == 0);
        break;
      case 1:
        log->JobStart(t, job, "hydro2d", 24, procs, static_cast<int>(i % 7),
                      static_cast<int>(i % 3));
        break;
      case 2:
        log->PerfSample(t, job, procs, speedup, eff);
        break;
      case 3:
        log->PdpaTransition(t, job, "NO_REF", "INC", procs - 1, procs + 1, speedup, eff, 0.7,
                            "report");
        break;
      case 4:
        log->AllocDecision(t, "quantum", plan);
        break;
      case 5:
        log->CpuHandoffs(t, static_cast<int>(i % 9), static_cast<int>(i % 4));
        break;
      case 6:
        log->AdmitHold(t, static_cast<int>(i % 7), static_cast<int>(i % 3),
                       static_cast<int>(i % 11));
        break;
      default:
        log->JobFinish(t, job, t / 2, (3 * t) / 4);
        break;
    }
  }
  log->RunEnd(20000 * events, 40, true);
}

TEST(SinkCostTest, EventLogSteadyStateAllocatesNothing) {
  CountingBuf buf;
  std::ostream sink(&buf);
  EventLog log(&sink);
  EmitMix(&log, 1000);  // warm-up: interns the vocabulary
  log.Flush();
  const long long writes_before = buf.writes();
  const long long bytes_before = buf.bytes();

  const AllocationWindow window;
  EmitMix(&log, 400000);
  log.Flush();
  const long long allocations = window.Count();

  const long long writes = buf.writes() - writes_before;
  const long long bytes = buf.bytes() - bytes_before;
  EXPECT_EQ(allocations, 0);
  EXPECT_GT(bytes, 0);
  EXPECT_LE(writes, WriteBound(bytes)) << bytes << " bytes";
}

TEST(SinkCostTest, TimeSeriesCsvAllocatesPerCallNotPerRow) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW1;
  config.load = 1.0;
  config.seed = 42;
  config.policy = PolicyKind::kPdpa;
  TimeSeriesSampler timeseries;
  config.timeseries = &timeseries;
  (void)RunExperiment(config);

  CountingBuf buf;
  std::ostream sink(&buf);
  const AllocationWindow window;
  timeseries.WriteCsv(sink);
  const long long allocations = window.Count();

  // The 64 KiB coalescing buffer and the reused row buffer.
  EXPECT_LE(allocations, 2);
  EXPECT_GT(buf.bytes(), 0);
  EXPECT_LE(buf.writes(), WriteBound(buf.bytes())) << buf.bytes() << " bytes";
}

}  // namespace
}  // namespace pdpa
