// Serialization fast-path microbenchmark: the zero-allocation event-log /
// CSV writers (DESIGN.md §9) against the retained PR-4 baseline
// serializers (per-field StrFormat temporaries, per-line ostream writes).
//
// Part 1 streams a fixed mix of typed events through an EventLog into a
// byte-counting null sink, once per serializer, and reports events/s and
// bytes/s. Part 2 does the same for the time-series CSV writer (rows/s).
// Both paths are also byte-compared on a small sample; any divergence makes
// the bench exit non-zero (the real guarantee lives in
// tests/serialization_test.cc — this is a tripwire).
//
// Wall times are medians over --repeat runs (p50 in the JSON).
//
// Usage: serialization_bench [--events N] [--repeat N]
//                            [--out BENCH_serialization.json]
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>

#include "bench/bench_util.h"
#include "src/common/flags.h"
#include "src/obs/event_log.h"
#include "src/obs/timeseries.h"

namespace pdpa {
namespace {

// Discards everything, counts bytes: measures serialization, not sink I/O.
class CountingBuf : public std::streambuf {
 public:
  unsigned long long count() const { return count_; }

 protected:
  int_type overflow(int_type c) override {
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      ++count_;
    }
    return traits_type::not_eof(c);
  }
  std::streamsize xsputn(const char* /*s*/, std::streamsize n) override {
    count_ += static_cast<unsigned long long>(n);
    return n;
  }

 private:
  unsigned long long count_ = 0;
};

// One run's worth of records: a deterministic 8-event cycle over the typed
// emitters, numeric content varying per iteration so the double/int
// formatters see a spread of values.
void EmitMix(EventLog* log, long long events) {
  log->RunStart("PDPA", "w1", 1.0, 42, 60);
  const std::string plan = "1:8 2:8 3:4 4:12";
  long long emitted = 1;
  for (long long i = 0; emitted < events; ++i) {
    const SimTime t = 20000 * i;
    const JobId job = static_cast<JobId>(i % 40);
    const double speedup = 1.0 + 0.37 * static_cast<double>(i % 29);
    const double eff = speedup / static_cast<double>(4 + i % 13);
    switch (i % 8) {
      case 0:
        log->JobSubmit(t, job, "hydro2d", 24, (i % 5) == 0);
        break;
      case 1:
        log->JobStart(t, job, "hydro2d", 24, static_cast<int>(i % 16) + 1,
                      static_cast<int>(i % 7), static_cast<int>(i % 3));
        break;
      case 2:
        log->PerfSample(t, job, static_cast<int>(i % 16) + 1, speedup, eff);
        break;
      case 3:
        log->PdpaTransition(t, job, "NO_REF", "INC", static_cast<int>(i % 16),
                            static_cast<int>(i % 16) + 2, speedup, eff, 0.7, "report");
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
    ++emitted;
  }
  log->RunEnd(20000 * events, 40, true);
}

struct EventsRun {
  double wall_s = 0.0;
  unsigned long long bytes = 0;
};

EventsRun BenchEvents(bool legacy, long long events, int repeat) {
  EventsRun run;
  run.wall_s = MedianWallSeconds(repeat, [&] {
    CountingBuf buf;
    std::ostream sink(&buf);
    EventLog log(&sink);
    log.set_legacy_serialization_for_test(legacy);
    EmitMix(&log, events);
    log.Flush();
    run.bytes = buf.count();
  });
  return run;
}

void FillSampler(TimeSeriesSampler* sampler, int rows) {
  const char* const kStates[] = {"NO_REF", "INC", "DEC", "STABLE"};
  for (int i = 0; i < rows; ++i) {
    if (i % 5 == 4) {
      sampler->AddMachine({20000LL * i, i % 17, i % 9, i % 4,
                           static_cast<double>(i % 64) / 64.0});
    } else {
      sampler->AddApp({20000LL * i, 20000LL * (i + 1), i % 40,
                       static_cast<double>(1 + i % 16), 1.0 + 0.37 * (i % 29),
                       static_cast<double>(i % 64) / 64.0, kStates[i % 4]});
    }
  }
}

constexpr const char* kUsage =
    "usage: serialization_bench [--events N] [--repeat N] [--out BENCH_serialization.json]\n";

int Run(int argc, char** argv) {
  FlagSet flags = FlagSet::Parse(argc - 1, argv + 1);
  if (flags.GetBool("help", false)) {
    std::printf("%s", kUsage);
    return 0;
  }
  const long long events = flags.GetInt("events", 400000);
  const int repeat = flags.GetInt("repeat", 3);
  const std::string out_path = flags.GetString("out", "BENCH_serialization.json");
  if (!FlagsValid(flags)) {
    return 2;
  }

  // Byte-identity tripwire on a small sample of both pipelines.
  std::ostringstream legacy_sample, fast_sample;
  {
    EventLog log(&legacy_sample);
    log.set_legacy_serialization_for_test(true);
    EmitMix(&log, 2000);
  }
  {
    EventLog log(&fast_sample);
    EmitMix(&log, 2000);
  }
  TimeSeriesSampler sampler;
  FillSampler(&sampler, 2000);
  std::ostringstream legacy_csv, fast_csv;
  internal::WriteTimeSeriesCsvLegacy(sampler, legacy_csv);
  sampler.WriteCsv(fast_csv);
  const bool identical =
      legacy_sample.str() == fast_sample.str() && legacy_csv.str() == fast_csv.str();

  // Part 1: event emission throughput.
  const EventsRun legacy = BenchEvents(/*legacy=*/true, events, repeat);
  const EventsRun fast = BenchEvents(/*legacy=*/false, events, repeat);
  const double legacy_events_per_s =
      legacy.wall_s > 0 ? static_cast<double>(events) / legacy.wall_s : 0;
  const double fast_events_per_s =
      fast.wall_s > 0 ? static_cast<double>(events) / fast.wall_s : 0;
  const double events_speedup =
      legacy_events_per_s > 0 ? fast_events_per_s / legacy_events_per_s : 0;

  // Part 2: time-series CSV throughput over a large sampler.
  const int ts_rows = 200000;
  TimeSeriesSampler big;
  FillSampler(&big, ts_rows);
  const double ts_legacy_s = MedianWallSeconds(repeat, [&] {
    CountingBuf buf;
    std::ostream sink(&buf);
    internal::WriteTimeSeriesCsvLegacy(big, sink);
  });
  const double ts_fast_s = MedianWallSeconds(repeat, [&] {
    CountingBuf buf;
    std::ostream sink(&buf);
    big.WriteCsv(sink);
  });
  const double ts_speedup = ts_fast_s > 0 ? ts_legacy_s / ts_fast_s : 0;

  std::fprintf(stderr,
               "events x%lld: legacy %.0f/s, fast %.0f/s (%.2fx); timeseries x%d rows: "
               "legacy %.3fs, fast %.3fs (%.2fx); outputs %s\n",
               events, legacy_events_per_s, fast_events_per_s, events_speedup, ts_rows,
               ts_legacy_s, ts_fast_s, ts_speedup, identical ? "identical" : "DIFFER");

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 2;
  }
  out << "{\n"
      << "  \"events\": " << events << ",\n"
      << "  \"repeat\": " << repeat << ",\n"
      << "  \"legacy_wall_s\": " << legacy.wall_s << ",\n"
      << "  \"fast_wall_s\": " << fast.wall_s << ",\n"
      << "  \"legacy_events_per_s\": " << legacy_events_per_s << ",\n"
      << "  \"fast_events_per_s\": " << fast_events_per_s << ",\n"
      << "  \"events_speedup\": " << events_speedup << ",\n"
      << "  \"legacy_bytes_per_s\": "
      << (legacy.wall_s > 0 ? static_cast<double>(legacy.bytes) / legacy.wall_s : 0) << ",\n"
      << "  \"fast_bytes_per_s\": "
      << (fast.wall_s > 0 ? static_cast<double>(fast.bytes) / fast.wall_s : 0) << ",\n"
      << "  \"bytes_per_event\": "
      << (events > 0 ? static_cast<double>(fast.bytes) / static_cast<double>(events) : 0)
      << ",\n"
      << "  \"timeseries_rows\": " << ts_rows << ",\n"
      << "  \"timeseries_legacy_wall_s\": " << ts_legacy_s << ",\n"
      << "  \"timeseries_fast_wall_s\": " << ts_fast_s << ",\n"
      << "  \"timeseries_speedup\": " << ts_speedup << ",\n"
      << "  \"output_identical\": " << (identical ? "true" : "false") << "\n"
      << "}\n";
  std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace pdpa

int main(int argc, char** argv) { return pdpa::Run(argc, argv); }
