// Observability self-profiler / trace-export / slowdown-histogram tests
// (DESIGN.md §11).
//
// Pins the four contracts the profiling layer is built on:
//   1. profiler-off byte-identity: enabling capture_prof must not change a
//      single byte of the events / time-series / sweep-CSV outputs, and the
//      default SweepCsv stays byte-identical to the retained legacy writer;
//   2. trace-export validity: every record the TraceEventWriter emits is a
//      flat JSON object (plus the single nested "args" object the format
//      allows), round-trippable through ParseFlatJson, with the fields
//      Perfetto requires per phase;
//   3. LogHistogram determinism: exact associative/commutative merges and
//      hard golden percentile values (the 2^(j/8) bucket-bound constants);
//   4. serial == parallel profiles: per-cell span hit counts are a function
//      of the simulated schedule, not of host threading.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/obs/event_log.h"
#include "src/obs/prof.h"
#include "src/obs/slowdown.h"
#include "src/obs/trace_export.h"
#include "src/rm/equipartition.h"
#include "src/workload/experiment.h"
#include "src/workload/sweep.h"

namespace pdpa {
namespace {

SweepGrid SmallGrid() {
  SweepGrid grid;
  grid.workloads = {WorkloadId::kW1};
  grid.loads = {0.6, 1.0};
  grid.policies = {PolicyKind::kEquipartition, PolicyKind::kPdpa};
  grid.seeds = {42, 43};
  return grid;
}

std::string CsvOf(const std::vector<SweepCellResult>& results, std::size_t seeds,
                  bool slowdown_columns = false) {
  std::ostringstream out;
  SweepCsv(results, seeds, out, slowdown_columns);
  return out.str();
}

// ------------------------------------------------- profiler-off identity

TEST(ProfilerIdentityTest, CaptureProfDoesNotChangeAnyOutputByte) {
  const SweepGrid grid = SmallGrid();
  SweepOptions off;
  off.jobs = 1;
  off.capture_events = true;
  off.capture_timeseries = true;
  SweepOptions on = off;
  on.capture_prof = true;

  const std::vector<SweepCellResult> base = RunSweep(grid, off);
  const std::vector<SweepCellResult> profiled = RunSweep(grid, on);
  ASSERT_EQ(base.size(), profiled.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    ASSERT_FALSE(base[i].events_jsonl.empty());
    EXPECT_EQ(base[i].events_jsonl, profiled[i].events_jsonl) << "cell " << i;
    EXPECT_EQ(base[i].timeseries_csv, profiled[i].timeseries_csv) << "cell " << i;
    // The profiled run actually profiled; the unprofiled one stayed empty.
    EXPECT_EQ(base[i].profile.TotalHits(), 0) << "cell " << i;
    EXPECT_GT(profiled[i].profile.TotalHits(), 0) << "cell " << i;
  }
  EXPECT_EQ(CsvOf(base, grid.seeds.size()), CsvOf(profiled, grid.seeds.size()));
}

TEST(ProfilerIdentityTest, DefaultSweepCsvStillMatchesLegacyWriter) {
  const SweepGrid grid = SmallGrid();
  SweepOptions options;
  options.jobs = 1;
  options.capture_prof = true;  // on, to prove it does not leak into the CSV
  const std::vector<SweepCellResult> results = RunSweep(grid, options);

  std::ostringstream fast, legacy;
  SweepCsv(results, grid.seeds.size(), fast);
  internal::SweepCsvLegacy(results, grid.seeds.size(), legacy);
  ASSERT_FALSE(fast.str().empty());
  EXPECT_EQ(fast.str(), legacy.str());
}

TEST(ProfilerIdentityTest, SlowdownColumnsExtendEveryRowByExactlyThreeCells) {
  const SweepGrid grid = SmallGrid();
  SweepOptions options;
  options.jobs = 1;
  const std::vector<SweepCellResult> results = RunSweep(grid, options);

  std::istringstream plain(CsvOf(results, grid.seeds.size(), false));
  std::istringstream extended(CsvOf(results, grid.seeds.size(), true));
  std::string plain_line, extended_line;
  bool saw_header = false;
  while (std::getline(plain, plain_line)) {
    ASSERT_TRUE(std::getline(extended, extended_line));
    // Every extended row is the plain row plus three appended cells.
    EXPECT_EQ(extended_line.substr(0, plain_line.size()), plain_line);
    const std::string tail = extended_line.substr(plain_line.size());
    if (!saw_header) {
      EXPECT_EQ(tail, ",slowdown_p50,slowdown_p95,slowdown_p99");
      saw_header = true;
    } else {
      int commas = 0;
      for (const char c : tail) {
        commas += c == ',' ? 1 : 0;
      }
      EXPECT_EQ(commas, 3) << "row tail: " << tail;
    }
  }
  EXPECT_FALSE(std::getline(extended, extended_line));
  EXPECT_TRUE(saw_header);
}

// ------------------------------------------------- trace-export validity

// Splits one trace record into its outer flat object and (optionally) the
// nested "args" object, and parses both with ParseFlatJson. The trace
// format guarantees "args", when present, is the last field and itself flat.
void ParseRecord(const std::string& record, std::map<std::string, std::string>* outer,
                 std::map<std::string, std::string>* args, bool* has_args) {
  const std::string args_key = ",\"args\":{";
  const std::size_t args_at = record.find(args_key);
  *has_args = args_at != std::string::npos;
  if (!*has_args) {
    ASSERT_TRUE(ParseFlatJson(record, outer)) << record;
    return;
  }
  const std::size_t args_open = args_at + args_key.size() - 1;
  const std::size_t args_close = record.find('}', args_open);
  ASSERT_NE(args_close, std::string::npos) << record;
  ASSERT_EQ(record.substr(args_close), "}}") << record;
  const std::string outer_text = record.substr(0, args_at) + "}";
  const std::string args_text = record.substr(args_open, args_close - args_open + 1);
  ASSERT_TRUE(ParseFlatJson(outer_text, outer)) << record;
  ASSERT_TRUE(ParseFlatJson(args_text, args)) << record;
}

TEST(TraceExportTest, EveryRecordOfALiveExportRoundTripsThroughParseFlatJson) {
  ExperimentConfig config;
  config.workload = WorkloadId::kW1;
  config.load = 1.0;
  config.policy = PolicyKind::kPdpa;
  std::ostringstream events_stream;
  EventLog events(&events_stream);
  config.event_log = &events;
  (void)RunExperiment(config);
  events.Flush();

  std::ostringstream trace_stream;
  TraceEventWriter writer(&trace_stream);
  const long long bad = ExportSimTrace(events_stream.str(), 1, "w1_1.00_PDPA", &writer);
  writer.Finish();
  EXPECT_EQ(bad, 0);
  EXPECT_GT(writer.events_written(), 0);

  const std::string trace = trace_stream.str();
  std::istringstream lines(trace);
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_EQ(line, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");

  long long records = 0;
  std::map<std::string, long long> by_phase;
  while (std::getline(lines, line)) {
    if (line == "]}") {
      break;
    }
    if (!line.empty() && line.back() == ',') {
      line.pop_back();
    }
    std::map<std::string, std::string> outer, args;
    bool has_args = false;
    ASSERT_NO_FATAL_FAILURE(ParseRecord(line, &outer, &args, &has_args));
    const std::string ph = outer["ph"];
    ASSERT_FALSE(ph.empty()) << line;
    ++by_phase[ph];
    ++records;
    EXPECT_TRUE(outer.contains("pid")) << line;
    if (ph == "M") {
      EXPECT_TRUE(has_args) << line;
      EXPECT_TRUE(args.contains("name")) << line;
    } else {
      EXPECT_TRUE(outer.contains("ts")) << line;
    }
    if (ph == "b" || ph == "n" || ph == "e") {
      EXPECT_TRUE(outer.contains("cat")) << line;
      EXPECT_TRUE(outer.contains("id")) << line;
    }
    if (ph == "X") {
      EXPECT_TRUE(outer.contains("dur")) << line;
    }
    if (ph == "C") {
      EXPECT_TRUE(has_args) << line;
      EXPECT_FALSE(args.empty()) << line;
    }
    if (ph == "i") {
      EXPECT_EQ(outer["s"], "t") << line;
    }
  }
  EXPECT_EQ(records, writer.events_written());
  // A W1 PDPA run exercises every simulation-side phase.
  EXPECT_GE(by_phase["M"], 1);
  EXPECT_GT(by_phase["b"], 0);   // job submits
  EXPECT_GT(by_phase["n"], 0);   // starts / transitions
  EXPECT_GT(by_phase["e"], 0);   // job finishes
  EXPECT_GT(by_phase["C"], 0);   // allocation counters
  // Async begins and ends pair up: W1 drains, so every job finishes.
  EXPECT_EQ(by_phase["b"], by_phase["e"]);
}

TEST(TraceExportTest, MalformedLinesAreCountedNotExported) {
  std::ostringstream trace_stream;
  TraceEventWriter writer(&trace_stream);
  const std::string jsonl =
      "{\"type\":\"run_start\",\"t_us\":0,\"cpus\":4}\n"
      "this is not json\n"
      "{\"type\":\"job_submit\",\"t_us\":5,\"job\":1,\"class\":\"A\",\"request\":2}\n"
      "{broken\n";
  const long long bad = ExportSimTrace(jsonl, 7, "p", &writer);
  writer.Finish();
  EXPECT_EQ(bad, 2);
  EXPECT_GT(writer.events_written(), 0);
}

// ---------------------------------------------------------- histogram

TEST(LogHistogramTest, PercentileGoldens) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50), 0.0);

  h.Observe(1.0);
  EXPECT_EQ(h.count(), 1);
  // 1.0 lands in the first sub-bucket of the [1, 2) octave; the reported
  // percentile is that bucket's upper bound, 2^(1/8) exactly.
  EXPECT_EQ(h.Percentile(0), 1.0905077326652577);
  EXPECT_EQ(h.Percentile(50), 1.0905077326652577);
  EXPECT_EQ(h.Percentile(100), 1.0905077326652577);

  LogHistogram extremes;
  extremes.Observe(1e-9);  // underflow bucket: saturates to 2^-4
  EXPECT_EQ(extremes.Percentile(50), 0.0625);
  extremes.Observe(1e9);  // overflow bucket: saturates to 2^20
  EXPECT_EQ(extremes.Percentile(100), 1048576.0);
}

TEST(LogHistogramTest, NearestRankPicksTheRightBucket) {
  LogHistogram h;
  for (int i = 0; i < 90; ++i) {
    h.Observe(1.0);
  }
  for (int i = 0; i < 10; ++i) {
    h.Observe(16.0);
  }
  // 16.0: frexp mantissa 0.5, exponent 5 -> first sub-bucket of [16, 32).
  const double tail = 16.0 * 1.0905077326652577;
  EXPECT_EQ(h.Percentile(50), 1.0905077326652577);
  EXPECT_EQ(h.Percentile(90), 1.0905077326652577);
  EXPECT_EQ(h.Percentile(91), tail);
  EXPECT_EQ(h.Percentile(99), tail);
}

TEST(LogHistogramTest, MergeIsExactAssociativeAndCommutative) {
  // Three histograms over a deterministic spread of values.
  LogHistogram a, b, c;
  for (int i = 1; i <= 400; ++i) {
    a.Observe(1.0 + 0.013 * i);
    b.Observe(1.0 + 0.107 * i);
    c.Observe(0.5 + 3.1 * i);
  }

  LogHistogram left = a;  // (a + b) + c
  left.Merge(b);
  left.Merge(c);
  LogHistogram right = b;  // a + (b + c)
  right.Merge(c);
  LogHistogram ab = a;
  ab.Merge(right);  // commutes: a + (b + c)

  EXPECT_EQ(left.count(), 1200);
  EXPECT_EQ(ab.count(), 1200);
  EXPECT_EQ(left.buckets(), ab.buckets());
  for (const double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(left.Percentile(p), ab.Percentile(p)) << "p" << p;
  }
}

TEST(LogHistogramTest, SweepAggregateSlowdownIsMergeOfReplicas) {
  const SweepGrid grid = SmallGrid();
  SweepOptions options;
  options.jobs = 1;
  const std::vector<SweepCellResult> results = RunSweep(grid, options);
  const std::size_t seeds = grid.seeds.size();
  ASSERT_EQ(results.size() % seeds, 0u);

  for (std::size_t group = 0; group < results.size() / seeds; ++group) {
    const CellAggregate agg = AggregateSeeds(results, group * seeds, seeds);
    for (const auto& [app_class, class_agg] : agg.per_class) {
      LogHistogram manual;
      for (std::size_t s = 0; s < seeds; ++s) {
        const auto it = results[group * seeds + s].result.slowdown.find(app_class);
        if (it != results[group * seeds + s].result.slowdown.end()) {
          manual.Merge(it->second);
        }
      }
      EXPECT_GT(manual.count(), 0);
      EXPECT_EQ(manual.buckets(), class_agg.slowdown.buckets());
    }
  }
}

// --------------------------------------------- serial == parallel hits

TEST(ProfilerDeterminismTest, PerCellHitCountsAreIdenticalSerialVsParallel) {
  const SweepGrid grid = SmallGrid();
  SweepOptions serial;
  serial.jobs = 1;
  serial.capture_prof = true;
  SweepOptions parallel = serial;
  parallel.jobs = 4;

  const std::vector<SweepCellResult> s = RunSweep(grid, serial);
  const std::vector<SweepCellResult> p = RunSweep(grid, parallel);
  ASSERT_EQ(s.size(), p.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    for (int span = 0; span < kNumSpanIds; ++span) {
      const SpanId id = static_cast<SpanId>(span);
      EXPECT_EQ(s[i].profile.stats(id).hits, p[i].profile.stats(id).hits)
          << "cell " << i << " span " << SpanName(id);
    }
  }
  const Profiler merged_serial = MergeProfiles(s);
  const Profiler merged_parallel = MergeProfiles(p);
  EXPECT_GT(merged_serial.TotalHits(), 0);
  EXPECT_EQ(merged_serial.TotalHits(), merged_parallel.TotalHits());
}

// Cluster controller spans. All hit counts are functions of the simulated
// schedule (one barrier_wait per controller cycle, one drain per drained
// timestamp, one place per placement), so repeated runs agree on every span.
TEST(ProfilerDeterminismTest, ClusterSpanHitsAreDeterministic) {
  std::vector<JobSpec> jobs;
  for (int i = 0; i < 12; ++i) {
    JobSpec spec;
    spec.id = i;
    spec.app_class = static_cast<AppClass>(i % kNumAppClasses);
    spec.submit = i * 500 * kMillisecond;
    spec.request = 6;
    jobs.push_back(spec);
  }
  ClusterOptions options;
  options.num_nodes = 4;
  options.cpus_per_node = 8;
  options.make_policy = [] { return std::make_unique<Equipartition>(4); };
  options.rm_params.analyzer.noise_sigma = 0.0;

  const auto hits = [&] {
    Profiler profiler;
    options.profiler = &profiler;
    const ClusterResult result = RunCluster(jobs, options);
    EXPECT_TRUE(result.completed);
    return profiler;
  };
  const Profiler a = hits();
  const Profiler b = hits();
  for (int span = 0; span < kNumSpanIds; ++span) {
    const SpanId id = static_cast<SpanId>(span);
    EXPECT_EQ(a.stats(id).hits, b.stats(id).hits) << SpanName(id);
  }
  EXPECT_GT(a.stats(SpanId::kClusterBarrierWait).hits, 0);
  EXPECT_GT(a.stats(SpanId::kClusterDrain).hits, 0);
  EXPECT_GT(a.stats(SpanId::kClusterPlace).hits, 0);
  // The node-level spans share the run's profiler.
  EXPECT_GT(a.stats(SpanId::kRmTick).hits, 0);
}

}  // namespace
}  // namespace pdpa
