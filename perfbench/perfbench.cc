// perfbench: the repository benchmark. One process runs one named workload
// through the public sweep entry points (ExpandGrid, BuildJobs, RunSweep,
// SweepCsv; cluster_1k reaches RunClusterCell through RunSweep, the
// `pdpa_batch --nodes` path), checks its outputs and prints its metrics.
// perfbench/README.md describes the workloads, the metrics and the
// statistic; perfbench/run.py builds this binary and runs it.
//
// An untraced run (--trace 0) alternates serial repetitions of the workload
// with timed re-runs of the set-up until another round would overrun
// --seconds, and reports the end-to-end metrics; one 2-thread repetition is
// run for the output check only. Each serial cell is timed together with a
// fixed reference kernel on the same CPU, so its time can be given in
// reference seconds (ReferenceKernel in bench_lib.h). A traced run
// (--trace 1) adds a 2-thread and a profiled serial repetition to each round
// and reports the per-layer metrics of the median profiled one. Every
// repetition's outputs must equal the first serial repetition's byte for
// byte; at the default seed they must also match the pinned digest.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "perfbench/bench_lib.h"
#include "src/app/app_profile.h"
#include "src/common/logging.h"
#include "src/obs/prof.h"
#include "src/qs/workload_generator.h"
#include "src/workload/catalog.h"
#include "src/workload/sweep.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using pdpa::PolicyKind;
using pdpa::SpanId;
using pdpa::WorkloadId;

// Output digests at the default seed. A change that only speeds the
// simulator up must leave them alone.
constexpr std::uint64_t kDefaultSeed = 1;
struct PinnedDigest {
  const char* workload;
  const char* digest;
};
constexpr PinnedDigest kPinned[] = {
    {"paper_grid", "d6db7b0422d8b069"},
    {"replica_grid", "93a1b67a32dcefeb"},
    {"recorded_grid", "45e577316bb64754"},
    {"cluster_1k", "c83a72adc08aefd9"},
};

// Set-up is a millisecond or so; it is repeated this often per round so
// its median samples the whole run.
constexpr int kSetupsPerRound = 8;
// Timed reference-kernel steps beside each set-up (about 50 µs).
constexpr int kSetupRefSteps = 500;

long long Now() { return pdpa::prof::NowNanos(); }
double Seconds(long long ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(long long ns) { return static_cast<double>(ns) * 1e-6; }

struct Workload {
  pdpa::SweepGrid grid;
  // Timed steps of each reference-kernel sample: about 60 µs on the grids'
  // millisecond cells, about 2 ms beside cluster_1k's one cell of seconds.
  int ref_steps = 500;
  // Capture events, time-series and counters for every cell of every
  // repetition, held in memory.
  bool recorded = false;
  bool cluster = false;
};

// The seed argument picks a block of consecutive trace seeds.
std::vector<std::uint64_t> TraceSeeds(std::uint64_t seed, int count) {
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) {
    seeds.push_back(seed * 1000 + static_cast<std::uint64_t>(i));
  }
  return seeds;
}

Workload MakeWorkload(const std::string& name, std::uint64_t seed) {
  Workload w;
  pdpa::SweepGrid& grid = w.grid;
  if (name == "cluster_1k") {
    w.cluster = true;
    w.ref_steps = 20000;
    grid.workloads = {WorkloadId::kW4};
    grid.loads = {1.0};
    grid.policies = {PolicyKind::kEquipartition};
    grid.seeds = TraceSeeds(seed, 1);
    grid.nodes = 1000;
    grid.cpus_per_node = 8;
    grid.placements = {pdpa::PlacementPolicy::kMostFreeCpus};
    pdpa::WorkloadGenSpec spec;
    spec.load_share = pdpa::WorkloadShares(WorkloadId::kW4);
    spec.load = 1.0;
    spec.num_cpus = grid.nodes * grid.cpus_per_node;
    spec.window = 1200 * pdpa::kSecond;
    spec.request_override = 5;
    spec.seed = grid.seeds.front();
    grid.base.jobs_override = pdpa::GenerateWorkload(spec);
    return w;
  }
  grid.workloads = {WorkloadId::kW1, WorkloadId::kW2, WorkloadId::kW3, WorkloadId::kW4};
  grid.loads = {0.6, 0.8, 1.0};
  if (name == "paper_grid") {
    grid.policies = {PolicyKind::kIrix, PolicyKind::kEquipartition,
                     PolicyKind::kEqualEfficiency, PolicyKind::kPdpa};
    grid.seeds = TraceSeeds(seed, 5);
  } else {
    grid.policies = {PolicyKind::kEquipartition, PolicyKind::kPdpa};
    w.recorded = name == "recorded_grid";
    grid.seeds = TraceSeeds(seed, w.recorded ? 4 : 16);
  }
  return w;
}

// Untraced repetitions capture counters only where the output check pins
// them.
bool CapturesCounters(const Workload& w) { return w.recorded || w.cluster; }

struct Inputs {
  Workload workload;
  std::vector<pdpa::SweepCell> cells;
  // Each cell's job trace (shared within a (workload, load, seed) group),
  // for the every-job-finishes-exactly-once check.
  std::vector<std::shared_ptr<const std::vector<pdpa::JobSpec>>> traces;
};

// The one-time work before the first repetition: app profiles, trace
// generation and grid expansion. Trace generation calls are recorded as
// qs.generate spans when `spans` is set.
Inputs Setup(const Options& options, SpanLog* spans) {
  Inputs in;
  for (int c = 0; c < pdpa::kNumAppClasses; ++c) {
    pdpa::CachedProfile(static_cast<pdpa::AppClass>(c));
  }
  long long begin = Now();
  in.workload = MakeWorkload(options.workload, options.seed);
  if (spans != nullptr) {
    spans->Add("qs.generate", begin, Now());
  }
  in.cells = pdpa::ExpandGrid(in.workload.grid);
  std::map<std::tuple<int, double, std::uint64_t>, std::size_t> first_of_group;
  for (const pdpa::SweepCell& cell : in.cells) {
    const auto key = std::make_tuple(static_cast<int>(cell.workload), cell.load, cell.seed);
    const auto [it, added] = first_of_group.emplace(key, in.traces.size());
    if (added) {
      begin = Now();
      in.traces.push_back(pdpa::BuildJobs(cell.config));
      if (spans != nullptr) {
        spans->Add("qs.generate", begin, Now(), -1, static_cast<long long>(cell.index));
      }
    } else {
      in.traces.push_back(in.traces[it->second]);
    }
  }
  return in;
}

// Moves the calling thread round the CPUs the process may use, one step
// per call, so a serial repetition spends its cells evenly on every CPU
// instead of on whichever one the scheduler left it on. On a shared host
// each CPU is slowed by its own neighbours at its own moments; rotating
// averages over them, as a 2-thread repetition does by itself. The position
// carries over from one repetition to the next, so a one-cell workload
// moves on each repetition. Release() restores the original affinity,
// which threads created afterwards (the 2-thread sweep's workers) inherit.
// The rotation only moves work between CPUs: outputs do not depend on it,
// and each repetition is still checked against the first.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed_)) {
          cpus_.push_back(cpu);
        }
      }
    }
  }
  ~CpuRotation() { Release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next() {
    if (cpus_.size() < 2) {
      return;
    }
    next_ = (next_ + 1) % cpus_.size();
    Pin(cpus_[next_]);
  }

  // The 2-thread grid sweep's counterpart, called by each worker between
  // its cells (the sweep serializes the calls): the first worker to call
  // moves round the CPUs at even positions, the second round those at odd
  // ones, so the two never share a CPU and together cover all of them. With
  // an odd CPU count the workers stay where the scheduler puts them.
  void NextForWorker() {
    if (cpus_.size() < 2 || cpus_.size() % 2 != 0) {
      return;
    }
    const std::thread::id self = std::this_thread::get_id();
    std::size_t slot = 0;
    while (slot < workers_.size() && workers_[slot].id != self) {
      ++slot;
    }
    if (slot == workers_.size()) {
      if (slot == 2) {
        return;
      }
      workers_.push_back({self, 0});
    }
    Worker& worker = workers_[slot];
    Pin(cpus_[(slot + 2 * worker.moves++) % cpus_.size()]);
  }

  // Forgets the previous sweep's workers.
  void ResetWorkers() { workers_.clear(); }

  void Release() {
    if (cpus_.size() > 1) {
      sched_setaffinity(0, sizeof allowed_, &allowed_);
    }
  }

 private:
  struct Worker {
    std::thread::id id;
    std::size_t moves = 0;
  };

  static void Pin(int cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof one, &one);
  }

  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::vector<Worker> workers_;
};

enum class Mode { kSerial, kParallel, kTraced };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kSerial:
      return "serial";
    case Mode::kParallel:
      return "2-thread";
    case Mode::kTraced:
      return "traced";
  }
  return "?";
}

// What one repetition produced. Everything but the timings and profiles
// must be identical across repetitions and modes.
struct Rep {
  std::vector<pdpa::SweepCellResult> results;
  // Per-cell host seconds; inline (serial and traced) sweeps only, where
  // cells complete in grid order.
  std::vector<double> cell_seconds;
  // Serial repetitions only: per-cell reference seconds, and every
  // reference-kernel sample taken (ns per step).
  std::vector<double> cell_ref_s;
  std::vector<double> ref_ns_per_step;
  double wall_s = 0.0;
  pdpa::ForkStats fork;
  std::string csv;
  SpanLog spans;
};

// `kernel` is the reference kernel, used by serial repetitions only.
Rep RunRep(const Inputs& in, Mode mode, CpuRotation* rotation, ReferenceKernel* kernel) {
  pdpa::SweepGrid grid = in.workload.grid;
  pdpa::SweepOptions options;
  options.jobs = 1;
  if (mode == Mode::kParallel) {
    if (in.workload.cluster) {
      grid.cluster_shards = 2;
    } else {
      options.jobs = 2;
    }
  }
  options.capture_counters = CapturesCounters(in.workload) || mode == Mode::kTraced;
  options.capture_events = in.workload.recorded;
  options.capture_timeseries = in.workload.recorded;
  options.capture_prof = mode == Mode::kTraced;
  Rep rep;
  options.fork_stats = &rep.fork;
  std::vector<long long> done_ns(in.cells.size(), 0);
  std::vector<long long> start_ns(in.cells.size(), 0);
  long long begin = 0;
  long long end = 0;
  // Reference-kernel samples of a serial repetition: one on each cell's CPU
  // right before the cell and one right after it. Their time is left out
  // of the cells' and of the repetition's.
  const bool sampled = mode == Mode::kSerial;
  std::vector<double> ref_before(in.cells.size(), 0.0);
  std::vector<double> ref_after(in.cells.size(), 0.0);
  long long ref_ns = 0;
  const auto sample = [&ref_ns, kernel, steps = in.workload.ref_steps](double* ns_per_step) {
    const long long t = Now();
    *ns_per_step = kernel->NsPerStep(steps);
    ref_ns += Now() - t;
  };
  if (mode == Mode::kParallel) {
    // 2 sweep workers rotate over the CPUs between cells; a cluster cell's
    // 2 shard threads belong to the engine and are left alone.
    rotation->ResetWorkers();
    options.on_progress = [rotation](const pdpa::SweepProgress&) { rotation->NextForWorker(); };
    begin = Now();
    rep.results = pdpa::RunSweep(grid, options);
    end = Now();
  } else {
    // Inline sweep: cells complete in grid order and the callback runs on
    // this thread between them; the move to the next CPU is timed into
    // neither cell.
    rotation->Next();
    if (sampled) {
      sample(&ref_before[0]);
    }
    options.on_progress = [&, rotation](const pdpa::SweepProgress& progress) {
      const std::size_t i = progress.cell_index;
      done_ns[i] = Now();
      if (sampled) {
        sample(&ref_after[i]);
      }
      rotation->Next();
      if (i + 1 < start_ns.size()) {
        if (sampled) {
          sample(&ref_before[i + 1]);
        }
        start_ns[i + 1] = Now();
      }
    };
    begin = Now();
    start_ns[0] = begin;
    rep.results = pdpa::RunSweep(grid, options);
    end = Now();
    rotation->Release();
  }
  rep.wall_s = Seconds(end - begin - ref_ns);
  const int sweep = rep.spans.Add("workload.sweep", begin, end);
  if (mode != Mode::kParallel) {
    for (std::size_t i = 0; i < done_ns.size(); ++i) {
      rep.cell_seconds.push_back(Seconds(done_ns[i] - start_ns[i]));
      if (sampled) {
        rep.cell_ref_s.push_back(RefSeconds(rep.cell_seconds.back(),
                                            (ref_before[i] + ref_after[i]) / 2.0,
                                            "cell reference time"));
        rep.ref_ns_per_step.push_back(ref_before[i]);
        rep.ref_ns_per_step.push_back(ref_after[i]);
      }
      rep.spans.Add(in.cells[i].nodes > 1 ? "cluster.run" : "workload.cell", start_ns[i],
                    done_ns[i], sweep, static_cast<long long>(i));
    }
  }
  const long long csv_begin = Now();
  std::ostringstream csv;
  pdpa::SweepCsv(rep.results, grid.seeds.size(), csv, /*slowdown_columns=*/true);
  rep.csv = csv.str();
  rep.spans.Add("workload.csv", csv_begin, Now());
  return rep;
}

std::string OutcomeText(const pdpa::ExperimentResult& result) {
  std::string text;
  for (const pdpa::JobOutcome& o : result.outcomes) {
    text += std::to_string(o.id) + ' ' + std::to_string(static_cast<int>(o.app_class)) + ' ' +
            std::to_string(o.request) + ' ' + std::to_string(o.submit) + ' ' +
            std::to_string(o.start) + ' ' + std::to_string(o.finish) + '\n';
  }
  return text;
}

// Calls fn(index, text) for each artifact of one cell that must not depend
// on how the cell ran; kArtifactNames names them.
constexpr const char* kArtifactNames[] = {"outcomes", "counters", "events", "time-series"};
template <typename Fn>
void ForEachArtifact(const pdpa::SweepCellResult& r, Fn&& fn) {
  fn(0, OutcomeText(r.result));
  fn(1, r.counters.ToString());
  fn(2, r.events_jsonl);
  fn(3, r.timeseries_csv);
}

// The outputs of the first serial repetition, which every later repetition
// must reproduce, kept as line hashes plus one digest over all of it.
class Reference {
 public:
  // `counters_captured`: whether untraced repetitions capture counters
  // (recorded_grid and cluster_1k do; the other grids leave them empty, so
  // the traced repetition's counters have nothing to match).
  Reference(const Rep& rep, bool counters_captured)
      : csv_(rep.csv), counters_captured_(counters_captured) {
    digest_ = Fnv1a(rep.csv);
    for (const pdpa::SweepCellResult& r : rep.results) {
      std::vector<LineHashes>& cell = cells_.emplace_back();
      ForEachArtifact(r, [&](std::size_t, std::string_view part) {
        digest_ = Fnv1a(part, Fnv1a("\x1e", digest_));
        cell.emplace_back(part);
      });
    }
  }

  std::uint64_t digest() const { return digest_; }

  void Check(const Rep& rep, Mode mode) const {
    const std::string label = ModeName(mode);
    Expect(csv_, rep.csv, label + " sweep CSV");
    for (std::size_t i = 0; i < rep.results.size(); ++i) {
      const pdpa::SweepCellResult& r = rep.results[i];
      ForEachArtifact(r, [&](std::size_t k, std::string_view part) {
        if (k != 1 || counters_captured_) {
          Expect(cells_[i][k], part,
                 label + " cell " + std::to_string(i) + " (" + r.cell.name + ") " +
                     kArtifactNames[k]);
        }
      });
    }
  }

 private:
  static void Expect(const LineHashes& expected, std::string_view actual,
                     const std::string& where) {
    const std::size_t line = expected.FirstDifferentLine(actual);
    if (line != 0) {
      throw BenchError(where + " diverges from the first serial repetition at line " +
                       std::to_string(line) + ": " + LineOf(actual, line));
    }
  }

  LineHashes csv_;
  bool counters_captured_;
  std::vector<std::vector<LineHashes>> cells_;
  std::uint64_t digest_ = 0;
};

struct Tally {
  long long attempted = 0;
  long long failed = 0;
};

// Invariants every run must meet at any seed: each cell completes and each
// job of its trace finishes exactly once, after it started, after it was
// submitted. A grid attempt is a cell; a cluster attempt is a job.
void CheckInvariants(const Inputs& in, const Rep& rep, Tally* tally) {
  for (std::size_t i = 0; i < rep.results.size(); ++i) {
    const pdpa::ExperimentResult& result = rep.results[i].result;
    const std::vector<pdpa::JobSpec>& trace = *in.traces[i];
    std::map<pdpa::JobId, int> finishes;
    for (const pdpa::JobSpec& job : trace) {
      finishes[job.id] = 0;
    }
    for (const pdpa::JobOutcome& o : result.outcomes) {
      const auto it = finishes.find(o.id);
      if (it == finishes.end() || o.start < o.submit || o.finish < o.start) {
        throw BenchError("cell " + std::to_string(i) + " (" + rep.results[i].cell.name +
                         "): outcome of job " + std::to_string(o.id) +
                         " is not in its trace or runs backwards");
      }
      ++it->second;
    }
    long long missing = 0;
    for (const auto& [id, count] : finishes) {
      missing += count == 1 ? 0 : 1;
    }
    if (in.workload.cluster) {
      tally->attempted += static_cast<long long>(trace.size());
      tally->failed += result.completed ? missing : static_cast<long long>(trace.size());
    } else {
      tally->attempted += 1;
      tally->failed += (result.completed && missing == 0) ? 0 : 1;
    }
  }
}

long long TotalJobs(const Inputs& in) {
  long long jobs = 0;
  for (const auto& trace : in.traces) {
    jobs += static_cast<long long>(trace->size());
  }
  return jobs;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004u) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    std::string model(reinterpret_cast<const char*>(regs), sizeof regs);
    model.erase(model.find_last_not_of(std::string(" \0", 2)) + 1);
    model.erase(0, model.find_first_not_of(' '));
    return model;
  }
#endif
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("g++ ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string JsonString(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value);
  return ec == std::errc() ? std::string(buf, end) : "null";
}

std::string QuartileJson(const std::vector<double>& samples, const std::string& unit = "s") {
  if (samples.empty()) {
    return "null";
  }
  const Quartiles q = QuartilesOf(samples);
  return "{\"count\": " + std::to_string(samples.size()) + ", \"q1_" + unit +
         "\": " + JsonNumber(q.q1) + ", \"median_" + unit + "\": " + JsonNumber(q.median) +
         ", \"q3_" + unit + "\": " + JsonNumber(q.q3) + "}";
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// What the per-layer metrics need from one traced repetition, kept without
// its recordings.
struct TraceSample {
  double wall_s = 0.0;
  pdpa::Profiler prof;
  std::map<std::string, double> counters;  // summed over cells
  double obs_bytes = 0.0;
  double csv_bytes = 0.0;
  double cells = 0.0;
  pdpa::ForkStats fork;
  SpanLog spans;

  explicit TraceSample(const Rep& rep)
      : wall_s(rep.wall_s),
        prof(pdpa::MergeProfiles(rep.results)),
        csv_bytes(static_cast<double>(rep.csv.size())),
        cells(static_cast<double>(rep.results.size())),
        fork(rep.fork),
        spans(rep.spans) {
    for (const pdpa::SweepCellResult& r : rep.results) {
      for (const pdpa::CounterSnapshot& c : r.counters.counters) {
        counters[c.name] += static_cast<double>(c.value);
      }
      obs_bytes += static_cast<double>(r.events_jsonl.size() + r.timeseries_csv.size());
    }
  }
};

// Per-layer metrics of one traced repetition; the wall times are the
// run's medians.
std::vector<Metric> LayerMetrics(const TraceSample& traced, const CellTimes& serial_cells,
                                 double serial_wall_s, double parallel_wall_s, double jobs,
                                 double ref_ns_per_step, const SpanLog& setup_spans) {
  const pdpa::Profiler& prof = traced.prof;
  std::map<std::string, double> counter = traced.counters;
  const auto hits = [&prof](SpanId id) { return static_cast<double>(prof.stats(id).hits); };
  const auto self_ns = [&prof](SpanId id) {
    return static_cast<double>(prof.stats(id).self_ns);
  };
  // Host nanoseconds per unit of work come from Rate(ns, count), which
  // refuses zero time and zero work alike.

  const double sim_self = self_ns(SpanId::kSimEventPush) + self_ns(SpanId::kSimEventPop);
  const double ticks = counter["rm.ticks"];
  const double elided = counter["rm.ticks_elided"];
  double layer_self = 0.0;
  for (int id = 0; id < pdpa::kNumSpanIds; ++id) {
    if (static_cast<SpanId>(id) != SpanId::kSweepCell) {
      layer_self += self_ns(static_cast<SpanId>(id));
    }
  }
  const double traced_wall_ns = traced.wall_s * 1e9;
  // Per-cell host times of the untraced serial repetitions (each cell's
  // median). A one-cell workload (cluster_1k) has no tail: both
  // percentiles are its single cell's time.
  std::vector<double> cell_ms;
  for (const double seconds : serial_cells.Medians()) {
    cell_ms.push_back(seconds * 1e3);
  }
  const bool one_cell = cell_ms.size() == 1;
  const double reports = counter["analyzer.reports"];
  const double dirty = counter["analyzer.dirty_iterations"];

  return {
      {"host.ref_ns_per_step", ref_ns_per_step, "ns"},
      {"workload.jobs_per_s", Rate(jobs, serial_cells.Total(), "workload.jobs_per_s"), "jobs/s"},
      {"workload.jobs_per_s_par", Rate(jobs, parallel_wall_s, "workload.jobs_per_s_par"),
       "jobs/s"},
      {"sim.events", counter["sim.events_dispatched"], "count"},
      {"sim.event_push.hits", hits(SpanId::kSimEventPush), "count"},
      {"sim.self_ms", sim_self * 1e-6, "ms"},
      {"sim.ns_per_event", Rate(sim_self, counter["sim.events_dispatched"], "sim.ns_per_event"),
       "ns"},
      {"rm.ticks", ticks, "count"},
      {"rm.ticks_elided", elided, "count"},
      {"rm.elision_ratio", Ratio(elided, ticks + elided, "rm.elision_ratio"), "ratio"},
      {"rm.tick.self_ms", self_ns(SpanId::kRmTick) * 1e-6, "ms"},
      {"rm.tick.ns_per_hit",
       Rate(self_ns(SpanId::kRmTick), hits(SpanId::kRmTick), "rm.tick.ns_per_hit"), "ns"},
      {"rm.quantum.hits", hits(SpanId::kRmQuantum), "count"},
      {"rm.quantum.self_ms", self_ns(SpanId::kRmQuantum) * 1e-6, "ms"},
      {"rm.plans_applied", counter["rm.plans_applied"], "count"},
      {"policy.decide.hits", hits(SpanId::kPolicyDecide), "count"},
      {"policy.decide.self_ms", self_ns(SpanId::kPolicyDecide) * 1e-6, "ms"},
      {"policy.decide.ns_per_hit",
       Rate(self_ns(SpanId::kPolicyDecide), hits(SpanId::kPolicyDecide),
           "policy.decide.ns_per_hit"),
       "ns"},
      {"policy.irix.dispatch_ticks", counter["policy.irix.dispatch_ticks"], "count"},
      {"pdpa.evaluations", counter["pdpa.evaluations"], "count"},
      {"pdpa.stale_reports", counter["pdpa.stale_reports"], "count"},
      {"analyzer.reports", reports, "count"},
      {"analyzer.dirty_ratio", Ratio(dirty, dirty + reports, "analyzer.dirty_ratio"), "ratio"},
      {"rm.perf_reports", counter["rm.perf_reports"], "count"},
      {"qs.generate_ms", Millis(setup_spans.TotalNs("qs.generate")), "ms"},
      {"qs.submits", counter["qs.submits"], "count"},
      {"qs.holds", counter["qs.holds"], "count"},
      {"machine.cpu_handoffs", counter["rm.cpu_handoffs"], "count"},
      {"machine.cpu_migrations", counter["rm.cpu_migrations"], "count"},
      {"workload.sweep_ms", Millis(traced.spans.TotalNs("workload.sweep")), "ms"},
      {"workload.csv_ms", Millis(traced.spans.TotalNs("workload.csv")), "ms"},
      {"workload.csv_bytes", traced.csv_bytes, "bytes"},
      {"workload.cell.self_ms", self_ns(SpanId::kSweepCell) * 1e-6, "ms"},
      // Cell time outside the program's sweep.cell span: per-cell sink
      // set-up, counter snapshot, time-series CSV write and event copy.
      {"workload.cell.outside_ms",
       Millis(traced.spans.TotalNs("workload.cell") + traced.spans.TotalNs("cluster.run")) -
           static_cast<double>(prof.stats(SpanId::kSweepCell).total_ns) * 1e-6,
       "ms"},
      {"workload.cell_ms_p50",
       one_cell ? cell_ms[0] : TailPercentile(cell_ms, 50.0, "workload.cell_ms_p50"), "ms"},
      {"workload.cell_ms_p90",
       one_cell ? cell_ms[0] : TailPercentile(cell_ms, 90.0, "workload.cell_ms_p90"), "ms"},
      {"workload.fork.prefixes_built", static_cast<double>(traced.fork.prefixes_built), "count"},
      {"workload.fork.forked_ratio",
       Ratio(static_cast<double>(traced.fork.forked_cells), traced.cells,
             "workload.fork.forked_ratio"),
       "ratio"},
      {"workload.par_speedup", Rate(serial_wall_s, parallel_wall_s, "workload.par_speedup"),
       "x"},
      {"obs.serialize.hits", hits(SpanId::kObsSerialize), "count"},
      {"obs.serialize.self_ms", self_ns(SpanId::kObsSerialize) * 1e-6, "ms"},
      {"obs.flush.self_ms", self_ns(SpanId::kObsFlush) * 1e-6, "ms"},
      {"obs.bytes", traced.obs_bytes, "bytes"},
      {"cluster.run_ms", Millis(traced.spans.TotalNs("cluster.run")), "ms"},
      {"cluster.barrier_wait.self_ms", self_ns(SpanId::kClusterBarrierWait) * 1e-6, "ms"},
      {"cluster.drain.hits", hits(SpanId::kClusterDrain), "count"},
      {"cluster.drain.self_ms", self_ns(SpanId::kClusterDrain) * 1e-6, "ms"},
      {"cluster.place.hits", hits(SpanId::kClusterPlace), "count"},
      {"cluster.place.self_ms", self_ns(SpanId::kClusterPlace) * 1e-6, "ms"},
      {"cluster.arrivals", counter["cluster.arrivals"], "count"},
      {"cluster.batched_arrivals", counter["cluster.batched_arrivals"], "count"},
      {"cluster.parks", counter["cluster.parks"], "count"},
      {"cluster.wakes", counter["cluster.wakes"], "count"},
      {"trace.overhead", Rate(traced.wall_s, serial_wall_s, "trace.overhead"), "x"},
      {"trace.unattributed_share",
       1.0 - Ratio(layer_self, traced_wall_ns, "trace.unattributed_share"), "ratio"},
  };
}

int Run(const Options& options) {
  CpuRotation rotation;
  ReferenceKernel kernel;
  SpanLog setup_spans;
  // Set-up times in host seconds (for the host record) and in reference
  // seconds, from kernel samples on the set-up's CPU before and after it.
  std::vector<double> setup_s, setup_ref_s;
  const auto timed_setup = [&](SpanLog* spans) {
    rotation.Next();
    const double before = kernel.NsPerStep(kSetupRefSteps);
    const long long begin = Now();
    Inputs inputs = Setup(options, spans);
    const double seconds = Seconds(Now() - begin);
    const double after = kernel.NsPerStep(kSetupRefSteps);
    rotation.Release();
    setup_s.push_back(seconds);
    setup_ref_s.push_back(RefSeconds(seconds, (before + after) / 2.0, "setup_s"));
    return inputs;
  };
  const Inputs in = timed_setup(options.trace ? &setup_spans : nullptr);

  // Rounds of a serial repetition, then (traced runs) a 2-thread and a
  // profiled repetition or (untraced runs) set-up repetitions, until
  // another round would overrun --seconds. An untraced run makes one
  // 2-thread repetition, in its first round, for the output check only.
  const long long deadline = Now() + static_cast<long long>(options.seconds) * 1000000000LL;
  std::unique_ptr<Reference> ref;
  Tally tally;
  CellTimes serial_cells;      // host seconds
  CellTimes serial_ref_cells;  // reference seconds
  std::vector<double> serial_walls, parallel_walls, traced_walls, ref_samples;
  std::vector<TraceSample> traced_samples;
  const auto run_checked = [&](Mode mode) {
    Rep rep = RunRep(in, mode, &rotation, &kernel);
    if (ref == nullptr) {
      ref = std::make_unique<Reference>(rep, CapturesCounters(in.workload));
    } else {
      ref->Check(rep, mode);
    }
    CheckInvariants(in, rep, &tally);
    return rep;
  };
  long long round_ns = 0;
  do {
    const long long round_begin = Now();
    {
      const Rep serial = run_checked(Mode::kSerial);
      serial_cells.Add(serial.cell_seconds);
      serial_ref_cells.Add(serial.cell_ref_s);
      serial_walls.push_back(serial.wall_s);
      ref_samples.insert(ref_samples.end(), serial.ref_ns_per_step.begin(),
                         serial.ref_ns_per_step.end());
    }
    if (options.trace || options.check || parallel_walls.empty()) {
      parallel_walls.push_back(run_checked(Mode::kParallel).wall_s);
    }
    if (options.trace || options.check) {
      const Rep traced = run_checked(Mode::kTraced);
      traced_walls.push_back(traced.wall_s);
      traced_samples.emplace_back(traced);
    } else {
      for (int i = 0; i < kSetupsPerRound; ++i) {
        timed_setup(nullptr);
      }
    }
    round_ns = Now() - round_begin;
  } while (!options.check && Now() + round_ns <= deadline);

  const std::uint64_t digest = ref->digest();
  const char* pinned = "";
  for (const PinnedDigest& p : kPinned) {
    if (options.workload == p.workload) {
      pinned = p.digest;
    }
  }
  std::fprintf(stderr, "perfbench: %s seed %llu output digest %s\n", options.workload.c_str(),
               static_cast<unsigned long long>(options.seed), Hex(digest).c_str());
  if (options.seed == kDefaultSeed && Hex(digest) != pinned) {
    throw BenchError(options.workload + " output digest " + Hex(digest) +
                     " differs from the pinned " + (*pinned != '\0' ? pinned : "(none)"));
  }

  std::vector<Metric> metrics;
  const double jobs = static_cast<double>(TotalJobs(in));
  if (options.check) {
    // Outputs only.
  } else if (options.trace) {
    // The traced repetition with the median wall time (the lower of the two
    // middle ones for an even count).
    std::sort(traced_samples.begin(), traced_samples.end(),
              [](const TraceSample& a, const TraceSample& b) { return a.wall_s < b.wall_s; });
    const TraceSample& traced = traced_samples[(traced_samples.size() - 1) / 2];
    metrics = LayerMetrics(traced, serial_cells, Median(serial_walls), Median(parallel_walls),
                           jobs, Median(ref_samples), setup_spans);
    if (!options.spans_out.empty()) {
      std::ofstream out(options.spans_out);
      out << setup_spans.ToJsonl() << traced.spans.ToJsonl();
      if (!out) {
        throw BenchError("cannot write " + options.spans_out);
      }
    }
  } else {
    metrics = {
        {"jobs_per_ref_s", Rate(jobs, serial_ref_cells.Total(), "jobs_per_ref_s"), "jobs/ref_s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"setup_s", Median(setup_ref_s), "s"},
    };
  }

  std::printf("{\"host\": {\"nproc\": %u, \"cpu_model\": %s, \"compiler\": %s, "
              "\"build_type\": %s, \"commit\": %s}, \"workload\": %s, \"seed\": %llu, "
              "\"digest\": \"%s\", \"repetitions\": {\"serial\": %s, \"parallel\": %s, "
              "\"traced\": %s, \"setup\": %s}, \"reference_kernel\": %s, "
              "\"host_jobs_per_s\": %s, \"jobs\": %.0f}\n",
              std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
              JsonString(Compiler()).c_str(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
              JsonString(options.commit.empty() ? "unknown" : options.commit).c_str(),
              JsonString(options.workload).c_str(),
              static_cast<unsigned long long>(options.seed), Hex(digest).c_str(),
              QuartileJson(serial_walls).c_str(), QuartileJson(parallel_walls).c_str(),
              QuartileJson(traced_walls).c_str(), QuartileJson(setup_s).c_str(),
              QuartileJson(ref_samples, "ns_per_step").c_str(),
              JsonNumber(Rate(jobs, serial_cells.Total(), "host jobs/s")).c_str(), jobs);
  std::string line = "{\"correct\": true, \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) + ": {\"value\": " +
            JsonNumber(metrics[i].value) + ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string error;
  if (!perfbench::ParseOptions(argc - 1, argv + 1, &options, &error)) {
    std::fprintf(stderr, "perfbench: %s\n\n%s", error.c_str(), perfbench::Usage());
    return 2;
  }
  if (options.help) {
    std::fputs(perfbench::Usage(), stdout);
    return 0;
  }
  pdpa::SetLogLevel(pdpa::LogLevel::kWarning);
  try {
    return perfbench::Run(options);
  } catch (const perfbench::BenchError& e) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.what());
    return 1;
  }
}
