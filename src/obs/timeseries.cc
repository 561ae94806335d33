#include "src/obs/timeseries.h"

#include <ostream>

#include "src/common/bufwriter.h"
#include "src/common/fmt.h"

namespace pdpa {

namespace {

constexpr char kCsvHeader[] =
    "kind,t_s,t_end_s,job,alloc,speedup,efficiency,state,free_cpus,running,queued,"
    "utilization\n";

void AppendAppRow(std::string* row, const TimeSeriesSampler::AppPoint& p) {
  row->append("app,");
  AppendFixed(row, TimeToSeconds(p.t_start), 6);
  row->push_back(',');
  AppendFixed(row, TimeToSeconds(p.t_end), 6);
  row->push_back(',');
  AppendInt(row, p.job);
  row->push_back(',');
  AppendGeneral(row, p.alloc, 10);
  row->push_back(',');
  AppendGeneral(row, p.speedup, 10);
  row->push_back(',');
  AppendGeneral(row, p.efficiency, 10);
  row->push_back(',');
  row->append(p.state);
  row->append(",,,,\n");
}

void AppendMachineRow(std::string* row, const TimeSeriesSampler::MachinePoint& p) {
  row->append("machine,");
  AppendFixed(row, TimeToSeconds(p.t), 6);
  row->append(",,,,,,,");
  AppendInt(row, p.free_cpus);
  row->push_back(',');
  AppendInt(row, p.running);
  row->push_back(',');
  AppendInt(row, p.queued);
  row->push_back(',');
  AppendGeneral(row, p.utilization, 10);
  row->push_back('\n');
}

}  // namespace

std::map<JobId, double> TimeSeriesSampler::AllocIntegralUs() const {
  std::map<JobId, double> integral;
  for (const AppPoint& point : apps_) {
    integral[point.job] += point.alloc * static_cast<double>(point.t_end - point.t_start);
  }
  return integral;
}

void TimeSeriesSampler::WriteCsv(std::ostream& out) const {
  BufWriter writer(&out);
  writer.Append(kCsvHeader);
  // Both vectors are appended in simulation order; merge by timestamp so the
  // CSV reads chronologically (app windows before the machine sample taken
  // at the same instant).
  std::string row;
  row.reserve(160);
  std::size_t a = 0;
  std::size_t m = 0;
  while (a < apps_.size() || m < machine_.size()) {
    const bool take_app =
        m >= machine_.size() || (a < apps_.size() && apps_[a].t_end <= machine_[m].t);
    row.clear();
    if (take_app) {
      AppendAppRow(&row, apps_[a++]);
    } else {
      AppendMachineRow(&row, machine_[m++]);
    }
    writer.Append(row);
  }
  writer.Flush();
}

void TimeSeriesSampler::Clear() {
  apps_.clear();
  machine_.clear();
}

void WriteClusterTimeSeriesCsv(const std::vector<const TimeSeriesSampler*>& nodes,
                               std::ostream& out) {
  BufWriter writer(&out);
  writer.Append("node,");
  writer.Append(kCsvHeader);
  // Per-node cursors replay each sampler with WriteCsv's own take-app rule,
  // so the row sequence within one node matches its single-machine CSV
  // exactly; across nodes the earliest key time wins, ties to the lowest
  // node index.
  struct Cursor {
    std::size_t a = 0;
    std::size_t m = 0;
  };
  std::vector<Cursor> cursors(nodes.size());
  const auto key_time = [&](std::size_t k, bool* take_app) -> SimTime {
    const TimeSeriesSampler& s = *nodes[k];
    const Cursor& c = cursors[k];
    *take_app = c.m >= s.machine().size() ||
                (c.a < s.apps().size() && s.apps()[c.a].t_end <= s.machine()[c.m].t);
    return *take_app ? s.apps()[c.a].t_end : s.machine()[c.m].t;
  };
  std::string row;
  row.reserve(160);
  while (true) {
    std::size_t best = nodes.size();
    SimTime best_t = 0;
    bool best_app = false;
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const Cursor& c = cursors[k];
      if (c.a >= nodes[k]->apps().size() && c.m >= nodes[k]->machine().size()) {
        continue;
      }
      bool take_app = false;
      const SimTime t = key_time(k, &take_app);
      if (best == nodes.size() || t < best_t) {
        best = k;
        best_t = t;
        best_app = take_app;
      }
    }
    if (best == nodes.size()) {
      break;
    }
    row.clear();
    AppendInt(&row, static_cast<int>(best));
    row.push_back(',');
    Cursor& c = cursors[best];
    if (best_app) {
      AppendAppRow(&row, nodes[best]->apps()[c.a++]);
    } else {
      AppendMachineRow(&row, nodes[best]->machine()[c.m++]);
    }
    writer.Append(row);
  }
  writer.Flush();
}

}  // namespace pdpa
