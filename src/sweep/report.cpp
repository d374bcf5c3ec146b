#include "sweep/report.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "analysis/json_writer.hpp"

namespace ccredf::sweep {

namespace {

void write_point(analysis::JsonWriter& w, const PointResult& pr) {
  w.begin_object();
  w.key("protocol").value(protocol_name(pr.point.protocol));
  w.key("nodes").value(static_cast<std::int64_t>(pr.point.nodes));
  w.key("utilisation").value(pr.point.utilisation);
  w.key("ber").value(pr.point.ber);
  w.key("data_ber").value(pr.point.data_ber);
  w.key("churn").value(pr.point.churn);
  w.key("link_cuts").value(static_cast<std::int64_t>(pr.point.link_cuts));
  w.key("mix").value(mix_name(pr.point.mix));
  w.key("service").value(service_name(pr.point.service));
  w.key("planner").value(pr.point.planner);
  w.key("set_seed").value(pr.point.set_seed);
  w.key("failed_shards").value(pr.failed_shards);
  w.key("metrics").begin_object();
  for (std::size_t i = 0; i < kMetricCount; ++i) {
    const sim::OnlineStats& st = pr.metrics[i];
    w.key(metric_name(static_cast<Metric>(i))).begin_object();
    w.key("count").value(st.count());
    w.key("mean").value(st.mean());
    w.key("stddev").value(st.stddev());
    w.key("min").value(st.min());
    w.key("max").value(st.max());
    w.end_object();
  }
  w.end_object();
  w.end_object();
}

}  // namespace

void write_json(const SweepResult& result, std::ostream& os) {
  analysis::JsonWriter w(os);
  w.begin_object();
  w.key("report").value("ccredf-sweep");
  w.key("grid");
  write_grid(w, result.spec);
  w.key("shards").value(result.shards);
  w.key("failed_shards").value(result.failed_shards);
  w.key("points").begin_array();
  for (const PointResult& pr : result.points) write_point(w, pr);
  w.end_array();
  w.end_object();
  os << '\n';
}

std::string to_json(const SweepResult& result) {
  std::ostringstream os;
  write_json(result, os);
  return os.str();
}

bool write_json_file(const SweepResult& result, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_json(result, out);
  return static_cast<bool>(out);
}

analysis::Table to_table(const SweepResult& result,
                         const std::vector<Metric>& metrics,
                         const std::string& title) {
  analysis::Table t(title);
  std::vector<std::string> headers{"protocol",  "nodes",    "u/U_max",
                                   "ber",       "data_ber", "churn",
                                   "link_cuts", "mix",      "service",
                                   "planner",   "seed"};
  for (const Metric m : metrics) headers.emplace_back(metric_name(m));
  t.columns(std::move(headers));
  for (const PointResult& pr : result.points) {
    auto row = t.row();
    row.cell(protocol_name(pr.point.protocol))
        .cell(static_cast<std::int64_t>(pr.point.nodes))
        .cell(pr.point.utilisation, 2)
        .cell(pr.point.ber, 6)
        .cell(pr.point.data_ber, 6)
        .cell(pr.point.churn, 0)
        .cell(pr.point.link_cuts)
        .cell(mix_name(pr.point.mix))
        .cell(service_name(pr.point.service))
        .cell(pr.point.planner ? "on" : "off")
        .cell(static_cast<std::int64_t>(pr.point.set_seed));
    for (const Metric m : metrics) row.cell(pr.mean(m), 4);
  }
  return t;
}

}  // namespace ccredf::sweep
