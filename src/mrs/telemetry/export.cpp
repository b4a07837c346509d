#include "mrs/telemetry/export.hpp"

#include <fstream>
#include <stdexcept>

#include "mrs/common/json.hpp"
#include "mrs/common/strfmt.hpp"

namespace mrs::telemetry {

namespace {

void append_uint_array(std::string& out,
                       const std::vector<std::uint64_t>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ',';
    out += strf("%llu", static_cast<unsigned long long>(values[i]));
  }
  out += ']';
}

}  // namespace

std::string to_jsonl(const Snapshot& snapshot, const TimeSeries& series) {
  std::string out;
  for (const auto& row : series.rows) {
    out += strf("{\"type\":\"sample\",\"t\":%s", json_number(row.t).c_str());
    for (std::size_t i = 0; i < series.columns.size(); ++i) {
      out += strf(",\"%s\":%s", json_escape(series.columns[i]).c_str(),
                  json_number(row.values[i]).c_str());
    }
    out += "}\n";
  }
  for (const auto& c : snapshot.counters) {
    out += strf("{\"type\":\"counter\",\"name\":\"%s\",\"value\":%llu}\n",
                json_escape(c.name).c_str(),
                static_cast<unsigned long long>(c.value));
  }
  for (const auto& g : snapshot.gauges) {
    out += strf("{\"type\":\"gauge\",\"name\":\"%s\",\"value\":%s}\n",
                json_escape(g.name).c_str(), json_number(g.value).c_str());
  }
  for (const auto& h : snapshot.histograms) {
    out += strf("{\"type\":\"histogram\",\"name\":\"%s\",\"lo\":%s,"
                "\"hi\":%s,\"underflow\":%llu,\"overflow\":%llu,\"counts\":",
                json_escape(h.name).c_str(), json_number(h.lo).c_str(),
                json_number(h.hi).c_str(),
                static_cast<unsigned long long>(h.underflow),
                static_cast<unsigned long long>(h.overflow));
    append_uint_array(out, h.counts);
    out += "}\n";
  }
  for (const auto& t : snapshot.timers) {
    out += strf("{\"type\":\"timer\",\"name\":\"%s\",\"count\":%llu,"
                "\"total_ms\":%s,\"max_ms\":%s}\n",
                json_escape(t.name).c_str(),
                static_cast<unsigned long long>(t.count),
                json_number(static_cast<double>(t.total_ns) / 1e6).c_str(),
                json_number(static_cast<double>(t.max_ns) / 1e6).c_str());
  }
  return out;
}

void write_jsonl(const std::string& path, const Snapshot& snapshot,
                 const TimeSeries& series) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("write_jsonl: cannot open " + path);
  out << to_jsonl(snapshot, series);
  if (!out) throw std::runtime_error("write_jsonl: write failed: " + path);
}

}  // namespace mrs::telemetry
