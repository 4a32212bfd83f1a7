#include "telemetry/report.h"

#include <cstdio>
#include <optional>

#include "telemetry/json_lite.h"
#include "util/file_io.h"

namespace lumina::telemetry {
namespace {

constexpr const char* kSchema = "lumina.report.v1";

void append_escaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
      out->push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char esc[8];
      std::snprintf(esc, sizeof(esc), "\\u%04x", c);
      *out += esc;
    } else {
      out->push_back(c);
    }
  }
  out->push_back('"');
}

std::string u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string i64(std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  return buf;
}

template <typename Map, typename Format>
void append_scalar_object(std::string* out, const Map& map, Format format,
                          const char* indent) {
  if (map.empty()) {
    *out += "{}";
    return;
  }
  *out += "{\n";
  bool first = true;
  for (const auto& [name, value] : map) {
    if (!first) *out += ",\n";
    first = false;
    *out += indent;
    append_escaped(out, name);
    *out += ": ";
    *out += format(value);
  }
  *out += "\n";
  *out += std::string(indent).substr(2);
  *out += "}";
}

template <typename Int, typename Format>
void append_int_array(std::string* out, const std::vector<Int>& values,
                      Format format) {
  *out += "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) *out += ", ";
    *out += format(values[i]);
  }
  *out += "]";
}

}  // namespace

std::string serialize_deterministic(const MetricsSnapshot& snapshot) {
  std::string out = "{\n    \"counters\": ";
  append_scalar_object(&out, snapshot.counters,
                       [](std::uint64_t v) { return u64(v); }, "      ");
  out += ",\n    \"gauges\": ";
  append_scalar_object(&out, snapshot.gauges,
                       [](std::int64_t v) { return i64(v); }, "      ");
  out += ",\n    \"histograms\": ";
  if (snapshot.histograms.empty()) {
    out += "{}";
  } else {
    out += "{\n";
    bool first = true;
    for (const auto& [name, hist] : snapshot.histograms) {
      if (!first) out += ",\n";
      first = false;
      out += "      ";
      append_escaped(&out, name);
      out += ": {\n        \"bounds\": ";
      append_int_array(&out, hist.bounds,
                       [](std::int64_t v) { return i64(v); });
      out += ",\n        \"counts\": ";
      append_int_array(&out, hist.counts,
                       [](std::uint64_t v) { return u64(v); });
      out += ",\n        \"count\": " + u64(hist.count);
      out += ",\n        \"sum\": " + i64(hist.sum);
      out += ",\n        \"min\": " + i64(hist.min);
      out += ",\n        \"max\": " + i64(hist.max);
      out += "\n      }";
    }
    out += "\n    }";
  }
  out += "\n  }";
  return out;
}

std::string serialize_report(const RunReport& report) {
  std::string out = "{\n  \"schema\": ";
  append_escaped(&out, kSchema);
  out += ",\n  \"name\": ";
  append_escaped(&out, report.name);
  out += ",\n  \"deterministic\": ";
  out += serialize_deterministic(report.deterministic);
  out += ",\n  \"wall\": ";
  if (report.wall.empty()) {
    out += "{}";
  } else {
    out += "{\n";
    bool first = true;
    for (const auto& [name, value] : report.wall) {
      if (!first) out += ",\n";
      first = false;
      out += "    ";
      append_escaped(&out, name);
      char buf[48];
      std::snprintf(buf, sizeof(buf), ": %.3f", value);
      out += buf;
    }
    out += "\n  }";
  }
  out += "\n}\n";
  return out;
}

bool write_report(const RunReport& report, const std::string& path,
                  std::string* failed_path) {
  if (write_file(path, serialize_report(report))) return true;
  if (failed_path != nullptr) *failed_path = path;
  return false;
}

namespace {

HistogramSnapshot parse_histogram(const JsonValue& v) {
  HistogramSnapshot hist;
  for (const auto& bound : v.at("bounds").as_array()) {
    hist.bounds.push_back(bound.as_int());
  }
  for (const auto& count : v.at("counts").as_array()) {
    hist.counts.push_back(count.as_uint());
  }
  hist.count = v.at("count").as_uint();
  hist.sum = v.at("sum").as_int();
  hist.min = v.at("min").as_int();
  hist.max = v.at("max").as_int();
  return hist;
}

}  // namespace

RunReport read_report_text(const std::string& text) {
  const JsonValue doc = parse_json(text);
  const std::string& schema = doc.at("schema").as_string();
  if (schema != kSchema) {
    throw JsonError("unsupported report schema '" + schema + "'");
  }
  RunReport report;
  report.name = doc.at("name").as_string();
  const JsonValue& det = doc.at("deterministic");
  for (const auto& [name, value] : det.at("counters").as_object()) {
    report.deterministic.counters[name] = value.as_uint();
  }
  for (const auto& [name, value] : det.at("gauges").as_object()) {
    report.deterministic.gauges[name] = value.as_int();
  }
  for (const auto& [name, value] : det.at("histograms").as_object()) {
    report.deterministic.histograms[name] = parse_histogram(value);
  }
  if (const JsonValue* wall = doc.find("wall"); wall != nullptr) {
    for (const auto& [name, value] : wall->as_object()) {
      report.wall[name] = value.as_double();
    }
  }
  return report;
}

RunReport read_report_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) throw JsonError("cannot open " + path);
  return read_report_text(*text);
}

}  // namespace lumina::telemetry
