#include "telemetry/trace.h"

#include <cstdio>

#include "util/file_io.h"

namespace lumina::telemetry {
namespace {

/// ns -> "us.frac" with integer math ("1234567" -> "1234.567"): Chrome's
/// ts/dur unit is microseconds, and this keeps exports byte-deterministic.
std::string us_string(Tick ns) {
  const bool neg = ns < 0;
  const long long abs_ns = neg ? -static_cast<long long>(ns)
                               : static_cast<long long>(ns);
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%s%lld.%03lld", neg ? "-" : "",
                abs_ns / 1000, abs_ns % 1000);
  return buf;
}

void append_json_string(std::string* out, const char* s) {
  out->push_back('"');
  for (; *s != '\0'; ++s) {
    const char c = *s;
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

}  // namespace

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void TraceSink::record(const TraceEvent& ev) {
  if (events_.size() < capacity_) {
    events_.push_back(ev);
  } else {
    events_[static_cast<std::size_t>(total_ % capacity_)] = ev;
  }
  ++total_;
}

std::vector<TraceEvent> TraceSink::events_in_order() const {
  // Until the ring wraps its events are in record order; after, the oldest
  // sits in the slot the next record would overwrite.
  const auto split = static_cast<std::ptrdiff_t>(
      events_.size() < capacity_ ? 0 : total_ % capacity_);
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  out.insert(out.end(), events_.begin() + split, events_.end());
  out.insert(out.end(), events_.begin(), events_.begin() + split);
  return out;
}

void TraceSink::set_track_name(std::uint32_t tid, std::string name) {
  for (auto& [id, existing] : track_names_) {
    if (id == tid) {
      existing = std::move(name);
      return;
    }
  }
  track_names_.emplace_back(tid, std::move(name));
}

std::string TraceSink::chrome_json() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  char buf[64];
  for (const auto& [tid, name] : track_names_) {
    if (!first) out += ",";
    first = false;
    out += "{\"ph\":\"M\",\"pid\":0,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", tid);
    out += buf;
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":";
    append_json_string(&out, name.c_str());
    out += "}}";
  }
  for (const auto& ev : events_in_order()) {
    if (!first) out += ",";
    first = false;
    out += "{\"cat\":";
    append_json_string(&out, ev.cat);
    out += ",\"name\":";
    append_json_string(&out, ev.name);
    out += ",\"ph\":\"";
    out.push_back(ev.phase);
    out += "\",\"ts\":";
    out += us_string(ev.ts);
    if (ev.phase == 'X') {
      out += ",\"dur\":";
      out += us_string(ev.dur);
    }
    out += ",\"pid\":0,\"tid\":";
    std::snprintf(buf, sizeof(buf), "%u", ev.tid);
    out += buf;
    if (ev.phase == 'C') {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"value\":%lld}",
                    static_cast<long long>(ev.arg));
    } else {
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"v\":%lld}",
                    static_cast<long long>(ev.arg));
    }
    out += buf;
    out += "}";
  }
  out += "]}";
  return out;
}

bool TraceSink::write_chrome_json(const std::string& path) const {
  return write_file(path, chrome_json());
}

}  // namespace lumina::telemetry
