#include "telemetry/trace.h"

#include <algorithm>
#include <cstdio>

#include "util/exec_domain.h"

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

void TraceSink::enable_domain_lanes(int num_domains) {
  lanes_.assign(static_cast<std::size_t>(num_domains < 1 ? 1 : num_domains),
                Lane{});
}

void TraceSink::record(const TraceEvent& ev) {
  Lane* lane = &ring_;
  if (!lanes_.empty()) {
    // Outside any lane the tag is -1, which wraps past size() to lane 0.
    const auto d = static_cast<std::size_t>(exec_domain::current());
    lane = &lanes_[d < lanes_.size() ? d : 0];
  }
  if (lane->events.size() < capacity_) {
    lane->events.push_back(ev);
  } else {
    lane->events[static_cast<std::size_t>(lane->total % capacity_)] = ev;
  }
  ++lane->total;
}

std::uint64_t TraceSink::recorded() const {
  if (lanes_.empty()) return ring_.total;
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) n += lane.total;
  return n;
}

void TraceSink::append_retained(const Lane& lane,
                                std::vector<TraceEvent>& out) const {
  // Until the lane wraps its events are in record order; after, the oldest
  // sits in the slot the next record would overwrite.
  const auto split = static_cast<std::ptrdiff_t>(
      lane.events.size() < capacity_ ? 0 : lane.total % capacity_);
  out.insert(out.end(), lane.events.begin() + split, lane.events.end());
  out.insert(out.end(), lane.events.begin(), lane.events.begin() + split);
}

std::vector<TraceEvent> TraceSink::events_in_order() const {
  std::vector<TraceEvent> out;
  if (lanes_.empty()) {
    out.reserve(ring_.events.size());
    append_retained(ring_, out);
    return out;
  }
  // Concatenate each lane oldest-first (in domain order), then stable-sort
  // on timestamp: per-lane order survives, ties order by domain.
  for (const Lane& lane : lanes_) append_retained(lane, out);
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts < b.ts;
                   });
  if (out.size() > capacity_) {
    out.erase(out.begin(),
              out.end() - static_cast<std::ptrdiff_t>(capacity_));
  }
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
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::string json = chrome_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace lumina::telemetry
