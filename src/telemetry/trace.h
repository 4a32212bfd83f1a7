// Bounded ring-buffer event tracer with Chrome trace_event JSON export.
//
// A TraceSink belongs to one run — unlike the metrics registry it is NOT
// generally thread-safe; campaigns give every run its own sink. The ring
// grows on demand up to a fixed capacity: once it holds capacity() events,
// the oldest are overwritten and counted as dropped, so a short run pays
// only for the events it records and a long run never grows memory
// unboundedly.
//
// Event names and categories must be string literals (or otherwise outlive
// the sink): events store the pointers, not copies, which keeps the record
// hot path allocation-free.
//
// chrome_json() emits the Trace Event Format understood by
// chrome://tracing and https://ui.perfetto.dev (docs/telemetry.md).
// Timestamps are simulated nanoseconds rendered as microseconds with
// integer math, so exports are byte-deterministic.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/time.h"

namespace lumina::telemetry {

struct TraceEvent {
  const char* cat = "";
  const char* name = "";
  char phase = 'i';  ///< 'i' instant, 'X' complete, 'C' counter.
  Tick ts = 0;       ///< Simulated time, ns.
  Tick dur = 0;      ///< 'X' only: duration, ns.
  std::uint32_t tid = 0;  ///< Virtual track (see track_name()).
  std::int64_t arg = 0;   ///< Rendered as args.v.
};

class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  void instant(const char* cat, const char* name, Tick ts, std::uint32_t tid,
               std::int64_t arg = 0) {
    record({cat, name, 'i', ts, 0, tid, arg});
  }
  void complete(const char* cat, const char* name, Tick ts, Tick dur,
                std::uint32_t tid, std::int64_t arg = 0) {
    record({cat, name, 'X', ts, dur, tid, arg});
  }
  void counter(const char* cat, const char* name, Tick ts, std::uint32_t tid,
               std::int64_t value) {
    record({cat, name, 'C', ts, 0, tid, value});
  }

  void record(const TraceEvent& ev);

  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const { return total_; }
  std::uint64_t dropped() const {
    return total_ > capacity_ ? total_ - capacity_ : 0;
  }
  std::size_t size() const { return events_.size(); }

  /// Retained events, oldest first.
  std::vector<TraceEvent> events_in_order() const;

  /// Names a virtual track: emitted as thread_name metadata so viewers
  /// show "sim", "injector", ... instead of bare tids.
  void set_track_name(std::uint32_t tid, std::string name);

  /// Full Chrome trace JSON ({"traceEvents": [...]}).
  std::string chrome_json() const;

  /// Writes chrome_json() to `path`; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  static constexpr std::size_t kDefaultCapacity = 1 << 16;

 private:
  std::size_t capacity_ = kDefaultCapacity;
  /// Appends until `capacity_` events, then wraps, overwriting the oldest.
  std::vector<TraceEvent> events_;
  std::uint64_t total_ = 0;  ///< Events ever recorded.
  std::vector<std::pair<std::uint32_t, std::string>> track_names_;
};

/// Conventional virtual tracks used by the wired-in components.
enum TrackId : std::uint32_t {
  kTrackSim = 0,
  kTrackInjector = 1,
  kTrackRequester = 2,
  kTrackResponder = 3,
  kTrackHost = 4,
  /// First dynamic per-host track. Testbeds with more than the classic
  /// two-host pair name these via set_track_name(); see nic_track().
  kTrackDynamicBase = 5,
};

/// Track id of host `host_index`'s NIC. Hosts 0/1 keep the legacy
/// requester/responder tracks (two-host traces are byte-identical to the
/// pre-topology layout); host i >= 2 gets the dense dynamic id
/// kTrackDynamicBase + (i - 2).
constexpr std::uint32_t nic_track(int host_index) {
  return host_index == 0   ? kTrackRequester
         : host_index == 1 ? kTrackResponder
                           : kTrackDynamicBase +
                                 static_cast<std::uint32_t>(host_index - 2);
}

}  // namespace lumina::telemetry
