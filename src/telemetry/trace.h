// Bounded ring-buffer event tracer with Chrome trace_event JSON export.
//
// A TraceSink belongs to one run — unlike the metrics registry it is NOT
// generally thread-safe; campaigns give every run its own sink. The ring
// grows on demand up to a fixed capacity: once it holds capacity() events,
// the oldest are overwritten and counted as dropped, so a short run pays
// only for the events it records and a long run never grows memory
// unboundedly.
//
// Under the sharded event kernel lanes execute on a thread pool, so the
// testbed switches the sink into *domain-lanes* mode
// (enable_domain_lanes): each event domain records into its own private
// buffer, routed by the executing lane's exec_domain tag. Lanes never
// share a cache line of bookkeeping, so the hot path stays unsynchronized;
// events_in_order() merges lanes by timestamp on the (cold) export path.
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

  /// Switches to domain-lanes mode: one private buffer per event domain,
  /// record() routed by exec_domain::current() (events recorded outside
  /// any lane — top-level setup, scrape — land on lane 0). The capacity
  /// bound stays global: dropped() still reports against the configured
  /// capacity, and events_in_order() keeps only the newest `capacity()`
  /// events after the merge. Call once, before any event is recorded.
  void enable_domain_lanes(int num_domains);
  bool domain_lanes() const { return !lanes_.empty(); }

  std::size_t capacity() const { return capacity_; }
  std::uint64_t recorded() const;
  std::uint64_t dropped() const {
    const std::uint64_t n = recorded();
    return n > capacity_ ? n - capacity_ : 0;
  }
  std::size_t size() const {
    const std::uint64_t n = recorded();
    return n < capacity_ ? static_cast<std::size_t>(n) : capacity_;
  }

  /// Retained events, oldest first. In domain-lanes mode the lanes are
  /// merged with a stable sort on timestamp — per-lane order is preserved
  /// and equal-timestamp events order by domain id — so the export is a
  /// pure function of event content, not thread placement.
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
  /// An event buffer that appends until `capacity_` events, then wraps,
  /// overwriting the oldest. The shared ring is one; in domain-lanes mode
  /// each domain records into its own (the merge trims the union to the
  /// same bound).
  struct Lane {
    std::vector<TraceEvent> events;
    std::uint64_t total = 0;
  };

  /// Appends `lane`'s retained events to `out`, oldest first.
  void append_retained(const Lane& lane, std::vector<TraceEvent>& out) const;

  std::size_t capacity_ = kDefaultCapacity;
  Lane ring_;                // the sink's buffer outside domain-lanes mode
  std::vector<Lane> lanes_;  // non-empty => domain-lanes mode
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
