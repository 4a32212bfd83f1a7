#include "orchestrator/trace.h"

#include <algorithm>
#include <optional>
#include <sstream>

#include "dumper/dumper.h"

namespace lumina {
namespace {

bool by_mirror_seq(const CaptureRecord& a, const CaptureRecord& b) {
  return a.meta.mirror_seq < b.meta.mirror_seq;
}

}  // namespace

std::string IntegrityReport::to_string() const {
  std::ostringstream out;
  out << (ok() ? "OK" : "FAILED") << " (trace=" << trace_packets
      << ", mirrored=" << injector_mirrored << ", roce_rx=" << injector_roce_rx
      << ", consecutive=" << (seqnums_consecutive ? "yes" : "no")
      << ", missing=" << missing_seqnums << ")";
  return out.str();
}

void PacketTrace::append(std::span<const std::uint8_t> bytes,
                         TracePacket record) {
  const auto& slab = slabs.emplace_back(
      std::make_shared<const std::vector<std::uint8_t>>(bytes.begin(),
                                                        bytes.end()));
  record.pkt.bytes = *slab;
  packets.push_back(record);
}

IntegrityReport reconstruct_trace(std::vector<CaptureStore> captures,
                                  std::uint64_t injector_mirrored,
                                  std::uint64_t injector_roce_rx,
                                  PacketTrace& trace) {
  // A dumper's store arrives as one sorted run; the stable sort is only the
  // fallback that keeps any other input equal to the documented order.
  // Store d's slab moves into trace.slabs[d] (the buffer itself stays put,
  // so records can view it from here on).
  std::size_t total = 0;
  trace.slabs.clear();
  for (CaptureStore& store : captures) {
    auto& records = store.records;
    if (!std::is_sorted(records.begin(), records.end(), by_mirror_seq)) {
      std::stable_sort(records.begin(), records.end(), by_mirror_seq);
    }
    total += records.size();
    trace.slabs.push_back(std::make_shared<const std::vector<std::uint8_t>>(
        std::move(store.bytes)));
  }

  std::vector<TracePacket>& packets = trace.packets;
  packets.clear();
  packets.reserve(total);
  IntegrityReport integrity;
  integrity.seqnums_consecutive = true;
  std::vector<std::size_t> next(captures.size(), 0);
  for (;;) {
    // The run whose head has the lowest mirror_seq; ties go to the
    // earlier dumper, which keeps the merge stable.
    std::size_t pick = captures.size();
    for (std::size_t d = 0; d < captures.size(); ++d) {
      if (next[d] == captures[d].records.size()) continue;
      if (pick == captures.size() ||
          by_mirror_seq(captures[d].records[next[d]],
                        captures[pick].records[next[pick]])) {
        pick = d;
      }
    }
    if (pick == captures.size()) break;
    const CaptureRecord& record = captures[pick].records[next[pick]++];
    const auto bytes =
        std::span(*trace.slabs[pick]).subspan(record.offset, record.length);
    const std::optional<RoceView> view =
        parse_roce(bytes, /*allow_trimmed=*/true);
    if (!view) continue;
    if (record.meta.mirror_seq != packets.size()) {
      integrity.seqnums_consecutive = false;
    }
    packets.push_back(
        TracePacket{FrameBytes{bytes}, *view, record.meta, record.orig_len});
  }

  integrity.trace_packets = packets.size();
  integrity.injector_mirrored = injector_mirrored;
  integrity.injector_roce_rx = injector_roce_rx;
  if (injector_mirrored >= packets.size()) {
    integrity.missing_seqnums = injector_mirrored - packets.size();
  }
  integrity.matches_mirrored_count = injector_mirrored == packets.size();
  integrity.matches_roce_rx_count = injector_roce_rx == packets.size();
  return integrity;
}

}  // namespace lumina
