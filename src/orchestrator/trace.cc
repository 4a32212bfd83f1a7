#include "orchestrator/trace.h"

#include <algorithm>
#include <sstream>

#include "dumper/dumper.h"

namespace lumina {
namespace {

bool by_mirror_seq(const DumpedPacket& a, const DumpedPacket& b) {
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

IntegrityReport reconstruct_trace(
    std::vector<std::vector<DumpedPacket>> captures,
    std::uint64_t injector_mirrored, std::uint64_t injector_roce_rx,
    PacketTrace& trace) {
  // A dumper's store arrives as one sorted run; the stable sort is only the
  // fallback that keeps any other input equal to the documented order.
  std::size_t total = 0;
  for (auto& run : captures) {
    if (!std::is_sorted(run.begin(), run.end(), by_mirror_seq)) {
      std::stable_sort(run.begin(), run.end(), by_mirror_seq);
    }
    total += run.size();
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
      if (next[d] == captures[d].size()) continue;
      if (pick == captures.size() ||
          by_mirror_seq(captures[d][next[d]], captures[pick][next[pick]])) {
        pick = d;
      }
    }
    if (pick == captures.size()) break;
    DumpedPacket& dumped = captures[pick][next[pick]++];
    const auto view = parse_roce(dumped.pkt, /*allow_trimmed=*/true);
    if (!view) continue;
    if (dumped.meta.mirror_seq != packets.size()) {
      integrity.seqnums_consecutive = false;
    }
    packets.emplace_back(std::move(dumped.pkt), *view, dumped.meta,
                         dumped.orig_len);
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
