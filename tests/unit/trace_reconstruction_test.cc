// Differential tests for trace reconstruction (§3.5): reconstruct_trace()'s
// one-pass merge of per-dumper capture runs against an oracle that
// stable-sorts the concatenated captures by mirror_seq and recomputes the
// integrity report on its own. Inputs cover in-order runs with holes,
// one dumper, no frames, duplicated and out-of-range sequence numbers,
// unparseable frames, and runs that are not in mirror order. A last test
// checks what reconstruction decodes from the records of real runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "dumper/dumper.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/trace.h"
#include "packet/bytes.h"
#include "util/random.h"

namespace lumina {
namespace {

/// One captured frame as a dumper stores it: its record and its kept
/// bytes. The tests reorder and edit runs of these; stores() lays each run
/// out as a CaptureStore.
struct Captured {
  CaptureRecord record;
  std::vector<std::uint8_t> bytes;
};

using Captures = std::vector<std::vector<Captured>>;

std::vector<CaptureStore> stores(const Captures& captures) {
  std::vector<CaptureStore> out(captures.size());
  for (std::size_t d = 0; d < captures.size(); ++d) {
    for (const Captured& c : captures[d]) {
      CaptureRecord& record = out[d].records.emplace_back(c.record);
      record.offset = out[d].bytes.size();
      record.length = c.bytes.size();
      out[d].bytes.insert(out[d].bytes.end(), c.bytes.begin(),
                          c.bytes.end());
    }
  }
  return out;
}

/// One captured frame. `tag` lands in orig_len, which reconstruction copies
/// verbatim, so the test can follow every frame through the merge.
/// Unparseable frames are 64 zero bytes (ethertype 0).
Captured capture(std::uint64_t seq, std::size_t tag, bool parseable,
                 Rng& rng) {
  Captured captured;
  CaptureRecord& record = captured.record;
  record.meta.mirror_seq = seq;
  record.meta.ingress_timestamp = static_cast<Tick>(seq * 100);
  record.orig_len = tag;
  if (!parseable) {
    captured.bytes.assign(64, 0);
    return captured;
  }
  RocePacketSpec spec;
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.opcode = IbOpcode::kWriteOnly;
  const auto payload = static_cast<std::uint32_t>(rng.next_below(512));
  spec.reth = Reth{0, 0, payload};
  spec.payload_len = payload;
  spec.psn = static_cast<std::uint32_t>(seq);
  // Keep 128 B, as the dumper's capture does.
  const Packet full = build_roce_packet(spec);
  const std::size_t kept = std::min<std::size_t>(full.size(), 128);
  captured.bytes.assign(full.bytes.begin(),
                        full.bytes.begin() + static_cast<std::ptrdiff_t>(kept));
  return captured;
}

struct Expected {
  std::vector<std::size_t> tags;  ///< Trace order.
  IntegrityReport integrity;
};

Expected oracle(const Captures& captures, std::uint64_t mirrored,
                std::uint64_t roce_rx) {
  std::vector<const Captured*> all;
  for (const auto& run : captures) {
    for (const auto& captured : run) all.push_back(&captured);
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const Captured* a, const Captured* b) {
                     return a->record.meta.mirror_seq <
                            b->record.meta.mirror_seq;
                   });
  Expected want;
  std::vector<std::uint64_t> seqs;
  for (const Captured* captured : all) {
    if (!parse_roce(captured->bytes, /*allow_trimmed=*/true)) continue;
    want.tags.push_back(captured->record.orig_len);
    seqs.push_back(captured->record.meta.mirror_seq);
  }
  IntegrityReport& r = want.integrity;
  r.trace_packets = seqs.size();
  r.injector_mirrored = mirrored;
  r.injector_roce_rx = roce_rx;
  r.seqnums_consecutive = true;
  for (std::size_t i = 0; i < seqs.size(); ++i) {
    if (seqs[i] != i) {
      r.seqnums_consecutive = false;
      break;
    }
  }
  if (mirrored >= seqs.size()) r.missing_seqnums = mirrored - seqs.size();
  r.matches_mirrored_count = mirrored == seqs.size();
  r.matches_roce_rx_count = roce_rx == seqs.size();
  return want;
}

/// Reconstructs a copy of `captures` and checks order, integrity and every
/// trace record against the oracle and the captured frame it came from.
IntegrityReport expect_matches_oracle(const Captures& captures,
                                      std::uint64_t mirrored,
                                      std::uint64_t roce_rx) {
  const Expected want = oracle(captures, mirrored, roce_rx);
  std::map<std::size_t, const Captured*> by_tag;
  for (const auto& run : captures) {
    for (const auto& captured : run) {
      by_tag[captured.record.orig_len] = &captured;
    }
  }

  PacketTrace trace;
  const IntegrityReport got =
      reconstruct_trace(stores(captures), mirrored, roce_rx, trace);
  std::vector<std::size_t> tags;
  for (const TracePacket& tp : trace) {
    tags.push_back(tp.orig_len);
    const Captured& source = *by_tag.at(tp.orig_len);
    EXPECT_TRUE(std::ranges::equal(tp.pkt.bytes, source.bytes));
    EXPECT_EQ(tp.meta.mirror_seq, source.record.meta.mirror_seq);
    EXPECT_EQ(tp.meta.ingress_timestamp,
              source.record.meta.ingress_timestamp);
    EXPECT_EQ(tp.view, *parse_roce(source.bytes, /*allow_trimmed=*/true));
    EXPECT_EQ(tp.released_at, 0);
  }
  EXPECT_EQ(tags, want.tags);
  EXPECT_EQ(got, want.integrity)
      << "got " << got.to_string() << ", want "
      << want.integrity.to_string();
  return got;
}

/// `frames` sequence numbers dealt round-robin over `dumpers` in-order
/// runs, each frame parseable and captured once.
Captures round_robin(int dumpers, std::uint64_t frames, Rng& rng) {
  Captures captures(static_cast<std::size_t>(dumpers));
  for (std::uint64_t seq = 0; seq < frames; ++seq) {
    captures[seq % captures.size()].push_back(
        capture(seq, static_cast<std::size_t>(seq), true, rng));
  }
  return captures;
}

TEST(TraceReconstruction, OneDumperInOrderPassesIntegrity) {
  Rng rng(1);
  const Captures captures = round_robin(1, 50, rng);
  const IntegrityReport got = expect_matches_oracle(captures, 50, 50);
  EXPECT_TRUE(got.ok());
  EXPECT_EQ(got.trace_packets, 50u);
}

TEST(TraceReconstruction, InterleavedRunsWithHolesCountMissing) {
  Rng rng(2);
  Captures captures = round_robin(3, 40, rng);
  captures[1].erase(captures[1].begin() + 4);  // seq 13
  captures[2].erase(captures[2].begin());      // seq 2
  const IntegrityReport got = expect_matches_oracle(captures, 40, 40);
  EXPECT_FALSE(got.seqnums_consecutive);
  EXPECT_EQ(got.missing_seqnums, 2u);
  EXPECT_FALSE(got.matches_mirrored_count);
}

TEST(TraceReconstruction, NoFramesGiveAnEmptyTrace) {
  for (const Captures& captures : {Captures{}, Captures(2)}) {
    const IntegrityReport empty = expect_matches_oracle(captures, 0, 0);
    EXPECT_TRUE(empty.ok());
    const IntegrityReport lost = expect_matches_oracle(captures, 7, 7);
    EXPECT_EQ(lost.missing_seqnums, 7u);
    EXPECT_FALSE(lost.ok());
  }
}

TEST(TraceReconstruction, DuplicateSequenceNumbersKeepDumperOrder) {
  Rng rng(3);
  Captures captures(2);
  captures[0].push_back(capture(0, 10, true, rng));
  captures[0].push_back(capture(1, 11, true, rng));
  captures[0].push_back(capture(1, 12, true, rng));
  captures[1].push_back(capture(1, 20, true, rng));
  captures[1].push_back(capture(2, 21, true, rng));
  PacketTrace trace;
  reconstruct_trace(stores(captures), 3, 3, trace);
  std::vector<std::size_t> tags;
  for (const TracePacket& tp : trace) tags.push_back(tp.orig_len);
  EXPECT_EQ(tags, (std::vector<std::size_t>{10, 11, 12, 20, 21}));
  const IntegrityReport got = expect_matches_oracle(captures, 3, 3);
  EXPECT_FALSE(got.seqnums_consecutive);
  EXPECT_EQ(got.missing_seqnums, 0u);  // more frames than mirrors
}

TEST(TraceReconstruction, SequenceNumbersBeyondMirroredCount) {
  Rng rng(4);
  const Captures captures = round_robin(2, 12, rng);
  const IntegrityReport got = expect_matches_oracle(captures, 9, 12);
  EXPECT_TRUE(got.seqnums_consecutive);
  EXPECT_EQ(got.missing_seqnums, 0u);
  EXPECT_FALSE(got.matches_mirrored_count);
  EXPECT_TRUE(got.matches_roce_rx_count);
}

TEST(TraceReconstruction, UnparseableFramesAreLeftOut) {
  Rng rng(5);
  Captures captures = round_robin(2, 10, rng);
  captures[1][2] = capture(5, 99, false, rng);
  const IntegrityReport got = expect_matches_oracle(captures, 10, 10);
  EXPECT_EQ(got.trace_packets, 9u);
  EXPECT_FALSE(got.seqnums_consecutive);
}

TEST(TraceReconstruction, OutOfOrderRunsMatchAStableSort) {
  Rng rng(6);
  Captures captures = round_robin(2, 30, rng);
  std::reverse(captures[0].begin(), captures[0].end());
  std::swap(captures[1][3], captures[1][9]);
  captures[1].push_back(capture(4, 100, true, rng));  // duplicate, late
  const IntegrityReport got = expect_matches_oracle(captures, 30, 30);
  EXPECT_EQ(got.trace_packets, 31u);
}

TEST(TraceReconstruction, MatchesOracleOnRandomCaptures) {
  Rng rng(0x7ace);
  const double rates[] = {0.0, 0.02, 0.3};
  for (int iter = 0; iter < 400; ++iter) {
    const auto dumpers = static_cast<std::size_t>(rng.next_below(5));
    const std::uint64_t frames = rng.next_below(120);
    const double hole_p = rates[rng.next_below(3)];
    const double dup_p = rates[rng.next_below(3)];
    const double bad_p = rates[rng.next_below(3)];
    const bool shuffle = rng.next_bool(0.25);

    Captures captures(dumpers);
    std::size_t tag = 0;
    for (std::uint64_t seq = 0; dumpers > 0 && seq < frames; ++seq) {
      if (rng.next_bool(hole_p)) continue;
      const int copies = rng.next_bool(dup_p) ? 2 : 1;
      for (int c = 0; c < copies; ++c) {
        captures[rng.next_below(dumpers)].push_back(
            capture(seq, tag++, !rng.next_bool(bad_p), rng));
      }
    }
    if (shuffle) {
      for (auto& run : captures) {
        for (std::size_t i = run.size(); i > 1; --i) {
          std::swap(run[i - 1], run[rng.next_below(i)]);
        }
      }
    }
    // Mirrored counts below, at and above the frame count: the trace can
    // carry sequence numbers the injector never reported, or miss some.
    const auto mirrored =
        static_cast<std::uint64_t>(std::max<std::int64_t>(
            0, static_cast<std::int64_t>(frames) + rng.next_in(-3, 3)));
    const std::uint64_t roce_rx = rng.next_bool(0.5) ? mirrored : frames;
    SCOPED_TRACE("iteration " + std::to_string(iter));
    expect_matches_oracle(captures, mirrored, roce_rx);
  }
}

TEST(TraceReconstruction, DecodedRecordsCarryTrailerCutLengthAndPort4791) {
  // Reconstruction decodes each record's kept bytes with the trimmed
  // parser. On the golden gbn_drop and cnp_inject runs, a whole frame must
  // read its real trailer, a cut one icrc 0 and the payload length its IP
  // header declares, and every frame port 4791, restored at TERM (§3.4).
  for (const bool cnp : {false, true}) {
    TestConfig cfg;
    cfg.requester().nic_type = NicType::kCx6Dx;
    cfg.responder().nic_type = NicType::kCx6Dx;
    cfg.traffic.num_connections = cnp ? 1 : 2;
    cfg.traffic.num_msgs_per_qp = 4;
    cfg.traffic.message_size = 10240;
    cfg.traffic.mtu = 1024;
    if (cnp) {
      for (const std::uint32_t psn : {2u, 5u, 8u}) {
        cfg.traffic.data_pkt_events.push_back(
            DataPacketEvent{1, psn, EventType::kEcn, 1});
      }
    } else {
      cfg.traffic.data_pkt_events.push_back(
          DataPacketEvent{1, 3, EventType::kDrop, 1});
    }
    Orchestrator orch(cfg);
    const TestResult& result = orch.run();
    ASSERT_TRUE(result.integrity.ok());
    std::size_t cut = 0;
    for (const TracePacket& tp : result.trace) {
      SCOPED_TRACE("mirror_seq " + std::to_string(tp.meta.mirror_seq));
      const std::span<const std::uint8_t> bytes = tp.pkt.bytes;
      const RoceView& view = tp.view;
      EXPECT_EQ(view.udp_dst_port, kRoceUdpPort);
      if (bytes.size() < tp.orig_len) {
        ++cut;
        EXPECT_EQ(view.icrc, 0u);
        EXPECT_EQ(view.payload_len, tp.orig_len - view.payload_offset - 4);
      } else {
        EXPECT_EQ(view.icrc, peek_u32(bytes, bytes.size() - 4));
        EXPECT_EQ(view.payload_len, bytes.size() - view.payload_offset - 4);
      }
    }
    // Both kinds occur: cut data frames and whole ACKs (and CNPs).
    EXPECT_GT(cut, 0u);
    EXPECT_LT(cut, result.trace.size());
  }
}

}  // namespace
}  // namespace lumina
