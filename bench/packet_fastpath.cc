// Packet data-plane microbench: the iCRC fast paths against the retained
// reference implementations (packet/icrc.h, docs/packet.md).
//
// Three workloads:
//   icrc    — copy-free compute_icrc (crc32_update: CLMUL-folded on spans
//             of 64 B or more where the CPU has PCLMULQDQ, else
//             slice-by-8) vs the bit-at-a-time pseudo-packet-materializing
//             compute_icrc_reference, across frame sizes 64B .. 4KiB; plus
//             the CLMUL engine vs slice-by-8 on the same frames (exact
//             agreement checked, speedup reported only).
//   hops    — the switch->mirror->RNIC->dumper chain on one frame: each
//             hop decodes it, and the mirror engine's rewrites land in
//             between. Reports the resulting frame digest, not a timing.
//   migreq  — set_mig_req's trailer update (the iCRC change xored into
//             the trailer) against a refresh_icrc recompute after the same
//             flag writes. Reports the resulting frame digest, not a timing.
//
// Wall-clock throughput is hardware-dependent and only gated loosely (the
// documented floor in docs/campaigns.md: >= 3x on icrc at 1KiB+).
// Correctness is gated exactly: every fast result must equal its
// reference, and with --out the deterministic counters (CRC values and
// frame digests, machine-independent integers) are diffed against
// bench/baselines/packet_fastpath_baseline.json in CI. The speedups are
// printed only: the report's "wall" section stays empty, so a baseline
// regenerated on any machine holds the same bytes.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/bench_util.h"
#include "packet/icrc.h"
#include "packet/roce_packet.h"
#include "telemetry/report.h"

using namespace lumina;
using namespace lumina::bench;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

Packet make_frame(std::uint32_t payload_len) {
  RocePacketSpec spec;
  spec.src_mac = MacAddress::from_u48(0x0200000000aa);
  spec.dst_mac = MacAddress::from_u48(0x0200000000bb);
  spec.src_ip = Ipv4Address::from_octets(10, 0, 0, 1);
  spec.dst_ip = Ipv4Address::from_octets(10, 0, 0, 2);
  spec.opcode = IbOpcode::kWriteOnly;
  spec.reth = Reth{0x1000, 0x55, payload_len};
  spec.payload_len = payload_len;
  spec.dest_qpn = 0x0102;
  spec.psn = 0x4242;
  return build_roce_packet(spec);
}

/// Calls `fn` in batches until ~`budget` seconds elapse; returns calls/s.
template <typename Fn>
double throughput(Fn&& fn, double budget = 0.25) {
  // Warm up (tables, branch predictors) and establish a batch size.
  fn();
  std::uint64_t calls = 0;
  const auto start = std::chrono::steady_clock::now();
  double wall = 0;
  do {
    for (int i = 0; i < 64; ++i) fn();
    calls += 64;
    wall = seconds_since(start);
  } while (wall < budget);
  return static_cast<double>(calls) / wall;
}

std::uint64_t fnv1a_bytes(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const unsigned char byte : bytes) {
    hash = (hash ^ byte) * 0x100000001b3ULL;
  }
  // Report counters parse back as int64: keep the digest in that range.
  return hash & 0x7fffffffffffffffULL;
}

volatile std::uint32_t g_sink = 0;  ///< Defeats dead-code elimination.

}  // namespace

int main(int argc, char** argv) {
  std::string report_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      report_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--out report.json]\n", argv[0]);
      return 2;
    }
  }

  heading("Packet data-plane fast path vs reference implementations");
  ShapeCheck check;
  telemetry::RunReport report;
  report.name = "packet_fastpath";

  // ---- Workload 1: compute_icrc ----------------------------------------
  subheading("icrc: copy-free compute_icrc vs pseudo-packet bitwise, and "
             "the CLMUL vs slice-by-8 crc32_update engines (Mops/s)");
  std::printf("CLMUL supported at runtime: %s\n",
              crc32_clmul_supported() ? "yes" : "no");
  Table icrc_table({"frame", "reference", "fast", "fast/ref", "slice8",
                    "clmul", "clmul/slice8"});
  const std::vector<std::uint32_t> payloads = {0, 192, 952, 4024};
  double icrc_speedup_1k = 0;
  for (const std::uint32_t payload : payloads) {
    const Packet pkt = make_frame(payload);
    const auto frame = pkt.span().first(pkt.size() - 4);
    const std::string size = std::to_string(frame.size());
    const std::uint32_t fast_value = compute_icrc(frame, off::kIp);
    const std::uint32_t ref_value = compute_icrc_reference(frame, off::kIp);
    check.expect(fast_value == ref_value, "icrc equal at frame " + size + "B");
    check.expect(crc32_update_clmul(kCrcInit, frame) ==
                     crc32_update_slice8(kCrcInit, frame),
                 "clmul == slice8 at frame " + size + "B");
    report.deterministic.counters["icrc_frame_" + size] = fast_value;

    const double ref_rate = throughput(
        [&frame] { g_sink = compute_icrc_reference(frame, off::kIp); });
    const double fast_rate =
        throughput([&frame] { g_sink = compute_icrc(frame, off::kIp); });
    const double slice_rate = throughput(
        [&frame] { g_sink = crc32_update_slice8(kCrcInit, frame); });
    const double clmul_rate = throughput(
        [&frame] { g_sink = crc32_update_clmul(kCrcInit, frame); });
    const double speedup = fast_rate / ref_rate;
    if (frame.size() >= 1000) {
      icrc_speedup_1k = std::max(icrc_speedup_1k, speedup);
    }
    icrc_table.add_row(
        {size + "B", fmt("%.2f", ref_rate / 1e6), fmt("%.2f", fast_rate / 1e6),
         fmt("%.2fx", speedup), fmt("%.2f", slice_rate / 1e6),
         fmt("%.2f", clmul_rate / 1e6), fmt("%.2fx", clmul_rate / slice_rate)});
  }
  icrc_table.print();

  // ---- Workload 2: hop chain --------------------------------------------
  subheading("hops: switch->mirror->RNIC->dumper chain (frame digest)");
  // One chain = the parses and rewrites a frame sees end to end: the
  // injector parses, the mirror engine rewrites TTL/MACs/UDP port, then
  // the receiving RNIC and the dumper each parse again.
  Table hop_table({"frame", "digest"});
  for (const std::uint32_t payload : {192u, 952u}) {
    Packet pkt = make_frame(payload);
    int parsed = parse_roce(pkt) ? 1 : 0;  // injector classifies
    set_ttl(pkt, 1);                       // mirror embeds event type
    set_src_mac(pkt, 7);                   // ... and mirror sequence
    set_dst_mac(pkt, 9);                   // ... and ingress timestamp
    set_udp_dst_port(pkt, 31337);          // ... and the RSS trick
    parsed += parse_roce(pkt) ? 1 : 0;     // RNIC receive path
    parsed += parse_roce(pkt, /*allow_trimmed=*/true) ? 1 : 0;  // dumper
    check.expect(parsed == 3, "every hop parses the frame at payload " +
                                  std::to_string(payload));
    const std::uint64_t digest = fnv1a_bytes(pkt.bytes);
    report.deterministic.counters["hop_digest_" + std::to_string(payload)] =
        digest;
    hop_table.add_row({std::to_string(pkt.size()) + "B",
                       std::to_string(digest)});
  }
  hop_table.print();

  // ---- Workload 3: MigReq rewrite ---------------------------------------
  subheading("migreq: set_mig_req vs flag write plus refresh_icrc "
             "(frame digest)");
  Table migreq_table({"frame", "digest"});
  for (const std::uint32_t payload : {192u, 4024u}) {
    // The frame is built with MigReq 1; clear it and set it again, and
    // after each write compare against a whole-frame recompute.
    Packet pkt = make_frame(payload);
    Packet full_pkt = make_frame(payload);
    for (const bool flag : {false, true}) {
      set_mig_req(pkt, flag);
      full_pkt.bytes[off::kBthFlags] =
          static_cast<std::uint8_t>(flag ? 0x40 : 0x00);
      refresh_icrc(full_pkt);
      check.expect(full_pkt.bytes == pkt.bytes,
                   "set_mig_req(" + std::string(flag ? "true" : "false") +
                       ") equals recompute at payload " +
                       std::to_string(payload));
    }
    const std::uint64_t digest = fnv1a_bytes(pkt.bytes);
    report.deterministic.counters["migreq_digest_" +
                                  std::to_string(payload)] = digest;
    migreq_table.add_row({std::to_string(pkt.size()) + "B",
                          std::to_string(digest)});
  }
  migreq_table.print();

  // Documented floor (docs/campaigns.md, bench-gate section). A generous
  // margin below the typically-observed speedup so shared CI runners
  // don't flake, but tight enough to catch the fast path silently
  // regressing to the reference.
  check.expect(icrc_speedup_1k >= 3.0,
               "compute_icrc >= 3x reference on 1KiB+ frames (" +
                   fmt("%.1f", icrc_speedup_1k) + "x)");

  if (!report_out.empty()) {
    std::string failed;
    if (!telemetry::write_report(report, report_out, &failed)) {
      std::fprintf(stderr, "error: failed to write %s\n", failed.c_str());
      return 2;
    }
    std::printf("\nreport written to %s\n", report_out.c_str());
  }

  return check.print_and_exit_code();
}
