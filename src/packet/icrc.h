// RoCEv2 invariant CRC (iCRC).
//
// Per IBTA annex A17, the iCRC is CRC32 (Ethernet polynomial, reflected)
// computed over a pseudo packet: 64 bits of 1s standing in for the fields a
// router may change, followed by the IP header with TOS/TTL/checksum masked
// to 1s, the UDP header with checksum masked, the BTH with the resv8a byte
// masked, and the rest of the transport headers plus payload.
//
// The masking is what makes Lumina's metadata embedding legal: rewriting
// TTL (event type), ECN bits, and the Ethernet MACs (mirror seq/timestamp)
// never invalidates the iCRC.
//
// Implementation notes (docs/packet.md):
//   - crc32()/crc32_update() dispatch at runtime between two engines: a
//     CLMUL path (PCLMULQDQ 4-way 128-bit folding, on x86-64 CPUs that
//     have it) for spans of at least kClmulMinSpan bytes, and slice-by-8
//     (eight 256-entry tables, one 8-byte step per iteration) everywhere
//     else. Both engines are exported for differential testing;
//     -DLUMINA_DISABLE_CLMUL=ON builds without the CLMUL path entirely.
//   - compute_icrc() never materializes the whole masked pseudo packet:
//     it copies only its first 64 bytes (the 0xff prefix and the start of
//     L3, which holds every masked byte) into a stack block, masks them
//     there, and runs one CRC update over the block and one over the rest
//     of the frame in place.
//   - crc32_reference()/compute_icrc_reference() keep the original
//     bit-at-a-time / pseudo-packet implementations as differential oracles
//     (tests, the crc-differential fuzz target, bench/packet_fastpath).
#pragma once

#include <cstdint>
#include <span>

namespace lumina {

/// Initial CRC32 state (also the final xor constant).
inline constexpr std::uint32_t kCrcInit = 0xffffffffu;

/// Plain reflected CRC32 (poly 0xEDB88320), init/final-xor 0xFFFFFFFF.
std::uint32_t crc32(std::span<const std::uint8_t> data,
                    std::uint32_t seed = kCrcInit);

/// Streaming form: advances a raw CRC state over `data` without applying
/// the final xor. `crc32(data, seed) == crc32_final(crc32_update(seed,
/// data))`; segmented callers chain updates across spans. Dispatches to
/// the CLMUL engine for long spans when the CPU supports it.
std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data);

/// True when the CLMUL-folded engine is compiled in (x86-64, not built
/// with LUMINA_DISABLE_CLMUL) and this CPU has PCLMULQDQ + SSE4.1.
bool crc32_clmul_supported();

/// The slice-by-8 engine, unconditionally available. Retained as the
/// fallback and as the differential oracle for the CLMUL engine.
std::uint32_t crc32_update_slice8(std::uint32_t state,
                                  std::span<const std::uint8_t> data);

/// Shortest span the CLMUL engine folds: one 64-byte fold block (four
/// 128-bit lanes). Below it, folding cannot beat the table walk.
inline constexpr std::size_t kClmulMinSpan = 64;

/// The CLMUL-folded engine. Identical results to crc32_update_slice8 on
/// every input; falls back to slice-by-8 for spans shorter than
/// kClmulMinSpan or when crc32_clmul_supported() is false.
std::uint32_t crc32_update_clmul(std::uint32_t state,
                                 std::span<const std::uint8_t> data);

/// Applies the final inversion to a raw streaming state.
constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ kCrcInit;
}

/// Computes the RoCEv2 iCRC over a serialized frame. `l3_offset` is the
/// byte offset of the IPv4 header within `frame` (14 for plain Ethernet).
/// The frame must extend to the end of the IB payload, iCRC excluded.
std::uint32_t compute_icrc(std::span<const std::uint8_t> frame,
                           std::size_t l3_offset);

// ---- Reference implementations (differential oracles) -------------------
// Retained byte-for-byte equivalents of the pre-fast-path code: a
// bit-at-a-time CRC32 and a compute_icrc that materializes the masked
// pseudo packet. Exercised by unit tests, the crc-differential fuzz
// target, and the bench/packet_fastpath shape checks; never on the hot
// path.

/// Bit-at-a-time reflected CRC32; identical results to crc32().
std::uint32_t crc32_reference(std::span<const std::uint8_t> data,
                              std::uint32_t seed = kCrcInit);

/// Pseudo-packet-materializing iCRC; identical results to compute_icrc().
std::uint32_t compute_icrc_reference(std::span<const std::uint8_t> frame,
                                     std::size_t l3_offset);

}  // namespace lumina
