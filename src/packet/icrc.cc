#include "packet/icrc.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <vector>

namespace lumina {
namespace {

constexpr std::uint32_t kPoly = 0xedb88320u;

/// Slice-by-8 lookup tables. Table 0 is the classic byte-at-a-time table;
/// table k maps a byte to its CRC contribution k positions further along,
/// so one iteration folds 8 input bytes into the state.
struct CrcTables {
  std::array<std::array<std::uint32_t, 256>, 8> t;
};

CrcTables make_crc_tables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? kPoly ^ (c >> 1) : c >> 1;
    }
    tables.t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables.t[k - 1][i];
      tables.t[k][i] = tables.t[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

const CrcTables& crc_tables() {
  static const CrcTables tables = make_crc_tables();
  return tables;
}

std::uint32_t update_bytewise(const CrcTables& tables, std::uint32_t state,
                              const std::uint8_t* p, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    state = tables.t[0][(state ^ p[i]) & 0xff] ^ (state >> 8);
  }
  return state;
}

}  // namespace

std::uint32_t crc32_update_slice8(std::uint32_t state,
                                  std::span<const std::uint8_t> data) {
  const CrcTables& tables = crc_tables();  // hoist the static-init guard
  const std::uint8_t* p = data.data();
  std::size_t len = data.size();

  if constexpr (std::endian::native == std::endian::little) {
    while (len >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= state;
      state = tables.t[7][lo & 0xff] ^ tables.t[6][(lo >> 8) & 0xff] ^
              tables.t[5][(lo >> 16) & 0xff] ^ tables.t[4][lo >> 24] ^
              tables.t[3][hi & 0xff] ^ tables.t[2][(hi >> 8) & 0xff] ^
              tables.t[1][(hi >> 16) & 0xff] ^ tables.t[0][hi >> 24];
      p += 8;
      len -= 8;
    }
  }
  return update_bytewise(tables, state, p, len);
}

std::uint32_t crc32_update(std::uint32_t state,
                           std::span<const std::uint8_t> data) {
  // The supported() branch resolves to a cached bool.
  if (data.size() >= kClmulMinSpan && crc32_clmul_supported()) {
    return crc32_update_clmul(state, data);
  }
  return crc32_update_slice8(state, data);
}

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t seed) {
  return crc32_final(crc32_update(seed, data));
}

std::uint32_t compute_icrc(std::span<const std::uint8_t> frame,
                           std::size_t l3_offset) {
  // Masked byte offsets relative to the IPv4 header, ascending: TOS, TTL,
  // IP checksum (2), UDP checksum (2), BTH resv8a.
  constexpr std::size_t kIpv4Size = 20;
  constexpr std::size_t kUdpSize = 8;
  constexpr std::size_t kMasked[] = {
      1, 8, 10, 11, kIpv4Size + 6, kIpv4Size + 7, kIpv4Size + kUdpSize + 4};
  constexpr std::size_t kPrefixSize = 8;
  constexpr std::size_t kHeadSize = 56;
  static_assert(kMasked[std::size(kMasked) - 1] < kHeadSize);

  // Every masked byte lies in the first 56 bytes of L3, so only the pseudo
  // packet's first 64 bytes are built: the 8-byte 0xff prefix (dummy LRH)
  // and the start of L3 with its masked bytes forced to 0xff, in one stack
  // block. The CRC is one update over the block and one over the rest of
  // L3, read in place.
  const std::span<const std::uint8_t> l3 = frame.subspan(l3_offset);
  const std::size_t head = std::min(kHeadSize, l3.size());
  std::array<std::uint8_t, kPrefixSize + kHeadSize> block{};
  std::fill_n(block.data(), kPrefixSize, std::uint8_t{0xff});
  std::copy_n(l3.data(), head, block.data() + kPrefixSize);
  for (const std::size_t masked : kMasked) {
    if (masked < head) block[kPrefixSize + masked] = 0xff;
  }
  const std::span<const std::uint8_t> pseudo_head(block.data(),
                                                  kPrefixSize + head);
  const std::uint32_t state = crc32_update(kCrcInit, pseudo_head);
  return crc32_final(crc32_update(state, l3.subspan(head)));
}

// ---- Reference implementations ------------------------------------------

std::uint32_t crc32_reference(std::span<const std::uint8_t> data,
                              std::uint32_t seed) {
  std::uint32_t state = seed;
  for (const std::uint8_t byte : data) {
    state ^= byte;
    for (int k = 0; k < 8; ++k) {
      state = (state & 1) ? kPoly ^ (state >> 1) : state >> 1;
    }
  }
  return crc32_final(state);
}

std::uint32_t compute_icrc_reference(std::span<const std::uint8_t> frame,
                                     std::size_t l3_offset) {
  // The original implementation: build the masked pseudo packet (bulk
  // copy, then patch the masked bytes), CRC the copy.
  constexpr std::size_t kIpv4Size = 20;
  constexpr std::size_t kUdpSize = 8;

  std::vector<std::uint8_t> pseudo;
  pseudo.reserve(8 + frame.size() - l3_offset);

  // 64 bits of 1s (dummy LRH / fields outside the invariant scope).
  pseudo.insert(pseudo.end(), 8, 0xff);
  pseudo.insert(pseudo.end(),
                frame.begin() + static_cast<std::ptrdiff_t>(l3_offset),
                frame.end());

  std::uint8_t* const l3 = pseudo.data() + 8;
  const std::size_t l3_len = pseudo.size() - 8;
  const auto mask = [l3, l3_len](std::size_t rel) {
    if (rel < l3_len) l3[rel] = 0xff;
  };
  mask(1);                         // IPv4 TOS (DSCP+ECN)
  mask(8);                         // IPv4 TTL
  mask(10);                        // IPv4 header checksum
  mask(11);
  mask(kIpv4Size + 6);             // UDP checksum
  mask(kIpv4Size + 7);
  mask(kIpv4Size + kUdpSize + 4);  // BTH resv8a

  return crc32_reference(pseudo);
}

}  // namespace lumina
