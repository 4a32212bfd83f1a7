// Big-endian byte buffer reader/writer used by all header codecs.
//
// Network byte order throughout; 24- and 48-bit accessors exist because
// InfiniBand headers (QPN, PSN) are 24-bit and MAC addresses are 48-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace lumina {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u24(std::uint32_t v) {
    out_.push_back(static_cast<std::uint8_t>(v >> 16));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
    out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u48(std::uint64_t v) {
    u16(static_cast<std::uint16_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  void raw(std::span<const std::uint8_t> bytes) {
    out_.insert(out_.end(), bytes.begin(), bytes.end());
  }

  std::size_t size() const { return out_.size(); }

 private:
  std::vector<std::uint8_t>& out_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> in) : in_(in) {}

  bool ok() const { return ok_; }
  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return ok_ ? in_.size() - pos_ : 0; }

  std::uint8_t u8() { return take(1) ? in_[pos_ - 1] : 0; }
  std::uint16_t u16() {
    if (!take(2)) return 0;
    return static_cast<std::uint16_t>(in_[pos_ - 2] << 8 | in_[pos_ - 1]);
  }
  std::uint32_t u24() {
    if (!take(3)) return 0;
    return static_cast<std::uint32_t>(in_[pos_ - 3]) << 16 |
           static_cast<std::uint32_t>(in_[pos_ - 2]) << 8 | in_[pos_ - 1];
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return hi << 16 | u16();
  }
  std::uint64_t u48() {
    const std::uint64_t hi = u16();
    return hi << 32 | u32();
  }
  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return hi << 32 | u32();
  }
  void skip(std::size_t n) { take(n); }

 private:
  bool take(std::size_t n) {
    if (!ok_ || in_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    pos_ += n;
    return true;
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// In-place big-endian field patching (used by the switch data plane to
/// rewrite header fields of already-serialized packets).
inline void poke_u8(std::span<std::uint8_t> buf, std::size_t at,
                    std::uint8_t v) {
  buf[at] = v;
}
inline void poke_u16(std::span<std::uint8_t> buf, std::size_t at,
                     std::uint16_t v) {
  buf[at] = static_cast<std::uint8_t>(v >> 8);
  buf[at + 1] = static_cast<std::uint8_t>(v);
}
inline void poke_u48(std::span<std::uint8_t> buf, std::size_t at,
                     std::uint64_t v) {
  for (int i = 0; i < 6; ++i) {
    buf[at + i] = static_cast<std::uint8_t>(v >> (8 * (5 - i)));
  }
}
inline std::uint16_t peek_u16(std::span<const std::uint8_t> buf,
                              std::size_t at) {
  return static_cast<std::uint16_t>(buf[at] << 8 | buf[at + 1]);
}
inline std::uint32_t peek_u32(std::span<const std::uint8_t> buf,
                              std::size_t at) {
  return static_cast<std::uint32_t>(peek_u16(buf, at)) << 16 |
         peek_u16(buf, at + 2);
}
inline std::uint64_t peek_u48(std::span<const std::uint8_t> buf,
                              std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 6; ++i) v = v << 8 | buf[at + i];
  return v;
}

}  // namespace lumina
