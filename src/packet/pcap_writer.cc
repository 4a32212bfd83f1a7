#include "packet/pcap_writer.h"

#include <array>

namespace lumina {
namespace {

void put_u32le(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

void put_u16le(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

}  // namespace

PcapWriter::~PcapWriter() { close(); }

bool PcapWriter::open(const std::string& path, std::uint32_t snaplen) {
  close();
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) return false;

  std::array<std::uint8_t, 24> header{};
  put_u32le(&header[0], 0xa1b23c4d);  // magic: nanosecond pcap
  put_u16le(&header[4], 2);           // version major
  put_u16le(&header[6], 4);           // version minor
  put_u32le(&header[8], 0);           // thiszone
  put_u32le(&header[12], 0);          // sigfigs
  put_u32le(&header[16], snaplen);
  put_u32le(&header[20], 1);  // LINKTYPE_ETHERNET
  return std::fwrite(header.data(), header.size(), 1, file_) == 1;
}

bool PcapWriter::write(std::span<const std::uint8_t> frame, Tick timestamp,
                       std::size_t orig_len) {
  if (file_ == nullptr) return false;
  const auto ts_sec = static_cast<std::uint32_t>(timestamp / kSecond);
  const auto ts_nsec = static_cast<std::uint32_t>(timestamp % kSecond);
  std::array<std::uint8_t, 16> rec{};
  put_u32le(&rec[0], ts_sec);
  put_u32le(&rec[4], ts_nsec);
  put_u32le(&rec[8], static_cast<std::uint32_t>(frame.size()));
  put_u32le(&rec[12], static_cast<std::uint32_t>(
                          orig_len == 0 ? frame.size() : orig_len));
  if (std::fwrite(rec.data(), rec.size(), 1, file_) != 1) return false;
  if (!frame.empty() &&
      std::fwrite(frame.data(), frame.size(), 1, file_) != 1) {
    return false;
  }
  ++packets_;
  return true;
}

void PcapWriter::close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace lumina
