// Classic pcap (nanosecond-resolution) trace file writer.
//
// The traffic dumper persists reconstructed traces as standard pcap so they
// can be inspected with tcpdump/wireshark, matching the real Lumina flow.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>

#include "util/time.h"

namespace lumina {

class PcapWriter {
 public:
  PcapWriter() = default;
  ~PcapWriter();

  PcapWriter(const PcapWriter&) = delete;
  PcapWriter& operator=(const PcapWriter&) = delete;

  /// Opens `path` and writes the global header. Returns false on I/O error.
  bool open(const std::string& path, std::uint32_t snaplen = 65535);

  /// Appends one frame's bytes with the given capture timestamp.
  /// `orig_len` lets trimmed frames record their true on-wire length (0:
  /// the frame is whole).
  bool write(std::span<const std::uint8_t> frame, Tick timestamp,
             std::size_t orig_len = 0);

  void close();
  bool is_open() const { return file_ != nullptr; }
  std::size_t packets_written() const { return packets_; }

 private:
  std::FILE* file_ = nullptr;
  std::size_t packets_ = 0;
};

}  // namespace lumina
