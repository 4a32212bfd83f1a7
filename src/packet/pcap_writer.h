// Classic pcap (nanosecond-resolution) trace bytes.
//
// The traffic dumper's reconstructed trace is persisted as standard pcap so
// it can be inspected with tcpdump/wireshark, matching the real Lumina flow.
// These builders only produce bytes; a caller appends the records to the
// header and writes the whole file with util/file_io's write_file.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "util/time.h"

namespace lumina {

/// The 24-byte global header: nanosecond magic, version 2.4, snaplen
/// 65535, LINKTYPE_ETHERNET.
std::string pcap_file_header();

/// Appends one record to `out`: the 16-byte record header, then the
/// frame's bytes. `orig_len` lets a trimmed frame record its true on-wire
/// length (0: the frame is whole).
void append_pcap_record(std::string& out, std::span<const std::uint8_t> frame,
                        Tick timestamp, std::size_t orig_len = 0);

}  // namespace lumina
