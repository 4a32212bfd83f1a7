#include "packet/pcap_writer.h"

namespace lumina {
namespace {

void put_u32le(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v));
  out.push_back(static_cast<char>(v >> 8));
  out.push_back(static_cast<char>(v >> 16));
  out.push_back(static_cast<char>(v >> 24));
}

void put_u16le(std::string& out, std::uint16_t v) {
  out.push_back(static_cast<char>(v));
  out.push_back(static_cast<char>(v >> 8));
}

}  // namespace

std::string pcap_file_header() {
  std::string header;
  put_u32le(header, 0xa1b23c4d);  // magic: nanosecond pcap
  put_u16le(header, 2);           // version major
  put_u16le(header, 4);           // version minor
  put_u32le(header, 0);           // thiszone
  put_u32le(header, 0);           // sigfigs
  put_u32le(header, 65535);       // snaplen
  put_u32le(header, 1);           // LINKTYPE_ETHERNET
  return header;
}

void append_pcap_record(std::string& out, std::span<const std::uint8_t> frame,
                        Tick timestamp, std::size_t orig_len) {
  put_u32le(out, static_cast<std::uint32_t>(timestamp / kSecond));
  put_u32le(out, static_cast<std::uint32_t>(timestamp % kSecond));
  put_u32le(out, static_cast<std::uint32_t>(frame.size()));
  put_u32le(out, static_cast<std::uint32_t>(orig_len == 0 ? frame.size()
                                                          : orig_len));
  out.append(frame.begin(), frame.end());
}

}  // namespace lumina
