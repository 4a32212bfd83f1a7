// Verbs-layer value types: work requests, completions, QP attributes.
//
// The surface intentionally mirrors libibverbs semantics (create QP,
// connect with remote QPN/PSN/GID, post work requests, poll completions),
// so the traffic generator reads like its real counterpart.
#pragma once

#include <cstdint>
#include <functional>

#include "config/test_config.h"
#include "packet/ib.h"
#include "packet/addresses.h"
#include "util/time.h"

namespace lumina {

struct WorkRequest {
  std::uint64_t wr_id = 0;
  RdmaVerb verb = RdmaVerb::kWrite;
  std::uint64_t length = 0;       ///< Message size in bytes.
  std::uint64_t remote_addr = 0;  ///< RETH/AtomicETH vaddr.
  std::uint32_t rkey = 0;
  /// Atomics: the add operand (FetchAdd) or compare operand (CmpSwap).
  std::uint64_t compare_add = 0;
  /// Atomics: the swap value (CmpSwap only).
  std::uint64_t swap = 0;
};

enum class WcStatus {
  kSuccess,
  kRetryExceeded,     ///< IBV_WC_RETRY_EXC_ERR: RTO retries exhausted.
  kRnrRetryExceeded,  ///< IBV_WC_RNR_RETRY_EXC_ERR: receiver never ready.
  kRemoteAccessError, ///< IBV_WC_REM_ACCESS_ERR: bad rkey / out of bounds.
  kFlushed,           ///< QP moved to error state; outstanding WRs flushed.
};

struct WorkCompletion {
  std::uint64_t wr_id = 0;
  WcStatus status = WcStatus::kSuccess;
  Tick completed_at = 0;
  /// Atomics: the original 64-bit value read from responder memory.
  std::uint64_t atomic_original = 0;
};

using CompletionCallback = std::function<void(const WorkCompletion&)>;

/// Everything needed to transition a QP to RTR/RTS — the metadata the two
/// traffic generators exchange over their out-of-band TCP connection
/// (§3.2) and share with the event injector (§3.3).
struct QpEndpointInfo {
  Ipv4Address ip;          ///< GID, IPv4-mapped.
  std::uint32_t qpn = 0;
  std::uint32_t ipsn = 0;  ///< Initial PSN of packets this endpoint sends.
  std::uint64_t buffer_addr = 0;
  std::uint64_t buffer_len = 64 * 1024 * 1024;  ///< Registered MR size.
  std::uint32_t rkey = 0;
};

struct QpConfig {
  std::uint32_t mtu = 1024;
  /// IB timeout exponent: minimum RTO = 4.096 us * 2^timeout.
  int timeout = 14;
  int retry_cnt = 7;
  bool adaptive_retrans = false;
  int traffic_class = 0;  ///< ETS traffic class this QP maps to.
  /// Responder acknowledges every Nth in-order packet within a message
  /// (besides the per-message ACK), keeping the requester's snd_una fresh
  /// across long transfers.
  int ack_coalescing = 16;
  /// Send/Recv flow control: retries allowed after RNR NAKs and the IBTA
  /// RNR timer code the responder advertises (12 -> 0.64 ms).
  int rnr_retry = 7;
  std::uint8_t rnr_timer_code = 12;
};

/// IBTA RNR NAK timer table: code -> wait before the requester retries.
Tick rnr_timer_to_wait(std::uint8_t code);

/// Minimum retransmission timeout for an IB timeout exponent.
constexpr Tick ib_timeout_to_rto(int exponent) {
  // 4.096 us * 2^exponent, computed in ns without floating point.
  return (Tick{4096} << exponent);
}

}  // namespace lumina
