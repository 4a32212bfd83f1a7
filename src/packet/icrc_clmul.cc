// CLMUL-folded CRC32 engine (packet/icrc.h).
//
// The classic PCLMULQDQ carry-less-multiply folding scheme for the
// reflected CRC-32 polynomial (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction"): four 128-bit lanes
// fold 64 input bytes per iteration, the lanes collapse 4→1 over 128-bit
// distances, and remaining 16-byte blocks fold into the last lane. Spans
// shorter than one 64-byte block (kClmulMinSpan) go to slice-by-8.
//
// Instead of the Barrett reduction the reference scheme ends with, the
// final 16-byte accumulator — which is CRC-equivalent to everything
// consumed so far — is simply finished through the slice-by-8 engine
// along with the sub-16-byte tail. That keeps the two engines sharing one
// reduction code path and makes the fold invariant directly testable:
// at every point, slice8(0, acc_bytes ++ rest) == slice8(state, input).
//
// Differentially pinned against slice-by-8 by the ClmulCrc tests in
// tests/unit/packet_test.cc, and through the crc32_update dispatcher
// against the bit-at-a-time reference by the crc-differential fuzz
// target; equal results on every input.
#include "packet/icrc.h"

#if defined(__x86_64__) && !defined(LUMINA_DISABLE_CLMUL) && \
    (defined(__GNUC__) || defined(__clang__))
#define LUMINA_HAVE_CLMUL 1
#include <immintrin.h>
#endif

namespace lumina {

#ifdef LUMINA_HAVE_CLMUL

bool crc32_clmul_supported() {
  static const bool ok = __builtin_cpu_supports("pclmul") &&
                         __builtin_cpu_supports("sse4.1");
  return ok;
}

namespace {

// Folds lane `x` forward by the distance encoded in `k` and xors in the
// next 128 bits of input. A free function (not a lambda) because GCC does
// not propagate the enclosing function's target attribute into lambdas,
// which breaks inlining of the always_inline intrinsics.
__attribute__((target("pclmul,sse4.1"), always_inline)) inline __m128i
fold(__m128i x, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                                     _mm_clmulepi64_si128(x, k, 0x11)),
                       next);
}

/// Folds `len` >= kClmulMinSpan bytes at `p` into a 16-byte accumulator
/// `acc`; the sub-16-byte remainder is returned through `tail`/`tail_len`.
__attribute__((target("pclmul,sse4.1")))
void update_clmul(std::uint32_t state, const std::uint8_t* p, std::size_t len,
                  const std::uint8_t** tail, std::size_t* tail_len,
                  std::uint8_t acc[16]) {
  static_assert(kClmulMinSpan == 64, "the first block fills all four lanes");
  // Folding constants for the reflected CRC-32 polynomial: k512 advances a
  // 128-bit lane 512 bits (the 4-lane loop), k128 advances 128 bits (lane
  // collapse and the 16-byte remainder loop).
  const __m128i k512 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k128 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);

  __m128i x0 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0));
  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48));
  // The raw CRC state xors into the first 4 message bytes, exactly as the
  // slice-by-8 engine's first step does.
  x0 = _mm_xor_si128(x0, _mm_cvtsi32_si128(static_cast<int>(state)));
  p += 64;
  len -= 64;
  while (len >= 64) {
    x0 = fold(x0, k512,
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 0)));
    x1 = fold(x1, k512,
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)));
    x2 = fold(x2, k512,
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 32)));
    x3 = fold(x3, k512,
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 48)));
    p += 64;
    len -= 64;
  }
  x1 = fold(x0, k128, x1);
  x2 = fold(x1, k128, x2);
  x3 = fold(x2, k128, x3);
  while (len >= 16) {
    x3 = fold(x3, k128, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
    p += 16;
    len -= 16;
  }
  _mm_storeu_si128(reinterpret_cast<__m128i*>(acc), x3);
  *tail = p;
  *tail_len = len;
}

}  // namespace

std::uint32_t crc32_update_clmul(std::uint32_t state,
                                 std::span<const std::uint8_t> data) {
  if (data.size() < kClmulMinSpan || !crc32_clmul_supported()) {
    return crc32_update_slice8(state, data);
  }
  const std::uint8_t* tail = nullptr;
  std::size_t tail_len = 0;
  alignas(16) std::uint8_t acc[16];
  update_clmul(state, data.data(), data.size(), &tail, &tail_len, acc);
  // Finish the 16-byte accumulator plus the sub-16-byte tail through the
  // table engine (see file comment: this replaces the Barrett reduction).
  const std::uint32_t folded =
      crc32_update_slice8(0, std::span<const std::uint8_t>(acc, 16));
  return crc32_update_slice8(folded,
                             std::span<const std::uint8_t>(tail, tail_len));
}

#else  // !LUMINA_HAVE_CLMUL

bool crc32_clmul_supported() { return false; }

std::uint32_t crc32_update_clmul(std::uint32_t state,
                                 std::span<const std::uint8_t> data) {
  return crc32_update_slice8(state, data);
}

#endif  // LUMINA_HAVE_CLMUL

}  // namespace lumina
