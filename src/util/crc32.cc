// Copyright (c) 2026 The DeltaMerge Authors.

#include "util/crc32.h"

#include <array>
#include <bit>
#include <cstring>

#include "util/macros.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DM_CRC32_HAVE_FOLD 1
#include <immintrin.h>
#else
#define DM_CRC32_HAVE_FOLD 0
#endif

namespace deltamerge {

namespace {

// Reflected CRC-32, polynomial 0xEDB88320 (the IEEE/zlib polynomial).
// Every kernel below works on the inverted register: c = ~crc.

// kSlice[0] is the classic byte table; kSlice[k][i] is the register after
// byte i followed by k zero bytes, so eight table lookups advance the
// register by eight input bytes at once (slicing-by-8).
constexpr std::array<std::array<uint32_t, 256>, 8> BuildSliceTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kSlice =
    BuildSliceTables();

uint32_t Slice8(const uint8_t* p, size_t n, uint32_t c) {
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      uint32_t lo = 0, hi = 0;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = kSlice[7][lo & 0xFF] ^ kSlice[6][(lo >> 8) & 0xFF] ^
          kSlice[5][(lo >> 16) & 0xFF] ^ kSlice[4][lo >> 24] ^
          kSlice[3][hi & 0xFF] ^ kSlice[2][(hi >> 8) & 0xFF] ^
          kSlice[1][(hi >> 16) & 0xFF] ^ kSlice[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) c = kSlice[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#if DM_CRC32_HAVE_FOLD

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009). Four
// 128-bit accumulators each absorb every fourth 16-byte block: multiplying
// an accumulator's halves by x^(512±32) mod P moves it 64 bytes forward, so
// the four dependency chains overlap the multiplier's latency. The end
// folds the four into one (x^(128±32) mod P), then reduces 128 -> 64 -> 32
// bits with a Barrett step. Constants are the bit-reflected ones for the
// IEEE polynomial P = 0x104C11DB7 from that paper (also in zlib and Linux).
constexpr long long kK1 = 0x154442bd4;   // x^(4*128+32) mod P
constexpr long long kK2 = 0x1c6e41596;   // x^(4*128-32) mod P
constexpr long long kK3 = 0x1751997d0;   // x^(128+32) mod P
constexpr long long kK4 = 0x0ccaa009e;   // x^(128-32) mod P
constexpr long long kK5 = 0x163cd6124;   // x^64 mod P
constexpr long long kPoly = 0x1db710641;  // P, reflected
constexpr long long kMu = 0x1f7011641;    // floor(x^64 / P), reflected

__attribute__((target("pclmul"))) inline __m128i Fold(__m128i acc,
                                                      __m128i k,
                                                      __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

inline __m128i Load(const uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Advances register `c` over p[0..n); requires n >= 64 and n % 16 == 0.
__attribute__((target("pclmul"))) uint32_t FoldBlocks(const uint8_t* p,
                                                      size_t n, uint32_t c) {
  const __m128i k1k2 = _mm_set_epi64x(kK2, kK1);
  const __m128i k3k4 = _mm_set_epi64x(kK4, kK3);
  const __m128i k5 = _mm_set_epi64x(0, kK5);
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);

  __m128i a0 = _mm_xor_si128(Load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i a1 = Load(p + 16);
  __m128i a2 = Load(p + 32);
  __m128i a3 = Load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    a0 = Fold(a0, k1k2, Load(p));
    a1 = Fold(a1, k1k2, Load(p + 16));
    a2 = Fold(a2, k1k2, Load(p + 32));
    a3 = Fold(a3, k1k2, Load(p + 48));
  }
  a0 = Fold(a0, k3k4, a1);
  a0 = Fold(a0, k3k4, a2);
  a0 = Fold(a0, k3k4, a3);
  for (; n >= 16; p += 16, n -= 16) a0 = Fold(a0, k3k4, Load(p));

  // 128 -> 64 bits: the low half times x^(128-32), into the high half.
  __m128i t = _mm_clmulepi64_si128(a0, k3k4, 0x10);
  a0 = _mm_xor_si128(_mm_srli_si128(a0, 8), t);
  // 64 -> 32 bits (plus 32 pending): the low word times x^64.
  t = _mm_srli_si128(a0, 4);
  a0 = _mm_clmulepi64_si128(_mm_and_si128(a0, low32), k5, 0x00);
  a0 = _mm_xor_si128(a0, t);
  // Barrett reduction: q = low32(a0) * mu, then a0 ^= low32(q) * P.
  t = _mm_clmulepi64_si128(_mm_and_si128(a0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  a0 = _mm_xor_si128(a0, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(a0, 4)));
}

#endif  // DM_CRC32_HAVE_FOLD

/// Below this, the fold's setup and 128 -> 32 reduction cost more than
/// table lookups (it also needs one full 64-byte block to start).
constexpr size_t kFoldMinBytes = 64;

// --- Crc32Combine machinery (zlib's gf2-matrix crc32_combine) ---------------
//
// Appending k zero bits to a message transforms its CRC register linearly
// over GF(2), so "append k zeros" is a 32x32 bit matrix. We precompute the
// operators for 2^k zero BYTES once; combining then walks the set bits of
// len_b. The pre/post inversion of the CRC cancels out exactly as in zlib:
// crc(A||B) = apply_zeros(crc(A), len_b) ^ crc(B).

uint32_t Gf2MatrixTimes(const uint32_t* mat, uint32_t vec) {
  uint32_t sum = 0;
  while (vec != 0) {
    if (vec & 1) sum ^= *mat;
    vec >>= 1;
    ++mat;
  }
  return sum;
}

void Gf2MatrixSquare(uint32_t* square, const uint32_t* mat) {
  for (int n = 0; n < 32; ++n) square[n] = Gf2MatrixTimes(mat, mat[n]);
}

/// byte_ops[k] is the operator for appending 2^k zero bytes.
struct ZeroByteOperators {
  uint32_t byte_ops[64][32];

  ZeroByteOperators() {
    // Operator for ONE zero bit: the CRC shift-and-conditionally-xor step.
    uint32_t odd[32];
    odd[0] = 0xEDB88320u;  // the reflected polynomial
    uint32_t row = 1;
    for (int n = 1; n < 32; ++n) {
      odd[n] = row;
      row <<= 1;
    }
    // Square up to 8 zero bits = 1 zero byte, then keep doubling.
    uint32_t even[32];
    Gf2MatrixSquare(even, odd);           // 2 bits
    Gf2MatrixSquare(odd, even);           // 4 bits
    Gf2MatrixSquare(byte_ops[0], odd);    // 8 bits = 1 byte
    for (int k = 1; k < 64; ++k) {
      Gf2MatrixSquare(byte_ops[k], byte_ops[k - 1]);
    }
  }
};

const ZeroByteOperators& ZeroOps() {
  static const ZeroByteOperators ops;
  return ops;
}

}  // namespace

namespace detail {

uint32_t Crc32Slice8(const void* data, size_t n, uint32_t seed) {
  return ~Slice8(static_cast<const uint8_t*>(data), n, ~seed);
}

bool Crc32FoldSupported() {
#if DM_CRC32_HAVE_FOLD
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") != 0;
  }();
  return supported;
#else
  return false;
#endif
}

uint32_t Crc32Fold(const void* data, size_t n, uint32_t seed) {
  DM_DCHECK(Crc32FoldSupported());
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~seed;
#if DM_CRC32_HAVE_FOLD
  if (n >= kFoldMinBytes) {
    const size_t blocks = n & ~size_t{15};
    c = FoldBlocks(p, blocks, c);
    p += blocks;
    n -= blocks;
  }
#endif
  return ~Slice8(p, n, c);
}

}  // namespace detail

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  if (n >= kFoldMinBytes && detail::Crc32FoldSupported()) {
    return detail::Crc32Fold(data, n, seed);
  }
  return detail::Crc32Slice8(data, n, seed);
}

uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b) {
  if (len_b == 0) return crc_a;
  const ZeroByteOperators& ops = ZeroOps();
  for (int k = 0; len_b != 0; ++k, len_b >>= 1) {
    if (len_b & 1) crc_a = Gf2MatrixTimes(ops.byte_ops[k], crc_a);
  }
  return crc_a ^ crc_b;
}

}  // namespace deltamerge
