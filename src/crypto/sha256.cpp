#include "crypto/sha256.hpp"

#include <algorithm>
#include <cstring>

#include "util/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#include <immintrin.h>
#define OSPREY_SHA256_X86 1
#endif

namespace osprey::crypto {

namespace {

alignas(16) constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, unsigned n) {
  return (x >> n) | (x << (32 - n));
}

/// The FIPS 180-4 compress, written out word by word: the fallback on
/// CPUs without SHA extensions and the reference the tests hold the
/// hardware kernel to.
void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (std::uint32_t(data[4 * i]) << 24) |
             (std::uint32_t(data[4 * i + 1]) << 16) |
             (std::uint32_t(data[4 * i + 2]) << 8) |
             std::uint32_t(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t S1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t temp1 = h + S1 + ch + kK[i] + w[i];
      std::uint32_t S0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t temp2 = S0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

#ifdef OSPREY_SHA256_X86

/// The same compress on the SHA extensions. Target attributes keep the
/// instructions in this one function: the rest of the build is not
/// compiled for a newer ISA (which would also let FMA contraction change
/// the rt estimators' floating-point results).
///
/// Each sha256rnds2 does two rounds on the state split as ABEF/CDGH;
/// `m[g % 4]` holds message words 4g..4g+3, and the schedule for group
/// g + 1 is finished (msg1 two groups ahead, msg2 one group ahead) while
/// group g's rounds run.
__attribute__((target("sha,sse4.1"))) void compress_shani(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);    // CDAB
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);  // EFGH
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i m[4];
    for (int i = 0; i < 4; ++i) {
      m[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          kByteSwap);
    }
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      const __m128i k =
          _mm_load_si128(reinterpret_cast<const __m128i*>(kK + 4 * g));
      __m128i msg = _mm_add_epi32(m[g % 4], k);
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, msg);
      if (g >= 3 && g <= 14) {
        __m128i& next = m[(g + 1) % 4];
        next = _mm_add_epi32(next,
                             _mm_alignr_epi8(m[g % 4], m[(g + 3) % 4], 4));
        next = _mm_sha256msg2_epu32(next, m[g % 4]);
      }
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(msg, 0x0E));
      if (g >= 1 && g <= 12) {
        m[(g + 3) % 4] = _mm_sha256msg1_epu32(m[(g + 3) % 4], m[g % 4]);
      }
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);      // FEBA
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);     // DCHG
  abef = _mm_blend_epi16(tmp, cdgh, 0xF0);  // DCBA
  cdgh = _mm_alignr_epi8(cdgh, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), abef);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), cdgh);
}

bool cpu_has_sha_ni() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  const bool ssse3 = (c & bit_SSSE3) != 0;
  const bool sse41 = (c & bit_SSE4_1) != 0;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  const bool sha = (b & bit_SHA) != 0;
  return ssse3 && sse41 && sha;
}

#endif  // OSPREY_SHA256_X86

}  // namespace

bool Sha256::available(Kernel kernel) {
  if (kernel == Kernel::kPortable) return true;
#ifdef OSPREY_SHA256_X86
  static const bool has_sha_ni = cpu_has_sha_ni();
  return has_sha_ni;
#else
  return false;
#endif
}

Sha256::Sha256()
    : Sha256(available(Kernel::kShaNi) ? Kernel::kShaNi : Kernel::kPortable) {}

Sha256::Sha256(Kernel kernel) : compress_(compress_portable) {
  OSPREY_REQUIRE(available(kernel), "SHA-256 kernel not supported by this CPU");
#ifdef OSPREY_SHA256_X86
  if (kernel == Kernel::kShaNi) compress_ = compress_shani;
#endif
  reset();
}

void Sha256::reset() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buffer_len_ = 0;
  total_bits_ = 0;
  finalized_ = false;
}

void Sha256::update(const void* data, std::size_t len) {
  OSPREY_REQUIRE(!finalized_, "update() after digest()");
  if (len == 0) return;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  total_bits_ += static_cast<std::uint64_t>(len) * 8;
  if (buffer_len_ > 0) {
    std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    len -= take;
    if (buffer_len_ < buffer_.size()) return;
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks straight from the caller's buffer; only the tail is
  // copied.
  std::size_t blocks = len / 64;
  if (blocks > 0) {
    compress_(state_.data(), bytes, blocks);
    bytes += blocks * 64;
    len -= blocks * 64;
  }
  std::memcpy(buffer_.data(), bytes, len);
  buffer_len_ = len;
}

std::array<std::uint8_t, 32> Sha256::digest() {
  OSPREY_REQUIRE(!finalized_, "digest() called twice");
  finalized_ = true;
  // Padding: 0x80, zeros, then the 64-bit big-endian bit length.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(total_bits_ >> (56 - 8 * i));
  }
  compress_(state_.data(), buffer_.data(), 1);
  std::array<std::uint8_t, 32> out{};
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

std::string Sha256::hex_digest() {
  auto d = digest();
  static const char* hex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (std::uint8_t b : d) {
    out += hex[b >> 4];
    out += hex[b & 0xf];
  }
  return out;
}

std::string Sha256::hash_hex(const std::string& payload) {
  Sha256 h;
  h.update(payload);
  return h.hex_digest();
}

}  // namespace osprey::crypto
