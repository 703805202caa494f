#pragma once

/// \file sha256.hpp
/// From-scratch SHA-256 (FIPS 180-4). AERO stores a checksum with every
/// data version; the simulated Globus transfer layer verifies payload
/// integrity with the same digests.
///
/// The block compress runs on the x86 SHA extensions when the CPU has
/// them (picked once, from cpuid) and on the portable C++ kernel
/// otherwise. Both produce the same digests; the portable kernel is also
/// the oracle the tests compare the hardware kernel against.

#include <array>
#include <cstdint>
#include <string>

namespace osprey::crypto {

/// Incremental SHA-256 hasher.
class Sha256 {
 public:
  /// Block-compress implementations.
  enum class Kernel { kPortable, kShaNi };

  /// Uses the fastest kernel the CPU supports.
  Sha256();
  /// Uses `kernel`; it must be available().
  explicit Sha256(Kernel kernel);

  /// Whether this CPU can run `kernel`.
  static bool available(Kernel kernel);

  /// Absorb `len` bytes.
  void update(const void* data, std::size_t len);
  void update(const std::string& s) { update(s.data(), s.size()); }

  /// Finalize and return the 32-byte digest. The hasher must not be
  /// updated afterwards (reset() to reuse).
  std::array<std::uint8_t, 32> digest();

  /// Finalize and return the digest as lowercase hex.
  std::string hex_digest();

  void reset();

  /// One-shot convenience: hex digest of a string payload.
  static std::string hash_hex(const std::string& payload);

 private:
  /// Compresses `blocks` consecutive 64-byte blocks into `state`.
  using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

  CompressFn compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_bits_ = 0;
  bool finalized_ = false;
};

}  // namespace osprey::crypto
