#pragma once

/// \file hash.hpp
/// The repo's two small non-cryptographic hashes, in one place: the
/// splitmix64 finalizer behind every counter-based stream (fault
/// injection, retry jitter, mailbox stamps, uuids, Zipf traces, RNG
/// seeding) and FNV-1a for stable string keys. Both are fixed
/// functions of their input, so every artifact derived from them
/// replays byte for byte. (osprey_lint's hash-copy rule keeps their
/// constants out of every other file.)

#include <cstdint>
#include <string_view>

namespace osprey::util {

/// splitmix64's increment (the 64-bit golden ratio).
inline constexpr std::uint64_t kSplitmixGamma = 0x9e3779b97f4a7c15ULL;

/// splitmix64 finalizer of `z + kSplitmixGamma`: stateless and
/// counter-based.
constexpr std::uint64_t mix64(std::uint64_t z) {
  z += kSplitmixGamma;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One step of the splitmix64 generator: returns the next output and
/// advances `state`.
constexpr std::uint64_t splitmix64_next(std::uint64_t& state) {
  std::uint64_t z = mix64(state);
  state += kSplitmixGamma;
  return z;
}

/// 64-bit FNV-1a: stable across runs and platforms, unlike std::hash.
constexpr std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The top 53 bits of `bits` as a double in [0, 1).
constexpr double uniform01(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace osprey::util
