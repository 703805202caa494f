#include "crypto/sha256.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace oc = osprey::crypto;
namespace ou = osprey::util;

// NIST / well-known SHA-256 test vectors.
TEST(Sha256, EmptyString) {
  EXPECT_EQ(oc::Sha256::hash_hex(""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(oc::Sha256::hash_hex("abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(
      oc::Sha256::hash_hex(
          "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  oc::Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.hex_digest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  std::string payload = "day,conc\n0,10.5\n1,20.25\n";
  oc::Sha256 h;
  for (char c : payload) h.update(&c, 1);
  EXPECT_EQ(h.hex_digest(), oc::Sha256::hash_hex(payload));
}

TEST(Sha256, BoundaryLengths) {
  // Lengths around the 55/56/64-byte padding boundaries, pinned to
  // python3 hashlib.sha256(b"x" * len).hexdigest().
  const std::pair<std::size_t, const char*> kVectors[] = {
      {54, "45f316e10b2c99abf374b22bda893cf3300d77263f1e272349ed414680522952"},
      {55, "d5e285683cd4efc02d021a5c62014694958901005d6f71e89e0989fac77e4072"},
      {56, "04c26261370ee7541549d16dee320c723e3fd14671e66a099afe0a377c16888e"},
      {57, "ae14a2563ccf969d99aca69ce6bb74981f734bbf9f655f73b8f06db68cab5217"},
      {63, "75220b47218278e656f2013bb8f0c455a25eaf01e86c64924e9d48d89776d6f2"},
      {64, "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c"},
      {65, "9537c5fdf120482f7d58d25e9ed583f52c02b4e304ea814db1633ad565aed7e9"},
      {119, "000b48d4edf0fa7bee3c6236ecd2785baa5db4eeb8bb54341b029e0d9fa5fb0c"},
      {120, "13f05a0b594787f5ecd315edc96141bd3243203d1b7d4f0836f37308b276ba98"},
  };
  for (const auto& [len, hex] : kVectors) {
    for (oc::Sha256::Kernel k :
         {oc::Sha256::Kernel::kPortable, oc::Sha256::Kernel::kShaNi}) {
      if (!oc::Sha256::available(k)) continue;
      oc::Sha256 h(k);
      h.update(std::string(len, 'x'));
      EXPECT_EQ(h.hex_digest(), hex) << "len " << len;
    }
    EXPECT_EQ(oc::Sha256::hash_hex(std::string(len, 'x')), hex);
  }
}

TEST(Sha256, ShaNiMatchesPortableKernel) {
  if (!oc::Sha256::available(oc::Sha256::Kernel::kShaNi)) {
    GTEST_SKIP() << "CPU lacks the SHA extensions";
  }
  // Pseudo-random bytes, so every message word differs.
  std::string data(1100, '\0');
  std::uint64_t x = 12345;
  for (char& c : data) c = static_cast<char>(ou::splitmix64_next(x));
  auto digest_of = [](oc::Sha256::Kernel k, const char* bytes,
                      std::size_t len) {
    oc::Sha256 h(k);
    h.update(bytes, len);
    return h.hex_digest();
  };
  for (std::size_t len = 0; len <= data.size(); ++len) {
    ASSERT_EQ(digest_of(oc::Sha256::Kernel::kShaNi, data.data(), len),
              digest_of(oc::Sha256::Kernel::kPortable, data.data(), len))
        << "len " << len;
  }
  // Random update() chunkings through the buffered and direct paths.
  std::uint64_t seed = 99;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = ou::splitmix64_next(seed) % (data.size() + 1);
    oc::Sha256 hw(oc::Sha256::Kernel::kShaNi);
    std::size_t pos = 0;
    while (pos < len) {
      std::size_t chunk = std::min<std::size_t>(
          len - pos, ou::splitmix64_next(seed) % 150);
      hw.update(data.data() + pos, chunk);
      pos += chunk;
    }
    ASSERT_EQ(hw.hex_digest(),
              digest_of(oc::Sha256::Kernel::kPortable, data.data(), len))
        << "trial " << trial << " len " << len;
  }
}

TEST(Sha256, PortableKernelPassesKnownVectors) {
  oc::Sha256 h(oc::Sha256::Kernel::kPortable);
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(h.hex_digest(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, ResetAllowsReuse) {
  oc::Sha256 h;
  h.update("abc");
  std::string first = h.hex_digest();
  h.reset();
  h.update("abc");
  EXPECT_EQ(h.hex_digest(), first);
}

TEST(Sha256, UpdateAfterDigestThrows) {
  oc::Sha256 h;
  h.update("abc");
  h.digest();
  EXPECT_THROW(h.update("more"), osprey::util::Error);
}

TEST(Sha256, SensitiveToSingleBitChange) {
  std::string a = "versioned-data";
  std::string b = a;
  b[0] ^= 1;
  EXPECT_NE(oc::Sha256::hash_hex(a), oc::Sha256::hash_hex(b));
}
