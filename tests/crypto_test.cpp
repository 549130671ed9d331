// Toy crypto substrate: round trips, tamper detection, key separation,
// keystore release-ledger semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "crypto/cipher.hpp"
#include "crypto/keystore.hpp"
#include "util/rng.hpp"

namespace psf::crypto {
namespace {

std::vector<std::uint8_t> bytes(std::string_view s) {
  return std::vector<std::uint8_t>(s.begin(), s.end());
}

TEST(CipherTest, SealUnsealRoundTrip) {
  const SymmetricKey key = derive_key(123, "alice#3");
  const auto plaintext = bytes("the quick brown fox");
  const SealedBlob blob = seal(key, /*nonce=*/7, plaintext);
  EXPECT_NE(blob.ciphertext, plaintext);  // actually transformed

  std::vector<std::uint8_t> out;
  ASSERT_TRUE(unseal(key, blob, out));
  EXPECT_EQ(out, plaintext);
}

TEST(CipherTest, EmptyPayload) {
  const SymmetricKey key = derive_key(1, "k");
  const SealedBlob blob = seal(key, 1, {});
  std::vector<std::uint8_t> out{1, 2, 3};
  ASSERT_TRUE(unseal(key, blob, out));
  EXPECT_TRUE(out.empty());
}

TEST(CipherTest, WrongKeyFailsMac) {
  const SymmetricKey k1 = derive_key(123, "alice#3");
  const SymmetricKey k2 = derive_key(123, "alice#4");
  const SealedBlob blob = seal(k1, 7, bytes("secret"));
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(unseal(k2, blob, out));
  EXPECT_TRUE(out.empty());
}

TEST(CipherTest, TamperedCiphertextFailsMac) {
  const SymmetricKey key = derive_key(9, "bob#1");
  SealedBlob blob = seal(key, 3, bytes("integrity matters"));
  blob.ciphertext[4] ^= 0x01;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(unseal(key, blob, out));
}

TEST(CipherTest, TamperedMacFails) {
  const SymmetricKey key = derive_key(9, "bob#1");
  SealedBlob blob = seal(key, 3, bytes("integrity"));
  blob.mac ^= 1;
  std::vector<std::uint8_t> out;
  EXPECT_FALSE(unseal(key, blob, out));
}

TEST(CipherTest, NonceChangesCiphertext) {
  const SymmetricKey key = derive_key(5, "x");
  const auto p = bytes("same plaintext");
  EXPECT_NE(seal(key, 1, p).ciphertext, seal(key, 2, p).ciphertext);
}

TEST(CipherTest, KeyDerivationIsDeterministicAndSeparated) {
  EXPECT_EQ(derive_key(42, "a"), derive_key(42, "a"));
  EXPECT_NE(derive_key(42, "a"), derive_key(42, "b"));
  EXPECT_NE(derive_key(42, "a"), derive_key(43, "a"));
}

TEST(CipherTest, KeystreamIsItsOwnInverse) {
  const SymmetricKey key = derive_key(8, "inv");
  const auto p = bytes("involution");
  const auto c = apply_keystream(key, 11, p);
  EXPECT_EQ(apply_keystream(key, 11, c), p);
}

// The byte-at-a-time keystream the word-at-a-time one must reproduce: byte i
// is XORed with byte (i % 8) of the (i / 8)-th SplitMix64 word, whatever the
// host's byte order or the span's alignment.
std::vector<std::uint8_t> reference_keystream(
    const SymmetricKey& key, std::uint64_t nonce,
    std::span<const std::uint8_t> data) {
  auto mix = [](std::uint64_t x) {
    x ^= x >> 33;
    x *= 0xFF51AFD7ED558CCDULL;
    x ^= x >> 33;
    x *= 0xC4CEB9FE1A85EC53ULL;
    x ^= x >> 33;
    return x;
  };
  std::vector<std::uint8_t> out(data.size());
  util::SplitMix64 stream(mix(key.k0 ^ nonce) ^ key.k1);
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 8 == 0) word = stream.next();
    out[i] = data[i] ^ static_cast<std::uint8_t>(word >> ((i % 8) * 8));
  }
  return out;
}

TEST(CipherTest, KeystreamMatchesByteAtATimeReference) {
  const SymmetricKey key = derive_key(77, "oracle");
  util::Rng rng(2024);
  std::vector<std::uint8_t> buffer(2048 + 8);
  for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next_u64());

  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 33; ++len) lengths.push_back(len);
  lengths.push_back(2048);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len : lengths) {
      const std::span<const std::uint8_t> data(buffer.data() + offset, len);
      const std::uint64_t nonce = 1000 + len;
      EXPECT_EQ(apply_keystream(key, nonce, data),
                reference_keystream(key, nonce, data))
          << "offset " << offset << " length " << len;
    }
  }
}

// Every tamper below must fail the MAC and leave `out` empty.
void expect_rejected(const SymmetricKey& key, const SealedBlob& blob,
                     const char* what) {
  std::vector<std::uint8_t> out{0xAA};
  EXPECT_FALSE(unseal(key, blob, out)) << what;
  EXPECT_TRUE(out.empty()) << what;
}

TEST(CipherTest, MacDetectsWordLevelTampering) {
  const SymmetricKey key = derive_key(31, "tamper");
  std::vector<std::uint8_t> plaintext(29);  // three words plus 5 tail bytes
  for (std::size_t i = 0; i < plaintext.size(); ++i) {
    plaintext[i] = static_cast<std::uint8_t>(i * 7 + 1);
  }
  const SealedBlob sealed = seal(key, 5, plaintext);
  std::vector<std::uint8_t> out;
  ASSERT_TRUE(unseal(key, sealed, out));

  for (std::size_t at = 24; at < sealed.ciphertext.size(); ++at) {
    for (int bit = 0; bit < 8; ++bit) {
      SealedBlob blob = sealed;
      blob.ciphertext[at] ^= static_cast<std::uint8_t>(1u << bit);
      expect_rejected(key, blob, "bit flip in the padded last word");
    }
  }

  SealedBlob appended = sealed;
  appended.ciphertext.push_back(0x00);
  expect_rejected(key, appended, "one appended zero byte");

  // A whole-word message plus one zero starts a new, all-zero padded word.
  const SealedBlob aligned = seal(key, 6, std::vector<std::uint8_t>(16, 3));
  SealedBlob aligned_appended = aligned;
  aligned_appended.ciphertext.push_back(0x00);
  expect_rejected(key, aligned_appended, "zero byte after a full word");

  SealedBlob truncated = sealed;
  truncated.ciphertext.pop_back();
  expect_rejected(key, truncated, "truncated by one byte");

  SealedBlob swapped = sealed;
  std::swap_ranges(swapped.ciphertext.begin(), swapped.ciphertext.begin() + 8,
                   swapped.ciphertext.begin() + 8);
  ASSERT_NE(swapped.ciphertext, sealed.ciphertext);
  expect_rejected(key, swapped, "two 8-byte words swapped");
}

TEST(CipherTest, WireSizeIncludesOverhead) {
  const SymmetricKey key = derive_key(1, "k");
  const SealedBlob blob = seal(key, 1, bytes("12345"));
  EXPECT_EQ(blob.wire_size(), 5u + 16u);
}

TEST(CipherTest, CostScalesWithSize) {
  EXPECT_LT(crypto_cpu_cost(100), crypto_cpu_cost(100000));
  EXPECT_GT(crypto_cpu_cost(0), 0.0);  // fixed setup cost
}

// ---- keystore -----------------------------------------------------------

TEST(KeyStoreTest, ProvisionCreatesPerLevelKeys) {
  KeyStore ks(777);
  ks.provision_user("alice", 5);
  for (std::int64_t level = 1; level <= 5; ++level) {
    EXPECT_TRUE(ks.has_key({"alice", level}));
  }
  EXPECT_FALSE(ks.has_key({"alice", 6}));
  EXPECT_FALSE(ks.has_key({"bob", 1}));
  EXPECT_EQ(ks.key_count(), 5u);
}

TEST(KeyStoreTest, ProvisionIsIdempotent) {
  KeyStore ks(777);
  ks.provision_user("alice", 3);
  const SymmetricKey before = ks.key({"alice", 2}).value();
  ks.provision_user("alice", 5);
  EXPECT_EQ(ks.key({"alice", 2}).value(), before);  // keys stable
  EXPECT_EQ(ks.key_count(), 5u);
}

TEST(KeyStoreTest, DistinctUsersGetDistinctKeys) {
  KeyStore ks(777);
  ks.provision_user("alice", 2);
  ks.provision_user("bob", 2);
  EXPECT_NE(ks.key({"alice", 1}).value(), ks.key({"bob", 1}).value());
  EXPECT_NE(ks.key({"alice", 1}).value(), ks.key({"alice", 2}).value());
}

TEST(KeyStoreTest, MissingKeyIsNotFound) {
  KeyStore ks(1);
  auto key = ks.key({"ghost", 1});
  EXPECT_FALSE(key.has_value());
  EXPECT_EQ(key.status().code(), util::ErrorCode::kNotFound);
}

TEST(KeyStoreTest, ReleaseLedgerTracksMaximum) {
  KeyStore ks(1);
  ks.provision_user("alice", 5);
  EXPECT_EQ(ks.released_level("node-sd", "alice"), 0);
  ASSERT_TRUE(ks.release_to_node("node-sd", "alice", 4).is_ok());
  EXPECT_EQ(ks.released_level("node-sd", "alice"), 4);
  // Lower release does not shrink the ledger.
  ASSERT_TRUE(ks.release_to_node("node-sd", "alice", 2).is_ok());
  EXPECT_EQ(ks.released_level("node-sd", "alice"), 4);
  // Other nodes unaffected.
  EXPECT_EQ(ks.released_level("node-sea", "alice"), 0);
}

TEST(KeyStoreTest, ReleaseFailsForUnprovisionedLevels) {
  KeyStore ks(1);
  ks.provision_user("alice", 2);
  EXPECT_FALSE(ks.release_to_node("n", "alice", 3).is_ok());
}

}  // namespace
}  // namespace psf::crypto
