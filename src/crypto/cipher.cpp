#include "crypto/cipher.hpp"

#include <bit>
#include <cstring>

#include "util/rng.hpp"

namespace psf::crypto {

namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t hash_string(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  return h;
}

// The keystream and MAC work on 64-bit words read and written little-endian,
// so their output is the same on every host, byte for byte.
std::uint64_t load_le(const std::uint8_t* p) {
  std::uint64_t w = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&w, p, sizeof w);
  } else {
    for (int i = 7; i >= 0; --i) w = (w << 8) | p[i];
  }
  return w;
}

void store_le(std::uint8_t* p, std::uint64_t w) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &w, sizeof w);
  } else {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(w >> (8 * i));
  }
}

}  // namespace

SymmetricKey derive_key(std::uint64_t master_secret,
                        const std::string& label) {
  const std::uint64_t lh = hash_string(label);
  SymmetricKey key;
  key.k0 = mix(master_secret ^ lh);
  key.k1 = mix(master_secret + 0x9E3779B97F4A7C15ULL * lh);
  return key;
}

std::vector<std::uint8_t> apply_keystream(const SymmetricKey& key,
                                          std::uint64_t nonce,
                                          std::span<const std::uint8_t> data) {
  std::vector<std::uint8_t> out(data.size());
  util::SplitMix64 stream(mix(key.k0 ^ nonce) ^ key.k1);
  // Byte i is XORed with byte (i % 8) of the (i / 8)-th keystream word.
  const std::size_t full = data.size() - data.size() % 8;
  for (std::size_t i = 0; i < full; i += 8) {
    store_le(out.data() + i, load_le(data.data() + i) ^ stream.next());
  }
  if (const std::size_t rest = data.size() - full; rest > 0) {
    std::uint8_t tail[8] = {};
    std::memcpy(tail, data.data() + full, rest);
    store_le(tail, load_le(tail) ^ stream.next());
    std::memcpy(out.data() + full, tail, rest);
  }
  return out;
}

std::uint64_t compute_mac(const SymmetricKey& key,
                          std::span<const std::uint8_t> data) {
  // Keyed word chain h = (h ^ w) * odd over little-endian words, the last one
  // zero-padded. Each step is a bijection of h and injective in w, so a
  // change confined to one word always changes the tag; the length folded
  // into the initial state tells a message from itself plus trailing zeros.
  constexpr std::uint64_t kOdd = 0xFF51AFD7ED558CCDULL;
  std::uint64_t h = key.k1 ^ 0xA0761D6478BD642FULL ^
                    (static_cast<std::uint64_t>(data.size()) *
                     0x9E3779B97F4A7C15ULL);
  const std::size_t full = data.size() - data.size() % 8;
  for (std::size_t i = 0; i < full; i += 8) {
    h = (h ^ load_le(data.data() + i)) * kOdd;
  }
  if (const std::size_t rest = data.size() - full; rest > 0) {
    std::uint8_t tail[8] = {};
    std::memcpy(tail, data.data() + full, rest);
    h = (h ^ load_le(tail)) * kOdd;
  }
  return mix(h ^ key.k0);
}

SealedBlob seal(const SymmetricKey& key, std::uint64_t nonce,
                std::span<const std::uint8_t> plaintext) {
  SealedBlob blob;
  blob.nonce = nonce;
  blob.ciphertext = apply_keystream(key, nonce, plaintext);
  blob.mac = compute_mac(key, blob.ciphertext);
  return blob;
}

bool unseal(const SymmetricKey& key, const SealedBlob& blob,
            std::vector<std::uint8_t>& out) {
  out.clear();
  if (compute_mac(key, blob.ciphertext) != blob.mac) return false;
  out = apply_keystream(key, blob.nonce, blob.ciphertext);
  return true;
}

double crypto_cpu_cost(std::size_t bytes) {
  // ~0.0025 cpu units/byte: a 4 KB body costs ~10 units vs ~100 units for a
  // mail-server request in the case-study spec.
  return 2.0 + 0.0025 * static_cast<double>(bytes);
}

}  // namespace psf::crypto
