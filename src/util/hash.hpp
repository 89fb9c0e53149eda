// FNV-1a hashing helpers (DESIGN.md §8, §11).
//
// One hash family, used in two places with the same byte discipline:
//
//   * report payloads — mask_hash() is the order-sensitive survivor-set
//     identity campaign reports emit ("survivor_hash"), formerly a local
//     helper in api/campaign.cpp;
//   * the result store — content keys hash the canonical cell
//     description (store/key.hpp) and record frames carry an FNV-1a
//     checksum over their key+payload bytes (store/result_store.cpp).
//
// FNV-1a is not cryptographic; both uses pair the hash with the full
// source bytes (the payload next to its hash, the key string inside the
// record), so a collision can confuse nothing — it only costs a
// recompute.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "core/vertex_set.hpp"

namespace fne {

inline constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// Streaming 64-bit FNV-1a.  Feed bytes in any mix of granularities; the
/// digest is a pure function of the byte sequence (words are consumed
/// low byte first, so the stream is endianness-independent).
class Fnv1a {
 public:
  constexpr explicit Fnv1a(std::uint64_t basis = kFnvOffsetBasis) noexcept : h_(basis) {}

  constexpr Fnv1a& byte(std::uint8_t b) noexcept {
    h_ = (h_ ^ b) * kFnvPrime;
    return *this;
  }
  /// 8 bytes, low byte first (the mask_hash word discipline).
  constexpr Fnv1a& word(std::uint64_t w) noexcept {
    for (int b = 0; b < 8; ++b) byte(static_cast<std::uint8_t>((w >> (8 * b)) & 0xFF));
    return *this;
  }
  Fnv1a& bytes(const void* data, std::size_t len) noexcept;
  Fnv1a& text(std::string_view s) noexcept { return bytes(s.data(), s.size()); }

  [[nodiscard]] constexpr std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_;
};

/// One-shot FNV-1a of a byte string.
[[nodiscard]] std::uint64_t fnv1a(std::string_view s) noexcept;

/// FNV-1a of many byte strings: out[i] == fnv1a(inputs[i]) bit for bit
/// (out.size() == inputs.size()).  One stream is bound by the latency of
/// its per-byte multiply; four independent streams interleaved run at
/// multiply throughput instead, so checksumming a batch of store frames
/// this way is several times faster than one frame after another.
void fnv1a_batch(std::span<const std::string_view> inputs, std::span<std::uint64_t> out) noexcept;

/// Order-sensitive identity of a VertexSet: FNV-1a over the universe size
/// followed by the packed words, each as 8 low-first bytes.  A strong,
/// cheap "same set, bit for bit" fingerprint — the campaign payload's
/// survivor_hash field.
[[nodiscard]] std::uint64_t mask_hash(const VertexSet& s) noexcept;

/// Two independent 64-bit FNV-1a streams over the same bytes (distinct
/// offset bases), giving a 128-bit content key for the result store.
/// Collisions are astronomically unlikely AND harmless: the store keeps
/// the full key string in every record and verifies it on lookup.
struct Hash128 {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
  friend bool operator==(const Hash128&, const Hash128&) = default;
};
[[nodiscard]] Hash128 fnv1a_128(std::string_view s) noexcept;

}  // namespace fne
