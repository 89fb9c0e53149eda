// util/hash contracts: FNV-1a known-answer vectors, streaming and
// batched equivalence, the mask_hash word discipline (the campaign payload's
// survivor_hash — its value is pinned by golden payloads under
// reproduce/, so these tests guard the byte discipline explicitly), and
// the 128-bit store-key variant.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "core/vertex_set.hpp"
#include "util/hash.hpp"

namespace fne {
namespace {

TEST(Fnv1a, MatchesPublishedTestVectors) {
  // Reference vectors from the FNV spec (Noll's fnv64a test suite).
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, StreamingGranularityDoesNotChangeTheDigest) {
  const std::string s = "fne-cell|schema=1|topo=mesh";
  Fnv1a by_text;
  by_text.text(s);
  Fnv1a by_byte;
  for (const char c : s) by_byte.byte(static_cast<std::uint8_t>(c));
  Fnv1a by_split;
  by_split.text(s.substr(0, 7)).bytes(s.data() + 7, s.size() - 7);
  EXPECT_EQ(by_text.value(), fnv1a(s));
  EXPECT_EQ(by_byte.value(), fnv1a(s));
  EXPECT_EQ(by_split.value(), fnv1a(s));
}

TEST(Fnv1a, WordFeedsEightBytesLowFirst) {
  Fnv1a by_word;
  by_word.word(0x0123456789abcdefULL);
  Fnv1a by_bytes;
  for (const std::uint8_t b : {0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01}) {
    by_bytes.byte(b);
  }
  EXPECT_EQ(by_word.value(), by_bytes.value());
}

TEST(Fnv1a, BatchEqualsOneInputAtATime) {
  // Mixed lengths (empty ones too) so lanes finish and refill at
  // different times; every count from 0 to past the lane count.
  std::vector<std::string> texts;
  for (int i = 0; i < 23; ++i) {
    const auto length = static_cast<std::size_t>((i * 37) % 101);
    texts.push_back(std::string(length, static_cast<char>('a' + i)) + std::to_string(i));
    if (i % 5 == 0) texts.push_back("");
  }
  for (std::size_t count = 0; count <= texts.size(); ++count) {
    SCOPED_TRACE(count);
    const std::vector<std::string_view> inputs(texts.begin(), texts.begin() + count);
    std::vector<std::uint64_t> out(count, 0);
    fnv1a_batch(inputs, out);
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(out[i], fnv1a(inputs[i])) << i;
  }
}

TEST(MaskHash, IsTheUniverseThenWordsStream) {
  VertexSet s(100);
  s.set(3);
  s.set(64);
  s.set(99);
  // The documented discipline: universe size as a word, then each packed
  // word, all low byte first.
  Fnv1a h;
  h.word(s.universe_size());
  for (std::size_t w = 0; w < s.num_words(); ++w) h.word(s.word(w));
  EXPECT_EQ(mask_hash(s), h.value());
}

TEST(MaskHash, SeparatesContentAndUniverse) {
  VertexSet a(64);
  a.set(5);
  VertexSet b(64);
  b.set(6);
  EXPECT_NE(mask_hash(a), mask_hash(b));
  // Same members, different universe: distinct sets, distinct hashes.
  VertexSet c(65);
  c.set(5);
  EXPECT_NE(mask_hash(a), mask_hash(c));
  VertexSet a2(64);
  a2.set(5);
  EXPECT_EQ(mask_hash(a), mask_hash(a2));
  EXPECT_NE(mask_hash(VertexSet(0)), 0u) << "empty set still hashes its universe";
}

TEST(Hash128, LowHalfIsPlainFnv1aAndHalvesAreIndependent) {
  const std::string s = "store key material";
  const Hash128 h = fnv1a_128(s);
  EXPECT_EQ(h.lo, fnv1a(s));
  EXPECT_NE(h.hi, h.lo);
  EXPECT_EQ(h, fnv1a_128(s));
  EXPECT_FALSE(h == fnv1a_128("store key materiam"));
}

}  // namespace
}  // namespace fne
