#include "util/hash.hpp"

#include <algorithm>

namespace fne {

Fnv1a& Fnv1a::bytes(const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) byte(p[i]);
  return *this;
}

std::uint64_t fnv1a(std::string_view s) noexcept { return Fnv1a{}.text(s).value(); }

void fnv1a_batch(std::span<const std::string_view> inputs, std::span<std::uint64_t> out) noexcept {
  // Four lanes, each hashing one input; a lane that finishes takes the
  // next input, so all four stay busy until fewer than four inputs are
  // left, which then finish one at a time.
  constexpr std::size_t kLanes = 4;
  struct Lane {
    const unsigned char* p = nullptr;
    std::size_t left = 0;
    std::size_t index = 0;
    std::uint64_t h = kFnvOffsetBasis;
  };
  Lane lanes[kLanes];
  std::size_t next = 0;
  const auto take_next = [&](Lane& lane) {
    if (next == inputs.size()) return false;
    lane = Lane{reinterpret_cast<const unsigned char*>(inputs[next].data()), inputs[next].size(),
                next, kFnvOffsetBasis};
    ++next;
    return true;
  };
  std::size_t active = 0;
  while (active < kLanes && take_next(lanes[active])) ++active;
  while (active == kLanes) {
    std::size_t step = lanes[0].left;
    for (std::size_t l = 1; l < kLanes; ++l) step = std::min(step, lanes[l].left);
    // Locals, not lane fields: byte loads may alias the lanes, which
    // would force every hash through memory.
    std::uint64_t h0 = lanes[0].h, h1 = lanes[1].h, h2 = lanes[2].h, h3 = lanes[3].h;
    const unsigned char *p0 = lanes[0].p, *p1 = lanes[1].p, *p2 = lanes[2].p, *p3 = lanes[3].p;
    for (std::size_t k = 0; k < step; ++k) {
      h0 = (h0 ^ p0[k]) * kFnvPrime;
      h1 = (h1 ^ p1[k]) * kFnvPrime;
      h2 = (h2 ^ p2[k]) * kFnvPrime;
      h3 = (h3 ^ p3[k]) * kFnvPrime;
    }
    lanes[0].h = h0;
    lanes[1].h = h1;
    lanes[2].h = h2;
    lanes[3].h = h3;
    for (std::size_t l = kLanes; l-- > 0;) {
      Lane& lane = lanes[l];
      lane.p += step;
      lane.left -= step;
      if (lane.left != 0) continue;
      out[lane.index] = lane.h;
      if (!take_next(lane)) lane = lanes[--active];
    }
  }
  for (std::size_t l = 0; l < active; ++l) {
    out[lanes[l].index] = Fnv1a(lanes[l].h).bytes(lanes[l].p, lanes[l].left).value();
  }
}

std::uint64_t mask_hash(const VertexSet& s) noexcept {
  Fnv1a h;
  h.word(s.universe_size());
  for (std::size_t w = 0; w < s.num_words(); ++w) h.word(s.word(w));
  return h.value();
}

Hash128 fnv1a_128(std::string_view s) noexcept {
  // The second stream runs the same FNV-1a recurrence from a different
  // basis (the canonical basis with its halves swapped), so the two words
  // never agree by construction on non-trivial input.
  constexpr std::uint64_t kAltBasis = 0x84222325cbf29ce4ULL;
  return {Fnv1a{kFnvOffsetBasis}.text(s).value(), Fnv1a{kAltBasis}.text(s).value()};
}

}  // namespace fne
