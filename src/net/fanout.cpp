#include "net/fanout.h"

#include <algorithm>
#include <array>
#include <bit>

namespace wlsync::net {

namespace {

/// Below this length a comparison sort beats the radix passes.
constexpr std::size_t kRadixMinSize = 64;

std::uint64_t time_bits(const FanoutDelivery& d) noexcept {
  return std::bit_cast<std::uint64_t>(d.time);
}

}  // namespace

void sort_deliveries(std::vector<FanoutDelivery>& list,
                     std::vector<FanoutDelivery>& scratch) {
  const auto by_time_seq = [](const FanoutDelivery& a, const FanoutDelivery& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  };
  const std::size_t n = list.size();
  if (n < 2) return;
  // Bits on which some key differs from the first; a set sign bit anywhere
  // (a negative time or -0.0) would break the bit-pattern order.
  const std::uint64_t first = time_bits(list.front());
  std::uint64_t differ = 0;
  std::uint64_t sign = first;
  bool ascending = true;
  double previous = list.front().time;
  for (const FanoutDelivery& d : list) {
    differ |= time_bits(d) ^ first;
    sign |= time_bits(d);
    ascending &= !(d.time < previous);
    previous = d.time;
  }
  // Times already non-decreasing (all equal under the extremal delay
  // models, grouped by recipient id under the split one): seq order holds.
  if (ascending) return;
  if (n < kRadixMinSize || (sign >> 63) != 0) {
    std::sort(list.begin(), list.end(), by_time_seq);
    return;
  }
  scratch.resize(n);
  FanoutDelivery* src = list.data();
  FanoutDelivery* dst = scratch.data();
  for (int shift = 0; shift < 64; shift += 8) {
    if (((differ >> shift) & 0xFF) == 0) continue;  // every key shares it
    std::array<std::size_t, 256> offset{};
    for (std::size_t i = 0; i < n; ++i) {
      ++offset[(time_bits(src[i]) >> shift) & 0xFF];
    }
    std::size_t sum = 0;
    for (std::size_t& slot : offset) {
      const std::size_t count = slot;
      slot = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      dst[offset[(time_bits(src[i]) >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != list.data()) std::copy_n(src, n, list.data());
}

}  // namespace wlsync::net
