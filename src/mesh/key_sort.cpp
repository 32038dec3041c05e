#include "mesh/key_sort.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace xl::mesh {

namespace {

std::uint64_t key_of(std::uint64_t key) noexcept { return key; }
std::uint64_t key_of(const KeyedIndex& record) noexcept { return record.first; }

/// Stable LSD radix sort of `records` by key_of, one 8-bit digit per pass.
/// One read counts every digit; a byte in which every key holds the same
/// bits (zero in OR xor AND) would leave the order as it is, so its pass is
/// skipped.
template <class Record>
void radix_sort(std::vector<Record>& records) {
  std::uint64_t any = 0, all = ~std::uint64_t{0};
  std::array<std::array<std::size_t, 256>, 8> start{};
  for (const Record& r : records) {
    const std::uint64_t k = key_of(r);
    any |= k;
    all &= k;
    for (std::size_t b = 0; b < 8; ++b) ++start[b][(k >> (8 * b)) & 0xFFu];
  }
  const std::uint64_t varying = any ^ all;
  const std::size_t n = records.size();
  const auto scratch = std::make_unique_for_overwrite<Record[]>(n);
  Record* src = records.data();
  Record* dst = scratch.get();
  for (std::size_t b = 0; b < 8; ++b) {
    const unsigned shift = 8 * static_cast<unsigned>(b);
    if (((varying >> shift) & 0xFFu) == 0) continue;
    std::size_t sum = 0;
    for (std::size_t& s : start[b]) sum += std::exchange(s, sum);
    for (std::size_t i = 0; i < n; ++i) dst[start[b][(key_of(src[i]) >> shift) & 0xFFu]++] = src[i];
    std::swap(src, dst);
  }
  if (src != records.data()) std::copy(src, src + n, records.data());
}

/// Below the cutoff std::sort, above it the radix sort. Both give one order:
/// for (key, index) records std::sort compares the index too, and the radix
/// passes keep the ascending input order of equal keys.
template <class Record>
void sort_records(std::vector<Record>& records) {
  if (records.size() < kRadixSortMinKeys) {
    std::sort(records.begin(), records.end());
  } else {
    radix_sort(records);
  }
}

}  // namespace

void sort_keys(std::vector<std::uint64_t>& keys) { sort_records(keys); }

void sort_keys(std::vector<KeyedIndex>& keyed) { sort_records(keyed); }

}  // namespace xl::mesh
