// One sort for the synthetic geometry's 64-bit keys: the Morton keys of box
// corners that balance() walks, and the packed tag coordinates of the
// Berger-Rigoutsos unit-cap path. Large inputs take an LSD radix sort with
// 8-bit digits that skips every byte all keys share; small ones take
// std::sort on the same keys, which is faster there. Both give one order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace xl::mesh {

/// Inputs with fewer keys than this take std::sort: below it the radix
/// passes' fixed cost (a 256-bucket count per digit) outweighs what they
/// save (DESIGN.md §3.11 gives the measured crossover).
inline constexpr std::size_t kRadixSortMinKeys = 1024;

/// A sort key and the index of the record it belongs to.
using KeyedIndex = std::pair<std::uint64_t, std::size_t>;

/// Sorts `keys` ascending.
void sort_keys(std::vector<std::uint64_t>& keys);

/// Sorts `keyed` ascending by key, then index. Records with equal keys must
/// arrive in ascending index order, as numbering them 0..n-1 in place gives:
/// the radix passes keep the input order of equal keys.
void sort_keys(std::vector<KeyedIndex>& keyed);

}  // namespace xl::mesh
