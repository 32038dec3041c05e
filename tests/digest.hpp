// FNV-1a 64, the digest tests use to pin recorded output bytes.
#pragma once

#include <cstdint>
#include <string_view>

namespace xl::test {

/// FNV-1a 64 of `bytes`.
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace xl::test
