// Seeded-bad fixture for unordered-iter outside the timeline layers:
// hash-ordered contents of an unordered container escape unsorted.
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace fixture {

// Shape 1: .begin()/.end() feeding a return value directly.
std::vector<int> snapshot(const std::unordered_set<int>& seen) {
  return std::vector<int>(seen.begin(), seen.end());
}

// Shape 2: range-for appending to a vector that is never sorted.
std::vector<std::string> active_names(
    const std::unordered_map<std::string, int>& live) {
  std::vector<std::string> out;
  for (const auto& entry : live) {
    out.push_back(entry.first);
  }
  return out;
}

}  // namespace fixture
