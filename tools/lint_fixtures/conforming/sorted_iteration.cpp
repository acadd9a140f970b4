// Conforming: unordered containers are fine for lookup; anything that
// *iterates* first establishes a deterministic order, or carries an
// explicit annotation where order provably cannot escape.
#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace vab::fixture {

double rssi_of(const std::unordered_map<std::uint8_t, double>& by_node,
               std::uint8_t node) {
  const auto it = by_node.find(node);  // point lookup: order never observed
  return it == by_node.end() ? 0.0 : it->second;
}

std::vector<std::uint8_t> sorted_nodes(
    const std::unordered_map<std::uint8_t, double>& by_node) {
  std::vector<std::uint8_t> keys;
  keys.reserve(by_node.size());
  // vab-lint: allow(unordered-iter-accumulate) order is discarded by the sort below
  for (const auto& [node, rssi] : by_node) keys.push_back(node);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace vab::fixture
