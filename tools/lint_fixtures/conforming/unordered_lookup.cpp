// Clean counterpart of unordered_accumulate.cpp: lookups, counting, and
// sorted-before-emit iteration stay legal.
#include <algorithm>
#include <cstddef>
#include <unordered_map>
#include <vector>

namespace fixture {

double lookup(const std::unordered_map<int, double>& cache, int key) {
  const auto it = cache.find(key);
  return it == cache.end() ? 0.0 : it->second;
}

std::size_t count_positive(const std::unordered_map<int, double>& weights) {
  std::size_t n = 0;
  for (const auto& [key, w] : weights)
    if (w > 0.0) ++n;  // order-independent: counting only
  return n;
}

std::vector<int> sorted_keys(const std::unordered_map<int, double>& weights) {
  std::vector<int> keys;
  keys.reserve(weights.size());
  // vab-lint: allow(unordered-iter-accumulate) keys are sorted before use
  for (const auto& [key, w] : weights) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

}  // namespace fixture
