// Tiny key=value configuration store with typed getters.
//
// Examples accept `key=value` command-line overrides (e.g. `range_m=150
// bitrate=500`) so scenarios can be explored without recompiling.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace vab::common {

class Config {
 public:
  Config() = default;

  /// Parses `key=value` tokens; tokens without '=' raise.
  static Config from_args(int argc, const char* const* argv);

  /// Parses an ini-like string: one `key=value` per line, '#' comments.
  static Config from_string(const std::string& text);

  void set(const std::string& key, const std::string& value);

  bool has(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  long get_int(const std::string& key, long fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;
  /// A count in [lo, hi]; throws std::invalid_argument naming the key when
  /// the value is not an integer or lies outside the range, so a negative
  /// value never wraps into a huge size_t.
  std::size_t get_count(const std::string& key, std::size_t fallback, std::size_t lo,
                        std::size_t hi) const;

  std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
};

/// Handler of every bench and example `main`, a function-try-block catching
/// std::invalid_argument (bad input): prints the message, returns exit 2.
int bad_input(const std::invalid_argument& e);

}  // namespace vab::common
