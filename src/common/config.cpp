#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace vab::common {

namespace {
std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r\n");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r\n");
  return s.substr(b, e - b + 1);
}
}  // namespace

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    const auto eq = tok.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("expected key=value, got '" + tok + "'");
    cfg.set(trim(tok.substr(0, eq)), trim(tok.substr(eq + 1)));
  }
  return cfg;
}

Config Config::from_string(const std::string& text) {
  Config cfg;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    line = trim(line);
    if (line.empty()) continue;
    const auto eq = line.find('=');
    if (eq == std::string::npos)
      throw std::invalid_argument("config line missing '=': " + line);
    cfg.set(trim(line.substr(0, eq)), trim(line.substr(eq + 1)));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  if (key.empty()) throw std::invalid_argument("empty config key");
  values_[key] = value;
}

bool Config::has(const std::string& key) const { return values_.contains(key); }

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Config::get_double(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  // Strict parse: the whole value must be consumed. std::stod alone accepts
  // "1.5abc" as 1.5, which silently turns a typo'd override (range_m=100m)
  // into a plausible number instead of an error.
  try {
    std::size_t consumed = 0;
    const double v = std::stod(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + key +
                                "' is not a number: " + it->second);
  }
}

long Config::get_int(const std::string& key, long fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  try {
    std::size_t consumed = 0;
    const long v = std::stol(it->second, &consumed);
    if (consumed != it->second.size()) throw std::invalid_argument("trailing characters");
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("config key '" + key +
                                "' is not an integer: " + it->second);
  }
}

std::size_t Config::get_count(const std::string& key, std::size_t fallback,
                              std::size_t lo, std::size_t hi) const {
  if (!has(key)) return fallback;
  const long v = get_int(key, 0);
  if (v < 0 || static_cast<unsigned long>(v) < lo || static_cast<unsigned long>(v) > hi)
    throw std::invalid_argument("config key '" + key + "' must be an integer in [" +
                                std::to_string(lo) + ", " + std::to_string(hi) +
                                "]: " + get_string(key, ""));
  return static_cast<std::size_t>(v);
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::string v = it->second;
  // Plain ::tolower(char) is UB for negative chars (cert-str34-c); widen
  // through unsigned char first.
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (v == "1" || v == "true" || v == "yes" || v == "on") return true;
  if (v == "0" || v == "false" || v == "no" || v == "off") return false;
  throw std::invalid_argument("config key '" + key + "' is not a boolean: " + it->second);
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

int bad_input(const std::invalid_argument& e) {
  std::cerr << "error: " << e.what() << "\n";
  return 2;
}

}  // namespace vab::common
