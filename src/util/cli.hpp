// Minimal command-line option parsing shared by examples and benches.
//
// Accepts `--key value`, `--key=value` and bare `--flag` forms. Unknown keys
// are collected so callers can reject typos, and every accessor takes an
// explicit default so binaries are runnable with no arguments (required for
// the `for b in build/bench/*; do $b; done` harness).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace kncube::util {

class Args {
 public:
  Args(int argc, const char* const* argv);

  bool has(const std::string& key) const;
  std::optional<std::string> get(const std::string& key) const;

  std::string get_string(const std::string& key, const std::string& def) const;
  /// The numeric and boolean accessors throw std::invalid_argument naming
  /// the flag unless the whole value parses (a double must also be finite);
  /// an empty numeric value falls back to `def`.
  std::int64_t get_int(const std::string& key, std::int64_t def) const;
  double get_double(const std::string& key, double def) const;
  bool get_bool(const std::string& key, bool def) const;

  /// Positional (non --key) arguments, in order.
  const std::vector<std::string>& positional() const noexcept { return positional_; }
  /// Every `--key` seen, for unknown-option validation.
  std::vector<std::string> keys() const;

  /// Returns the list of keys not in `allowed` (empty means all known).
  std::vector<std::string> unknown_keys(const std::vector<std::string>& allowed) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace kncube::util
