#include "util/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace kncube::util {

Args::Args(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--key value` unless the next token is itself an option or missing.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "";  // bare flag
    }
  }
}

bool Args::has(const std::string& key) const { return values_.count(key) > 0; }

std::optional<std::string> Args::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_string(const std::string& key, const std::string& def) const {
  return get(key).value_or(def);
}

std::int64_t Args::get_int(const std::string& key, std::int64_t def) const {
  const auto v = get(key);
  if (!v || v->empty()) return def;
  errno = 0;
  char* end = nullptr;
  const long long x = std::strtoll(v->c_str(), &end, 10);
  if (*end != '\0' || errno == ERANGE) {
    throw std::invalid_argument("bad integer for --" + key + ": " + *v);
  }
  return x;
}

double Args::get_double(const std::string& key, double def) const {
  const auto v = get(key);
  if (!v || v->empty()) return def;
  char* end = nullptr;
  const double x = std::strtod(v->c_str(), &end);
  if (*end != '\0' || !std::isfinite(x)) {
    throw std::invalid_argument("bad number for --" + key + ": " + *v);
  }
  return x;
}

bool Args::get_bool(const std::string& key, bool def) const {
  const auto v = get(key);
  if (!v) return def;
  if (v->empty() || *v == "1" || *v == "true" || *v == "yes" || *v == "on") return true;
  if (*v == "0" || *v == "false" || *v == "no" || *v == "off") return false;
  throw std::invalid_argument("bad boolean for --" + key + ": " + *v);
}

std::vector<std::string> Args::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

std::vector<std::string> Args::unknown_keys(const std::vector<std::string>& allowed) const {
  std::vector<std::string> out;
  for (const auto& [k, _] : values_) {
    if (std::find(allowed.begin(), allowed.end(), k) == allowed.end()) out.push_back(k);
  }
  return out;
}

}  // namespace kncube::util
