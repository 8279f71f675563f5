#pragma once
// Minimal flag parser for the vgrid CLI: positionals plus --flag[=value] /
// --flag value pairs. No external dependencies.

#include <charconv>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "util/error.hpp"

namespace vgrid::util {

class Args {
 public:
  /// Parse argv[first..argc). Flags start with "--"; "--x=1", "--x 1" and
  /// bare "--x" (boolean) are accepted.
  Args(int argc, char** argv, int first = 1) {
    for (int i = first; i < argc; ++i) {
      std::string token = argv[i];
      if (token.rfind("--", 0) == 0) {
        token.erase(0, 2);
        const auto eq = token.find('=');
        if (eq != std::string::npos) {
          flags_[token.substr(0, eq)] = token.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[token] = argv[++i];
        } else {
          flags_[token] = "";
        }
      } else {
        positional_.push_back(std::move(token));
      }
    }
  }

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  bool has(const std::string& flag) const {
    return flags_.count(flag) != 0;
  }

  std::optional<std::string> get(const std::string& flag) const {
    const auto it = flags_.find(flag);
    if (it == flags_.end()) return std::nullopt;
    return it->second;
  }

  std::string get_or(const std::string& flag,
                     const std::string& fallback) const {
    return get(flag).value_or(fallback);
  }

  /// `fallback` when the flag is absent. A present value must parse in
  /// full ("100k" is not 100): anything else throws ConfigError.
  long get_long(const std::string& flag, long fallback) const {
    return get_number(flag, fallback, "an integer");
  }

  /// As get_long, for a finite decimal number.
  double get_double(const std::string& flag, double fallback) const {
    const double value = get_number(flag, fallback, "a number");
    if (!std::isfinite(value)) reject(flag, "a finite number");
    return value;
  }

 private:
  template <typename T>
  T get_number(const std::string& flag, T fallback,
               const char* expected) const {
    const auto value = get(flag);
    if (!value) return fallback;
    T parsed{};
    const char* last = value->data() + value->size();
    const auto [end, error] = std::from_chars(value->data(), last, parsed);
    if (value->empty() || error != std::errc() || end != last) {
      reject(flag, expected);
    }
    return parsed;
  }

  [[noreturn]] void reject(const std::string& flag,
                           const char* expected) const {
    throw ConfigError("--" + flag + " expects " + expected + ", got '" +
                      get_or(flag, "") + "'");
  }

  std::vector<std::string> positional_;
  std::map<std::string, std::string> flags_;
};

}  // namespace vgrid::util
