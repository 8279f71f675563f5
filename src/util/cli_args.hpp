#pragma once
// Strict flag parser for the vgrid CLI and the benches. A command's
// synopsis declares its flags: "[--name]" a boolean flag, "[--name VALUE]"
// a flag that takes a value. No external dependencies.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "util/error.hpp"

namespace vgrid::util {

/// A command line that does not match its command's synopsis.
struct UsageError : ConfigError {
  using ConfigError::ConfigError;
};

/// `text` parsed in full as a non-negative integer that fits in T ("5x",
/// "-5" and "" are not counts).
template <typename T>
std::optional<T> parse_count(std::string_view text) {
  std::uint64_t parsed = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, parsed);
  if (text.empty() || error != std::errc() || end != last ||
      parsed > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return std::nullopt;
  }
  return static_cast<T>(parsed);
}

class Args {
 public:
  /// Parse argv[first..argc) against the flags `synopsis` declares: "--x 1"
  /// or "--x=1" for a value flag, a bare "--x" for a boolean flag, which
  /// never takes the next word as its value. Throws UsageError, naming the
  /// flag, on an undeclared or repeated flag, on "--bool=value", and on a
  /// value flag with no value.
  Args(std::string_view synopsis, int argc, char** argv, int first = 1) {
    for (auto at = synopsis.find("[--"); at != std::string_view::npos;
         at = synopsis.find("[--", at + 1)) {
      const auto end = synopsis.find_first_of(" ]", at);
      declared_.emplace(synopsis.substr(at + 3, end - at - 3),
                        end < synopsis.size() && synopsis[end] == ' ');
    }
    for (int i = first; i < argc; ++i) {
      const std::string_view token = argv[i];
      if (token.rfind("--", 0) != 0) {
        positional_.emplace_back(token);
        continue;
      }
      const auto eq = token.find('=');
      const std::string name(token.substr(2, eq - 2));
      const auto kind = declared_.find(name);
      if (kind == declared_.end()) throw UsageError("unknown flag --" + name);
      if (flags_.count(name) != 0) throw UsageError("repeated --" + name);
      if (!kind->second) {
        if (eq != std::string_view::npos) {
          throw UsageError("--" + name + " takes no value");
        }
        flags_[name] = "";
      } else if (eq != std::string_view::npos) {
        flags_[name] = token.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string_view(argv[i + 1]).rfind("--", 0) != 0) {
        flags_[name] = argv[++i];
      } else {
        throw UsageError("--" + name + " needs a value");
      }
    }
  }

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  bool has(const std::string& flag) const {
    (void)takes_value(flag);
    return flags_.count(flag) != 0;
  }

  std::optional<std::string> get(const std::string& flag) const {
    if (!takes_value(flag)) throw std::logic_error("boolean --" + flag);
    const auto it = flags_.find(flag);
    if (it == flags_.end()) return std::nullopt;
    return it->second;
  }

  std::string get_or(const std::string& flag,
                     const std::string& fallback) const {
    return get(flag).value_or(fallback);
  }

  /// `fallback` when the flag is absent. A present value must parse in
  /// full as a non-negative integer that fits in T ("100k" is not 100,
  /// "-5" is not 2^64 - 5): anything else throws ConfigError.
  template <typename T = std::uint64_t>
  T get_count(const std::string& flag,
              std::type_identity_t<T> fallback) const {
    const auto value = get(flag);
    if (!value) return fallback;
    const auto parsed = parse_count<T>(*value);
    if (!parsed) reject(flag, "a non-negative integer");
    return *parsed;
  }

  /// As get_count, for a finite decimal number.
  double get_double(const std::string& flag, double fallback) const {
    const auto value = get(flag);
    if (!value) return fallback;
    double parsed = 0.0;
    const char* last = value->data() + value->size();
    const auto [end, error] = std::from_chars(value->data(), last, parsed);
    if (value->empty() || error != std::errc() || end != last ||
        !std::isfinite(parsed)) {
      reject(flag, "a finite number");
    }
    return parsed;
  }

 private:
  /// Reading a flag the synopsis does not declare is a programming error.
  bool takes_value(const std::string& flag) const {
    const auto it = declared_.find(flag);
    if (it == declared_.end()) throw std::logic_error("undeclared --" + flag);
    return it->second;
  }

  [[noreturn]] void reject(const std::string& flag,
                           const char* expected) const {
    throw ConfigError("--" + flag + " expects " + expected + ", got '" +
                      get_or(flag, "") + "'");
  }

  std::map<std::string, bool, std::less<>> declared_;  ///< takes a value?
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace vgrid::util
