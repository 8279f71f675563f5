#pragma once
// diff_common — what metrics_diff, timeseries_diff and bench_diff share:
// one whole-document JSON reader, file loading, strict tolerance-flag
// parsing, and the tolerance band. Each tool keeps its own schema walker
// and comparator on top.
//
// The reader accepts strict JSON as this repo's writers emit it:
//  - objects, arrays, `true`/`false` (no `null`: nothing writes one);
//  - strings with the escapes util::json_escape produces, the other
//    single-character JSON escapes, and \u00XX;
//  - numbers. A token without '.', 'e' or 'E' is an integer and stays
//    exact as int64 (a counter above 2^53 must not round); any other
//    token is a double, as bench_diff's %g-formatted ops are.
// Every error — malformed input, a missing field, a value of the wrong
// kind — reads "line L, column C: <what>", so a misread number is a loud
// parse error, never a silent zero.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace vgrid::tools {

struct JsonValue {
  enum class Kind { kObject, kArray, kString, kInt, kDouble, kBool };
  Kind kind = Kind::kInt;
  int line = 1;  ///< 1-based position of the value's first byte
  int column = 1;
  std::map<std::string, JsonValue> object;
  std::vector<JsonValue> array;
  std::string string;
  std::int64_t integer = 0;
  double real = 0.0;
  bool boolean = false;

  // Typed access: each throws a positioned error on any other kind.
  const std::map<std::string, JsonValue>& as_object() const;
  const std::vector<JsonValue>& as_array() const;
  const std::string& as_string() const;
  std::int64_t as_int() const;
  double as_double() const;  ///< an integer or a double
  bool as_bool() const;
};

/// Parses one whole JSON document. Throws std::runtime_error
/// "line L, column C: <what>" on malformed input.
JsonValue parse_json(const std::string& text);

/// Member `name` of `object`; a positioned error when it is absent.
const JsonValue& field(const JsonValue& object, const std::string& name);

/// Throws std::runtime_error "line L, column C: <what>" positioned at `at`.
[[noreturn]] void fail_at(const JsonValue& at, const std::string& what);

/// The whole file; throws std::runtime_error("cannot open <path>").
std::string read_file(const std::string& path);

/// A tolerance flag value: the whole token must be a finite number >= 0
/// ("25%" or "0.1x" is nullopt, not 25 or 0.1).
std::optional<double> parse_tolerance(const std::string& token);

/// The band shared by metrics_diff and timeseries_diff:
/// |a - b| <= abs_tol + rel_tol * max(|a|, |b|). The difference is taken
/// exactly in 64-bit integers, so a zero band (the default, the
/// determinism gate) means integer equality at any magnitude.
struct Tolerance {
  double abs_tol = 0.0;
  double rel_tol = 0.0;

  bool within(std::int64_t a, std::int64_t b) const;
};

}  // namespace vgrid::tools
