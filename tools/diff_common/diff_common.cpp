#include "diff_common/diff_common.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace vgrid::tools {
namespace {

[[noreturn]] void fail_at_position(int line, int column,
                                   const std::string& what) {
  throw std::runtime_error("line " + std::to_string(line) + ", column " +
                           std::to_string(column) + ": " + what);
}

const char* kind_name(JsonValue::Kind kind) {
  switch (kind) {
    case JsonValue::Kind::kObject: return "an object";
    case JsonValue::Kind::kArray: return "an array";
    case JsonValue::Kind::kString: return "a string";
    case JsonValue::Kind::kInt: return "an integer";
    case JsonValue::Kind::kDouble: return "a non-integral number";
    case JsonValue::Kind::kBool: return "a boolean";
  }
  return "a value";
}

[[noreturn]] void fail_kind(const JsonValue& value, const char* expected) {
  fail_at(value, std::string("expected ") + expected + ", got " +
                     kind_name(value.kind));
}

// Recursive-descent reader over one document. The line is tracked as
// whitespace is skipped (the only place a raw newline may appear), so each
// value records where it starts and each error says where it happened.
class Reader {
 public:
  explicit Reader(const std::string& text) : text_(text) {}

  JsonValue document() {
    JsonValue value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    fail_at_position(line_, column(), what);
  }

  int column() const { return static_cast<int>(pos_ - line_start_) + 1; }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  void skip_space() {
    for (; pos_ < text_.size(); ++pos_) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        line_start_ = pos_ + 1;
      } else if (c != ' ' && c != '\t' && c != '\r') {
        return;
      }
    }
  }

  char peek() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue parse_value() {
    const char c = peek();
    JsonValue value;
    value.line = line_;
    value.column = column();
    if (c == '{') {
      parse_object(value);
    } else if (c == '[') {
      parse_array(value);
    } else if (c == '"') {
      value.kind = JsonValue::Kind::kString;
      value.string = parse_string();
    } else if (c == 't' || c == 'f') {
      parse_bool(value);
    } else {
      parse_number(value);
    }
    return value;
  }

  void parse_object(JsonValue& value) {
    value.kind = JsonValue::Kind::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return;
    }
    while (true) {
      if (peek() != '"') fail("expected a string key");
      const int key_line = line_;
      const int key_column = column();
      std::string key = parse_string();
      expect(':');
      if (!value.object.emplace(std::move(key), parse_value()).second) {
        fail_at_position(key_line, key_column, "duplicate key");
      }
      const char next = peek();
      if (next != ',' && next != '}') fail("expected ',' or '}'");
      ++pos_;
      if (next == '}') return;
    }
  }

  void parse_array(JsonValue& value) {
    value.kind = JsonValue::Kind::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return;
    }
    while (true) {
      value.array.push_back(parse_value());
      const char next = peek();
      if (next != ',' && next != ']') fail("expected ',' or ']'");
      ++pos_;
      if (next == ']') return;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      }
      ++pos_;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          unsigned code = 0;
          const char* first = text_.data() + pos_;
          const char* last = first + std::min<std::size_t>(
                                         4, text_.size() - pos_);
          const auto [end, error] = std::from_chars(first, last, code, 16);
          if (error != std::errc() || end != first + 4) {
            fail("\\u escape needs four hex digits");
          }
          // util::json_escape only writes \u00XX, for control bytes.
          if (code > 0xFF) fail("\\u escape beyond latin-1 unsupported");
          pos_ += 4;
          out.push_back(static_cast<char>(code));
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  void parse_bool(JsonValue& value) {
    value.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      value.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
    } else {
      fail("expected true or false");
    }
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ != start;
  }

  // JSON number grammar: -?digits(.digits)?([eE][+-]?digits)?
  void parse_number(JsonValue& value) {
    const std::size_t start = pos_;
    bool integral = true;
    if (at('-')) ++pos_;
    if (!digits()) fail("expected a value");
    if (at('.')) {
      integral = false;
      ++pos_;
      if (!digits()) fail("expected digits after '.'");
    }
    if (at('e') || at('E')) {
      integral = false;
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      if (!digits()) fail("expected exponent digits");
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    std::errc error{};
    if (integral) {
      value.kind = JsonValue::Kind::kInt;
      error = std::from_chars(first, last, value.integer).ec;
    } else {
      value.kind = JsonValue::Kind::kDouble;
      error = std::from_chars(first, last, value.real).ec;
    }
    if (error != std::errc()) {
      fail_at_position(value.line, value.column, "number out of range");
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  std::size_t line_start_ = 0;
};

}  // namespace

const std::map<std::string, JsonValue>& JsonValue::as_object() const {
  if (kind != Kind::kObject) fail_kind(*this, "an object");
  return object;
}

const std::vector<JsonValue>& JsonValue::as_array() const {
  if (kind != Kind::kArray) fail_kind(*this, "an array");
  return array;
}

const std::string& JsonValue::as_string() const {
  if (kind != Kind::kString) fail_kind(*this, "a string");
  return string;
}

std::int64_t JsonValue::as_int() const {
  if (kind != Kind::kInt) fail_kind(*this, "an integer");
  return integer;
}

double JsonValue::as_double() const {
  if (kind == Kind::kInt) return static_cast<double>(integer);
  if (kind != Kind::kDouble) fail_kind(*this, "a number");
  return real;
}

bool JsonValue::as_bool() const {
  if (kind != Kind::kBool) fail_kind(*this, "a boolean");
  return boolean;
}

JsonValue parse_json(const std::string& text) {
  return Reader(text).document();
}

const JsonValue& field(const JsonValue& object, const std::string& name) {
  const auto& members = object.as_object();
  const auto it = members.find(name);
  if (it == members.end()) fail_at(object, "missing field '" + name + "'");
  return it->second;
}

void fail_at(const JsonValue& at, const std::string& what) {
  fail_at_position(at.line, at.column, what);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::optional<double> parse_tolerance(const std::string& token) {
  double value = 0.0;
  const char* last = token.data() + token.size();
  const auto [end, error] = std::from_chars(token.data(), last, value);
  if (error != std::errc() || end != last || !std::isfinite(value) ||
      value < 0.0) {
    return std::nullopt;
  }
  return value;
}

bool Tolerance::within(std::int64_t a, std::int64_t b) const {
  // |a - b| in unsigned arithmetic is exact for any int64 pair; only the
  // band itself is a double.
  const std::uint64_t diff =
      a > b ? static_cast<std::uint64_t>(a) - static_cast<std::uint64_t>(b)
            : static_cast<std::uint64_t>(b) - static_cast<std::uint64_t>(a);
  const double magnitude = std::max(std::fabs(static_cast<double>(a)),
                                    std::fabs(static_cast<double>(b)));
  return static_cast<double>(diff) <= abs_tol + rel_tol * magnitude;
}

}  // namespace vgrid::tools
