#include "util/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>

namespace rnl::util {

static_assert(sizeof(Json) <= 40, "a Json value is a 40-byte variant");

namespace {
const Json& shared_null() {
  static const Json null;
  return null;
}
const std::string& shared_empty_string() {
  static const std::string empty;
  return empty;
}
const JsonArray& shared_empty_array() {
  static const JsonArray empty;
  return empty;
}
const JsonObject& shared_empty_object() {
  static const JsonObject empty;
  return empty;
}
}  // namespace

Json::Json(JsonArray a)
    : Json(a.empty() ? ArrayPtr{} : std::make_shared<JsonArray>(std::move(a))) {}

Json::Json(JsonObject o)
    : Json(o.empty() ? ObjectPtr{}
                     : std::make_shared<JsonObject>(std::move(o))) {}

bool Json::as_bool(bool fallback) const {
  const bool* b = std::get_if<bool>(&value_);
  return b != nullptr ? *b : fallback;
}

double Json::as_number(double fallback) const {
  const double* d = std::get_if<double>(&value_);
  return d != nullptr ? *d : fallback;
}

std::int64_t Json::as_int(std::int64_t fallback) const {
  const double* d = std::get_if<double>(&value_);
  if (d == nullptr || std::isnan(*d)) return fallback;
  // llround outside int64's range is undefined behaviour, and every API id
  // field funnels attacker-chosen numbers through here — clamp instead.
  constexpr double kInt64Edge = 9223372036854775808.0;  // 2^63
  if (*d >= kInt64Edge) return std::numeric_limits<std::int64_t>::max();
  if (*d < -kInt64Edge) return std::numeric_limits<std::int64_t>::min();
  return static_cast<std::int64_t>(std::llround(*d));
}

const std::string& Json::as_string() const {
  const std::string* s = std::get_if<std::string>(&value_);
  return s != nullptr ? *s : shared_empty_string();
}

const JsonArray& Json::as_array() const {
  const ArrayPtr* a = std::get_if<ArrayPtr>(&value_);
  return a != nullptr && *a ? **a : shared_empty_array();
}

const JsonObject& Json::as_object() const {
  const ObjectPtr* o = std::get_if<ObjectPtr>(&value_);
  return o != nullptr && *o ? **o : shared_empty_object();
}

const Json& Json::operator[](std::string_view key) const {
  const JsonObject& object = as_object();
  auto it = object.find(key);
  return it == object.end() ? shared_null() : it->second;
}

const Json& Json::at(std::size_t index) const {
  const JsonArray& array = as_array();
  return index < array.size() ? array[index] : shared_null();
}

bool Json::contains(std::string_view key) const {
  const JsonObject& object = as_object();
  return object.find(key) != object.end();
}

// Copy-on-write: containers are shared between copies of Json values; never
// mutate a container another Json can still see.
JsonArray& Json::mutable_array() {
  ArrayPtr* a = std::get_if<ArrayPtr>(&value_);
  if (a == nullptr) a = &value_.emplace<ArrayPtr>();
  if (!*a) {
    *a = std::make_shared<JsonArray>();
  } else if (a->use_count() > 1) {
    *a = std::make_shared<JsonArray>(**a);
  }
  return **a;
}

JsonObject& Json::mutable_object() {
  ObjectPtr* o = std::get_if<ObjectPtr>(&value_);
  if (o == nullptr) o = &value_.emplace<ObjectPtr>();
  if (!*o) {
    *o = std::make_shared<JsonObject>();
  } else if (o->use_count() > 1) {
    *o = std::make_shared<JsonObject>(**o);
  }
  return **o;
}

Json& Json::set(std::string key, Json value) {
  JsonObject& object = mutable_object();
  object.insert_or_assign(object.end(), std::move(key), std::move(value));
  return *this;
}

Json& Json::push_back(Json value) {
  mutable_array().push_back(std::move(value));
  return *this;
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

bool Json::operator==(const Json& other) const {
  if (type() != other.type()) return false;
  switch (type()) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return as_bool() == other.as_bool();
    case Type::kNumber:
      return as_number() == other.as_number();
    case Type::kString:
      return as_string() == other.as_string();
    case Type::kArray:
      return as_array() == other.as_array();
    case Type::kObject:
      return as_object() == other.as_object();
  }
  return false;
}

namespace {

// The escape for each byte that JSON strings may not carry raw; 0 for the
// bytes that print as themselves.
constexpr char escape_letter(unsigned char c) {
  switch (c) {
    case '"':
      return '"';
    case '\\':
      return '\\';
    case '\n':
      return 'n';
    case '\r':
      return 'r';
    case '\t':
      return 't';
    case '\b':
      return 'b';
    case '\f':
      return 'f';
    default:
      return c < 0x20 ? 'u' : 0;
  }
}

void escape_string(std::string_view in, std::string& out) {
  out.push_back('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const auto c = static_cast<unsigned char>(in[i]);
    const char letter = escape_letter(c);
    if (letter == 0) continue;
    out.append(in.data() + run, i - run);
    run = i + 1;
    if (letter == 'u') {
      constexpr char kHex[] = "0123456789abcdef";
      const char code[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
      out.append(code, sizeof code);
    } else {
      const char code[] = {'\\', letter};
      out.append(code, sizeof code);
    }
  }
  out.append(in.data() + run, in.size() - run);
  out.push_back('"');
}

void append_number(double value, std::string& out) {
  // JSON has no representation for NaN/infinity (the parser rejects them;
  // programmatic values can still hold them) — serialize as null rather
  // than emitting a token no parser accepts.
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[32];
  // Integers (the overwhelmingly common case in RNL payloads: ids, ports,
  // timestamps) serialize without a decimal point.
  if (value == std::floor(value) && std::abs(value) < 9.0e15) {
    auto [end, ec] =
        std::to_chars(buf, buf + sizeof buf, static_cast<long long>(value));
    out.append(buf, end);
  } else {
    int n = std::snprintf(buf, sizeof buf, "%.17g", value);
    out.append(buf, static_cast<std::size_t>(n));
  }
}

void append_indent(std::string& out, int indent, int depth) {
  if (indent > 0) {
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * depth, ' ');
  }
}

}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += as_bool() ? "true" : "false";
      return;
    case Type::kNumber:
      append_number(as_number(), out);
      return;
    case Type::kString:
      escape_string(as_string(), out);
      return;
    case Type::kArray: {
      const auto& arr = as_array();
      if (arr.empty()) {
        out += "[]";
        return;
      }
      out.push_back('[');
      bool first = true;
      for (const auto& element : arr) {
        if (!first) out.push_back(',');
        first = false;
        append_indent(out, indent, depth + 1);
        element.dump_to(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out.push_back(']');
      return;
    }
    case Type::kObject: {
      const auto& obj = as_object();
      if (obj.empty()) {
        out += "{}";
        return;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : obj) {
        if (!first) out.push_back(',');
        first = false;
        append_indent(out, indent, depth + 1);
        escape_string(key, out);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        value.dump_to(out, indent, depth + 1);
      }
      append_indent(out, indent, depth);
      out.push_back('}');
      return;
    }
  }
}

namespace {
// A container's text starts at least this long; reserving it up front skips
// the string's first three regrowths (30, 60, 120 bytes).
constexpr std::size_t kDumpReserve = 128;
}  // namespace

std::string Json::dump() const {
  std::string out;
  if (is_array() || is_object()) out.reserve(kDumpReserve);
  dump_to(out, 0, 0);
  return out;
}

std::string Json::dump_pretty() const {
  std::string out;
  if (is_array() || is_object()) out.reserve(kDumpReserve);
  dump_to(out, 2, 0);
  return out;
}

namespace {

bool is_digit(char c) { return c >= '0' && c <= '9'; }

// The bytes a number token spans; parse_number decides if they spell one.
bool is_number_char(char c) {
  return is_digit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' ||
         c == '-';
}

/// Scratch the parser reuses from one document to the next on a thread:
/// finished values waiting for their enclosing container, the keys of open
/// objects, and the text of escaped strings. A document is only handed out
/// once assembled, so nothing here outlives one parse() call.
struct ParseScratch {
  std::vector<Json> values;
  std::vector<std::string> keys;
  std::string text;
};

// A large document (a 64k-site journal snapshot) grows the scratch; past
// these sizes it is released after the parse instead of kept for the
// thread's life.
constexpr std::size_t kScratchKeepEntries = 1024;
constexpr std::size_t kScratchKeepTextBytes = 64 * 1024;

class Parser {
 public:
  Parser(std::string_view text, ParseScratch& scratch)
      : text_(text), scratch_(scratch) {}
  Parser(const Parser&) = delete;
  Parser& operator=(const Parser&) = delete;

  ~Parser() {
    scratch_.values.clear();
    scratch_.keys.clear();
    if (scratch_.values.capacity() > kScratchKeepEntries) {
      scratch_.values.shrink_to_fit();
    }
    if (scratch_.keys.capacity() > kScratchKeepEntries) {
      scratch_.keys.shrink_to_fit();
    }
    if (scratch_.text.capacity() > kScratchKeepTextBytes) {
      scratch_.text.shrink_to_fit();
    }
  }

  Result<Json> parse() {
    skip_ws();
    if (!parse_value(0)) return Error{std::move(error_)};
    skip_ws();
    if (pos_ != text_.size()) {
      return Error{err("trailing characters after JSON value")};
    }
    return std::move(scratch_.values.back());
  }

 private:
  std::string err(std::string_view what) const {
    std::string message = "json parse error at offset ";
    message += std::to_string(pos_);
    message += ": ";
    message += what;
    return message;
  }

  bool fail(std::string_view what) {
    error_ = err(what);
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word, Json value) {
    if (text_.substr(pos_, word.size()) != word) return fail("invalid literal");
    pos_ += word.size();
    scratch_.values.push_back(std::move(value));
    return true;
  }

  /// Parses one value and pushes it onto the scratch value stack.
  bool parse_value(int depth) {
    if (depth > Json::kMaxDepth) return fail("nesting too deep");
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return parse_object(depth);
      case '[':
        return parse_array(depth);
      case '"': {
        std::string_view s;
        if (!parse_string(&s)) return false;
        scratch_.values.emplace_back(s);
        return true;
      }
      case 't':
        return literal("true", Json(true));
      case 'f':
        return literal("false", Json(false));
      case 'n':
        return literal("null", Json(nullptr));
      default:
        return parse_number();
    }
  }

  bool parse_object(int depth) {
    ++pos_;  // '{'
    const std::size_t first_value = scratch_.values.size();
    const std::size_t first_key = scratch_.keys.size();
    skip_ws();
    if (!consume('}')) {
      while (true) {
        skip_ws();
        std::string_view key;
        if (!parse_string(&key)) return false;
        scratch_.keys.emplace_back(key);
        skip_ws();
        if (!consume(':')) return fail("expected ':' in object");
        skip_ws();
        if (!parse_value(depth + 1)) return false;
        skip_ws();
        if (consume(',')) continue;
        if (consume('}')) break;
        return fail("expected ',' or '}' in object");
      }
    }
    // Keys arriving in order (every dump() writes them so) insert at the end
    // hint in O(1); a repeated key keeps its last value.
    JsonObject members;
    auto key = scratch_.keys.begin() + static_cast<std::ptrdiff_t>(first_key);
    auto value =
        scratch_.values.begin() + static_cast<std::ptrdiff_t>(first_value);
    for (; key != scratch_.keys.end(); ++key, ++value) {
      members.insert_or_assign(members.end(), std::move(*key),
                               std::move(*value));
    }
    scratch_.keys.resize(first_key);
    scratch_.values.resize(first_value);
    scratch_.values.emplace_back(std::move(members));
    return true;
  }

  bool parse_array(int depth) {
    ++pos_;  // '['
    const std::size_t first = scratch_.values.size();
    skip_ws();
    if (!consume(']')) {
      while (true) {
        skip_ws();
        if (!parse_value(depth + 1)) return false;
        skip_ws();
        if (consume(',')) continue;
        if (consume(']')) break;
        return fail("expected ',' or ']' in array");
      }
    }
    auto begin = scratch_.values.begin() + static_cast<std::ptrdiff_t>(first);
    JsonArray items(std::make_move_iterator(begin),
                    std::make_move_iterator(scratch_.values.end()));
    scratch_.values.resize(first);
    scratch_.values.emplace_back(std::move(items));
    return true;
  }

  /// Parses a string token. `*out` views the input itself when the string
  /// has no escapes, else the scratch text; either way it is valid until the
  /// next parse_string.
  bool parse_string(std::string_view* out) {
    if (!consume('"')) return fail("expected string");
    const std::size_t start = pos_;
    std::size_t run = pos_;
    while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
      ++run;
    }
    if (run < text_.size() && text_[run] == '"') {
      pos_ = run + 1;
      *out = text_.substr(start, run - start);
      return true;
    }
    std::string& decoded = scratch_.text;
    decoded.assign(text_.data() + start, run - start);
    pos_ = run;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') {
        *out = decoded;
        return true;
      }
      if (c != '\\') {
        // Copy the whole unescaped run up to the next quote or backslash.
        run = pos_;
        while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
          ++run;
        }
        decoded.append(text_.data() + pos_ - 1, run - pos_ + 1);
        pos_ = run;
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          decoded.push_back(esc);
          break;
        case 'n':
          decoded.push_back('\n');
          break;
        case 'r':
          decoded.push_back('\r');
          break;
        case 't':
          decoded.push_back('\t');
          break;
        case 'b':
          decoded.push_back('\b');
          break;
        case 'f':
          decoded.push_back('\f');
          break;
        case 'u':
          if (!parse_unicode_escape(decoded)) return false;
          break;
        default:
          return fail("bad escape character");
      }
    }
    return fail("unterminated string");
  }

  /// The four hex digits after "\u", appended as UTF-8.
  bool parse_unicode_escape(std::string& out) {
    if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<unsigned>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<unsigned>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<unsigned>(h - 'A' + 10);
      } else {
        return fail("bad hex digit in \\u escape");
      }
    }
    if (code >= 0xD800 && code <= 0xDFFF) {
      return fail("surrogate-pair escapes unsupported");
    }
    // UTF-8 encode the BMP code point.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return true;
  }

  bool parse_number() {
    // One scan checks the token against RFC 8259's number grammar,
    //   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // Ids, ports, epochs and timestamps (integers of at most 15 digits,
    // exact in a double) convert here; every other number takes strtod.
    constexpr std::size_t kDirectDigits = 15;
    const std::size_t start = pos_;
    std::size_t end = start;
    auto digits = [&] {
      const std::size_t first = end;
      while (end < text_.size() && is_digit(text_[end])) ++end;
      return end - first;
    };
    auto at = [&](char c) { return end < text_.size() && text_[end] == c; };
    const bool negative = at('-');
    if (negative) ++end;
    const std::size_t first_digit = end;
    std::uint64_t magnitude = 0;  // wraps past 19 digits; read up to 15
    for (; end < text_.size() && is_digit(text_[end]); ++end) {
      magnitude = magnitude * 10 + static_cast<std::uint64_t>(text_[end] - '0');
    }
    const std::size_t integer_digits = end - first_digit;
    bool valid = integer_digits == 1 ||
                 (integer_digits > 1 && text_[first_digit] != '0');
    if (valid && integer_digits <= kDirectDigits &&
        (end == text_.size() || !is_number_char(text_[end]))) {
      pos_ = end;
      const auto value = static_cast<double>(magnitude);
      scratch_.values.emplace_back(negative ? -value : value);
      return true;
    }
    if (valid && at('.')) {
      ++end;
      valid = digits() > 0;
    }
    if (valid && (at('e') || at('E'))) {
      ++end;
      if (at('+') || at('-')) ++end;
      valid = digits() > 0;
    }
    pos_ = end;
    while (pos_ < text_.size() && is_number_char(text_[pos_])) ++pos_;
    if (pos_ == start) return fail("expected value");
    const std::string token(text_.substr(start, pos_ - start));
    if (!valid || pos_ != end) return fail("invalid number '" + token + "'");
    // strtod reads every token the grammar accepts whole.
    const double value = std::strtod(token.c_str(), nullptr);
    // "1e999" overflows strtod to infinity; accepting it would round-trip
    // through dump() as a non-JSON token. Out-of-range is a parse error.
    if (!std::isfinite(value)) {
      return fail("number out of range '" + token + "'");
    }
    scratch_.values.emplace_back(value);
    return true;
  }

  std::string_view text_;
  ParseScratch& scratch_;
  std::size_t pos_ = 0;
  std::string error_;
};

}  // namespace

Result<Json> Json::parse(std::string_view text) {
  // One scratch per thread: parse() runs no callbacks, so it never re-enters.
  thread_local ParseScratch scratch;
  return Parser(text, scratch).parse();
}

}  // namespace rnl::util
