#pragma once

// Minimal JSON value, parser, and serializer.
//
// Used for: saved topology designs (Fig 2 "export the data to their local
// drive"), RIS configuration files (Fig 3), and the web-services API payloads
// (§2 "programmable interface"). Supports the full JSON grammar minus
// surrogate-pair \u escapes (non-BMP text never appears in RNL payloads; the
// parser rejects it explicitly rather than mangling it).
//
// Cost model: a Json is 40 bytes, a std::variant over null, bool, double,
// std::string and shared pointers to the two containers, so moving a number
// or a container copies no string. Containers are shared between copies and
// copied on the first write to a shared one; their reference counts are
// atomic, so a copy may cross threads. An empty container allocates
// nothing. parse() makes one pass: unescaped string runs are copied whole,
// integers of up to 15 digits convert without strtod, and each array or
// object is built once, at its exact size, from the parser's scratch stack.
// dump() appends strings in unescaped runs and integers via std::to_chars.

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/result.h"

namespace rnl::util {

class Json;
using JsonArray = std::vector<Json>;
// std::map keeps object keys ordered, making serialization deterministic —
// important for design-file diffs and golden tests. The transparent
// comparator lets lookups by std::string_view skip building a std::string,
// and set() inserts at the end hint in O(1) when keys arrive in order (every
// to_json walks a sorted container), O(log n) otherwise.
using JsonObject = std::map<std::string, Json, std::less<>>;

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(std::nullptr_t) {}                                          // NOLINT
  Json(bool b) : value_(std::in_place_index<kBoolIndex>, b) {}     // NOLINT
  Json(double d) : value_(std::in_place_index<kNumberIndex>, d) {}  // NOLINT
  Json(int i) : Json(static_cast<double>(i)) {}                    // NOLINT
  Json(std::int64_t i) : Json(static_cast<double>(i)) {}           // NOLINT
  Json(std::uint64_t i) : Json(static_cast<double>(i)) {}          // NOLINT
  Json(std::uint32_t i) : Json(static_cast<double>(i)) {}          // NOLINT
  Json(const char* s) : value_(std::in_place_index<kStringIndex>, s) {}  // NOLINT
  Json(std::string s)                                              // NOLINT
      : value_(std::in_place_index<kStringIndex>, std::move(s)) {}
  Json(std::string_view s)                                         // NOLINT
      : value_(std::in_place_index<kStringIndex>, s) {}
  Json(JsonArray a);                                               // NOLINT
  Json(JsonObject o);                                              // NOLINT

  static Json array() { return Json(ArrayPtr{}); }
  static Json object() { return Json(ObjectPtr{}); }

  [[nodiscard]] Type type() const { return static_cast<Type>(value_.index()); }
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type() == Type::kBool; }
  [[nodiscard]] bool is_number() const { return type() == Type::kNumber; }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }

  // Typed accessors: return the value if this node has the matching type,
  // otherwise a caller-provided default. Keeps call sites total.
  [[nodiscard]] bool as_bool(bool fallback = false) const;
  [[nodiscard]] double as_number(double fallback = 0) const;
  [[nodiscard]] std::int64_t as_int(std::int64_t fallback = 0) const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const JsonArray& as_array() const;
  [[nodiscard]] const JsonObject& as_object() const;

  /// Object field lookup; returns a shared null for missing keys / non-objects.
  [[nodiscard]] const Json& operator[](std::string_view key) const;
  /// Array element lookup; shared null when out of range.
  [[nodiscard]] const Json& at(std::size_t index) const;
  [[nodiscard]] bool contains(std::string_view key) const;

  /// Mutating object field access (creates the field, converts null->object).
  Json& set(std::string key, Json value);
  /// Appends to an array (converts null->array).
  Json& push_back(Json value);

  [[nodiscard]] std::size_t size() const;

  /// Compact serialization (no whitespace).
  [[nodiscard]] std::string dump() const;
  /// Pretty serialization with 2-space indent.
  [[nodiscard]] std::string dump_pretty() const;

  /// The deepest nesting parse() accepts: the top-level value is at depth
  /// 0, and each array or object a value sits in adds one.
  static constexpr int kMaxDepth = 128;

  static Result<Json> parse(std::string_view text);

  bool operator==(const Json& other) const;

 private:
  // Null pointers stand for empty containers.
  using ArrayPtr = std::shared_ptr<JsonArray>;
  using ObjectPtr = std::shared_ptr<JsonObject>;
  // Alternative indices, in Type order.
  static constexpr std::size_t kBoolIndex = 1;
  static constexpr std::size_t kNumberIndex = 2;
  static constexpr std::size_t kStringIndex = 3;

  explicit Json(ArrayPtr a) : value_(std::move(a)) {}
  explicit Json(ObjectPtr o) : value_(std::move(o)) {}

  JsonArray& mutable_array();
  JsonObject& mutable_object();
  void dump_to(std::string& out, int indent, int depth) const;

  std::variant<std::monostate, bool, double, std::string, ArrayPtr, ObjectPtr>
      value_;
};

}  // namespace rnl::util
