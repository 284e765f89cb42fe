// Minimal JSON document model, parser and serializer.
//
// Used by the injection log (equivalent injection, paper Section IV-C) and
// by bench harnesses to emit machine-readable results. Objects preserve
// insertion order so logs diff cleanly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ckptfi {

/// A JSON value: null, bool, number (double or int64), string, array, object
/// — or a raw, already-serialized fragment (see raw()).
class Json {
 public:
  enum class Type { Null, Bool, Int, Double, String, Array, Object, Raw };

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(int v) : type_(Type::Int), int_(v) {}
  Json(std::int64_t v) : type_(Type::Int), int_(v) {}
  Json(std::uint64_t v) : type_(Type::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : type_(Type::Double), double_(v) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}

  static Json array() {
    Json j;
    j.type_ = Type::Array;
    return j;
  }
  static Json object() {
    Json j;
    j.type_ = Type::Object;
    return j;
  }
  /// A pre-serialized value: `text` must be one complete compact JSON value
  /// (what dump() would print for it). dump() appends it verbatim at any
  /// indent; every accessor throws FormatError, as for any type mismatch.
  /// Lets a large subtree (a campaign row's injection log) be written
  /// straight into text instead of built node by node.
  static Json raw(std::string text) {
    Json j;
    j.type_ = Type::Raw;
    j.string_ = std::move(text);
    return j;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_number() const { return type_ == Type::Int || type_ == Type::Double; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  // Accessors; all throw FormatError on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;
  const std::string& as_string() const;

  // Array API.
  void push_back(Json v);
  std::size_t size() const;
  const Json& at(std::size_t i) const;
  const std::vector<Json>& items() const;

  // Object API (insertion-ordered).
  Json& operator[](const std::string& key);  ///< creates Null entry if absent
  bool contains(const std::string& key) const;
  const Json& at(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Serialize. indent < 0 means compact single-line output.
  std::string dump(int indent = -1) const;

  /// Parse a JSON text; throws FormatError on malformed input.
  static Json parse(const std::string& text);

  // dump()'s scalar formatters, for writers that emit JSON text directly.
  // A writer built on these prints the bytes dump() prints for the same tree.

  /// Quoted string; `"`, `\` and control bytes escaped.
  static void write_string(std::string& out, std::string_view s);
  static void write_int(std::string& out, std::int64_t v);
  /// printf("%.17g"); NaN and ±Inf, which JSON lacks, as the strings "NaN",
  /// "Inf" and "-Inf".
  static void write_double(std::string& out, double v);

 private:
  void dump_impl(std::string& out, int indent, int depth) const;
  /// Length of the compact dump, or more: doubles count as their longest
  /// form. Short only when a string needs escapes.
  std::size_t compact_size_hint() const;

  Type type_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace ckptfi
