#include "util/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "util/common.hpp"

namespace ckptfi {

bool Json::as_bool() const {
  if (type_ != Type::Bool) throw FormatError("Json: not a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (type_ == Type::Int) return int_;
  if (type_ == Type::Double) return static_cast<std::int64_t>(double_);
  throw FormatError("Json: not a number");
}

double Json::as_double() const {
  if (type_ == Type::Double) return double_;
  if (type_ == Type::Int) return static_cast<double>(int_);
  throw FormatError("Json: not a number");
}

const std::string& Json::as_string() const {
  if (type_ != Type::String) throw FormatError("Json: not a string");
  return string_;
}

void Json::push_back(Json v) {
  if (type_ == Type::Null) type_ = Type::Array;
  if (type_ != Type::Array) throw FormatError("Json: not an array");
  array_.push_back(std::move(v));
}

std::size_t Json::size() const {
  if (type_ == Type::Array) return array_.size();
  if (type_ == Type::Object) return object_.size();
  throw FormatError("Json: size() on non-container");
}

const Json& Json::at(std::size_t i) const {
  if (type_ != Type::Array) throw FormatError("Json: not an array");
  if (i >= array_.size()) throw FormatError("Json: array index out of range");
  return array_[i];
}

const std::vector<Json>& Json::items() const {
  if (type_ != Type::Array) throw FormatError("Json: not an array");
  return array_;
}

Json& Json::operator[](const std::string& key) {
  if (type_ == Type::Null) type_ = Type::Object;
  if (type_ != Type::Object) throw FormatError("Json: not an object");
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(key, Json());
  return object_.back().second;
}

bool Json::contains(const std::string& key) const {
  if (type_ != Type::Object) return false;
  for (const auto& [k, v] : object_) {
    if (k == key) return true;
  }
  return false;
}

const Json& Json::at(const std::string& key) const {
  if (type_ != Type::Object) throw FormatError("Json: not an object");
  for (const auto& [k, v] : object_) {
    if (k == key) return v;
  }
  throw FormatError("Json: missing key '" + key + "'");
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  if (type_ != Type::Object) throw FormatError("Json: not an object");
  return object_;
}

namespace {

bool needs_escape(char c) {
  return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void Json::write_string(std::string& out, std::string_view s) {
  out += '"';
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p != end) {
    // Copy the run of bytes that need no escape in one append.
    const char* run = p;
    while (p != end && !needs_escape(*p)) ++p;
    out.append(run, p);
    if (p == end) break;
    const char c = *p++;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const auto u = static_cast<unsigned char>(c);
        const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xf]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out += '"';
}

void Json::write_int(std::string& out, std::int64_t v) {
  char buf[24];  // "-9223372036854775808" is 20 chars
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out.append(buf, end);
}

void Json::write_double(std::string& out, double v) {
  if (std::isnan(v)) {
    out += "\"NaN\"";  // JSON has no NaN literal; logs stringify it
    return;
  }
  if (std::isinf(v)) {
    out += v > 0 ? "\"Inf\"" : "\"-Inf\"";
    return;
  }
  // to_chars(general, 17) is specified as printf("%.17g"), but ignores the
  // locale and skips the format-string machinery.
  char buf[32];  // "%.17g" needs at most 24: sign, 17 digits, '.', "e-308"
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  (void)ec;
  out.append(buf, end);
}

void Json::dump_impl(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::Null:
      out += "null";
      break;
    case Type::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Type::Int:
      write_int(out, int_);
      break;
    case Type::Double:
      write_double(out, double_);
      break;
    case Type::String:
      write_string(out, string_);
      break;
    case Type::Raw:
      out += string_;
      break;
    case Type::Array: {
      out += '[';
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (i) out += ',';
        newline_indent(out, indent, depth + 1);
        array_[i].dump_impl(out, indent, depth + 1);
      }
      if (!array_.empty()) newline_indent(out, indent, depth);
      out += ']';
      break;
    }
    case Type::Object: {
      out += '{';
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (i) out += ',';
        newline_indent(out, indent, depth + 1);
        write_string(out, object_[i].first);
        out += indent >= 0 ? ": " : ":";
        object_[i].second.dump_impl(out, indent, depth + 1);
      }
      if (!object_.empty()) newline_indent(out, indent, depth);
      out += '}';
      break;
    }
  }
}

std::size_t Json::compact_size_hint() const {
  switch (type_) {
    case Type::Null:
      return 4;
    case Type::Bool:
      return bool_ ? 4 : 5;
    case Type::Int: {
      char buf[24];
      return static_cast<std::size_t>(
          std::to_chars(buf, buf + sizeof buf, int_).ptr - buf);
    }
    case Type::Double:
      return 24;  // the longest "%.17g"
    case Type::String:
      return string_.size() + 2;
    case Type::Raw:
      return string_.size();
    case Type::Array: {
      std::size_t n = 2 + array_.size();  // brackets, commas
      for (const Json& v : array_) n += v.compact_size_hint();
      return n;
    }
    case Type::Object: {
      std::size_t n = 2 + object_.size();  // braces, commas
      for (const auto& [k, v] : object_) {
        n += k.size() + 3 + v.compact_size_hint();  // quotes, colon
      }
      return n;
    }
  }
  return 0;
}

std::string Json::dump(int indent) const {
  // Size a compact dump once. Grown by doubling, a campaign row (~180 KB,
  // nearly all of it one raw log) would keep up to twice its bytes for as
  // long as the caller holds the text, e.g. queued for an ordered write.
  std::string out;
  if (indent < 0) out.reserve(compact_size_hint());
  dump_impl(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw FormatError("Json parse error at offset " + std::to_string(pos_) +
                      ": " + why);
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  char peek() {
    if (pos_ >= s_.size()) fail("unexpected end of input");
    return s_[pos_];
  }

  char get() {
    char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (get() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n]) ++n;
    if (s_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{' || c == '[') {
      // Each nesting level is a recursion; bound it so hostile input (a
      // fleet frame, a resumed JSONL line) throws instead of overflowing
      // the stack.
      if (++depth_ > kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      Json v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') return Json(string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Json(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Json(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json(nullptr);
    }
    return number();
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      char c = get();
      if (c == '"') return out;
      if (c == '\\') {
        char e = get();
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              char h = get();
              code <<= 4;
              if (h >= '0' && h <= '9')
                code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code += static_cast<unsigned>(h - 'A' + 10);
              else
                fail("bad \\u escape");
            }
            // Encode as UTF-8 (BMP only; surrogate pairs unsupported —
            // injection logs contain only ASCII paths).
            if (code < 0x80) {
              out += static_cast<char>(code);
            } else if (code < 0x800) {
              out += static_cast<char>(0xc0 | (code >> 6));
              out += static_cast<char>(0x80 | (code & 0x3f));
            } else {
              out += static_cast<char>(0xe0 | (code >> 12));
              out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
              out += static_cast<char>(0x80 | (code & 0x3f));
            }
            break;
          }
          default:
            fail("bad escape");
        }
      } else {
        out += c;
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_double = false;
    while (pos_ < s_.size()) {
      char c = s_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        if (c == '.' || c == 'e' || c == 'E') is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && s_[start] == '-'))
      fail("bad number");
    const std::string tok = s_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t v = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc() && p == tok.data() + tok.size()) {
        // dump() prints -0.0 as "-0", and an integer has no negative zero:
        // read it back as the double it was, sign bit included.
        if (v == 0 && tok[0] == '-') return Json(-0.0);
        return Json(v);
      }
    }
    // strtod, not stod: stod throws out_of_range on gradual underflow, but
    // subnormal doubles (e.g. tiny relative deviations near 1e-316) are
    // legitimate dump() output and must round-trip. strtod returns the
    // subnormal (or signed zero) instead.
    char* end = nullptr;
    const double d = std::strtod(tok.c_str(), &end);
    if (end != tok.c_str() + tok.size()) fail("bad number '" + tok + "'");
    return Json(d);
  }

  Json array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(value());
      skip_ws();
      char c = get();
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'");
    }
  }

  Json object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      obj[key] = value();
      skip_ws();
      char c = get();
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'");
    }
  }

  static constexpr int kMaxDepth = 256;

  const std::string& s_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).parse(); }

}  // namespace ckptfi
