#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "support/require.hpp"

namespace pitfalls::obs {

// ---------------------------------------------------------------- JsonWriter

void JsonWriter::before_value() {
  if (stack_.empty()) {
    PITFALLS_REQUIRE(!root_written_, "JSON document has exactly one root");
    root_written_ = true;
    return;
  }
  Frame& top = stack_.back();
  if (top.kind == '{') {
    PITFALLS_REQUIRE(top.key_pending, "object members need key() first");
    top.key_pending = false;
  } else {
    if (!top.first) raw(",");
    top.first = false;
  }
}

JsonWriter& JsonWriter::begin_object() {
  before_value();
  raw("{");
  stack_.push_back({'{'});
  return *this;
}

JsonWriter& JsonWriter::end_object() {
  PITFALLS_REQUIRE(!stack_.empty() && stack_.back().kind == '{',
                   "end_object without matching begin_object");
  PITFALLS_REQUIRE(!stack_.back().key_pending, "dangling key without value");
  stack_.pop_back();
  raw("}");
  return *this;
}

JsonWriter& JsonWriter::begin_array() {
  before_value();
  raw("[");
  stack_.push_back({'['});
  return *this;
}

JsonWriter& JsonWriter::end_array() {
  PITFALLS_REQUIRE(!stack_.empty() && stack_.back().kind == '[',
                   "end_array without matching begin_array");
  stack_.pop_back();
  raw("]");
  return *this;
}

JsonWriter& JsonWriter::key(std::string_view name) {
  PITFALLS_REQUIRE(!stack_.empty() && stack_.back().kind == '{',
                   "key() is only valid inside an object");
  Frame& top = stack_.back();
  PITFALLS_REQUIRE(!top.key_pending, "two keys in a row");
  if (!top.first) raw(",");
  top.first = false;
  top.key_pending = true;
  raw("\"");
  raw(escape(name));
  raw("\":");
  return *this;
}

JsonWriter& JsonWriter::value(std::string_view text) {
  before_value();
  raw("\"");
  raw(escape(text));
  raw("\"");
  return *this;
}

JsonWriter& JsonWriter::value(bool flag) {
  before_value();
  raw(flag ? "true" : "false");
  return *this;
}

JsonWriter& JsonWriter::value(double number) {
  if (!std::isfinite(number)) {
    // fmt_or_inf semantics: saturate into an explicit quoted marker.
    if (std::isnan(number)) return value(std::string_view("nan"));
    return value(std::string_view(number > 0 ? "inf" : "-inf"));
  }
  before_value();
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), number);
  PITFALLS_ENSURE(res.ec == std::errc{}, "double formatting failed");
  raw(std::string_view(buf, static_cast<std::size_t>(res.ptr - buf)));
  return *this;
}

JsonWriter& JsonWriter::value(std::uint64_t number) {
  before_value();
  raw(std::to_string(number));
  return *this;
}

JsonWriter& JsonWriter::value(std::int64_t number) {
  before_value();
  raw(std::to_string(number));
  return *this;
}

JsonWriter& JsonWriter::null_value() {
  before_value();
  raw("null");
  return *this;
}

const std::string& JsonWriter::str() const {
  PITFALLS_REQUIRE(stack_.empty() && root_written_,
                   "document incomplete: unclosed container or no root");
  return out_;
}

std::string JsonWriter::escape(std::string_view raw) {
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through untouched
        }
    }
  }
  return out;
}

// ----------------------------------------------------------------- JsonValue

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    JsonValue root = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return root;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON parse error at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    switch (peek()) {
      case '{':
      case '[': {
        // The parser recurses once per level: bound the depth so hostile
        // input gets a parse error instead of a stack overflow.
        if (++depth_ > JsonValue::kMaxDepth)
          fail("nesting deeper than " + std::to_string(JsonValue::kMaxDepth) +
               " levels");
        JsonValue v = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.kind = JsonValue::Kind::String;
        v.string_value = parse_string();
        return v;
      }
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return make_bool(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return make_bool(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return JsonValue{};
      default: return parse_number();
    }
  }

  static JsonValue make_bool(bool b) {
    JsonValue v;
    v.kind = JsonValue::Kind::Bool;
    v.bool_value = b;
    return v;
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.kind = JsonValue::Kind::Object;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string name = parse_string();
      skip_ws();
      expect(':');
      v.members.emplace_back(std::move(name), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.kind = JsonValue::Kind::Array;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      const bool number_char = (c >= '0' && c <= '9') || c == '.' ||
                               c == 'e' || c == 'E' || c == '+' || c == '-';
      if (!number_char) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.kind = JsonValue::Kind::Number;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_,
                                     v.number_value);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_)
      fail("malformed number");
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: fail("unknown escape");
      }
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else fail("bad hex digit in \\u escape");
    }
    return code;
  }

  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xD800 && code <= 0xDBFF) {  // high surrogate: need the pair
      if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u')
        fail("high surrogate without a following \\u low surrogate");
      pos_ += 2;
      const unsigned low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  // arrays and objects open around pos_
};

}  // namespace

const JsonValue* JsonValue::find(std::string_view name) const {
  for (const auto& [key, value] : members)
    if (key == name) return &value;
  return nullptr;
}

JsonValue JsonValue::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace pitfalls::obs
