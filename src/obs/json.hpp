// Dependency-free JSON emission and parsing for the observability layer.
//
//   * JsonWriter — streaming writer with automatic comma/nesting management
//     and correct string escaping. Non-finite doubles are serialized as the
//     quoted strings "inf" / "-inf" / "nan" (JSON has no literals for them;
//     quoting keeps the document valid and the saturation unambiguous, the
//     same role Table::fmt_or_inf plays for ASCII cells).
//   * JsonValue — a small recursive-descent parser used by the bench-output
//     validator and the tests. Object member order is preserved.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace pitfalls::obs {

class JsonWriter {
 public:
  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Member name inside an object; must be followed by exactly one value.
  JsonWriter& key(std::string_view name);

  JsonWriter& value(std::string_view text);
  JsonWriter& value(const char* text) { return value(std::string_view(text)); }
  JsonWriter& value(bool flag);
  JsonWriter& value(double number);
  JsonWriter& value(std::uint64_t number);
  JsonWriter& value(std::int64_t number);
  JsonWriter& value(int number) { return value(std::int64_t{number}); }
  JsonWriter& null_value();

  /// The finished document; all containers must be closed.
  const std::string& str() const;

  /// Escape `raw` for embedding between JSON quotes (no surrounding quotes).
  static std::string escape(std::string_view raw);

 private:
  void before_value();
  void raw(std::string_view text) { out_.append(text); }

  struct Frame {
    char kind;                 // '{' or '['
    bool first = true;         // no comma before the first member
    bool key_pending = false;  // object frame: key() seen, value expected
  };

  std::string out_;
  std::vector<Frame> stack_;
  bool root_written_ = false;
};

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<JsonValue> items;                               // arrays
  std::vector<std::pair<std::string, JsonValue>> members;     // objects

  bool is_null() const { return kind == Kind::Null; }
  bool is_bool() const { return kind == Kind::Bool; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// First member with this name, or nullptr (objects only).
  const JsonValue* find(std::string_view name) const;

  /// Deepest nesting of arrays and objects parse() accepts.
  static constexpr std::size_t kMaxDepth = 256;

  /// Parse a complete document; throws std::runtime_error with the byte
  /// offset on malformed input (including trailing garbage and nesting
  /// deeper than kMaxDepth).
  static JsonValue parse(std::string_view text);
};

}  // namespace pitfalls::obs
