// Minimal JSON document model, parser and serializer — enough for the game
// file format (core/serialization.h) and the CLI, with RFC 8259 escaping
// and round-trip number formatting. No external dependencies.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/status.h"

namespace optshare {

/// A JSON value: null, bool, number (double), string, array or object.
/// Objects preserve no insertion order (keys are sorted), which keeps
/// serialization deterministic.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b) { return JsonValue(b); }
  static JsonValue Number(double d) { return JsonValue(d); }
  static JsonValue Str(std::string s) { return JsonValue(std::move(s)); }
  static JsonValue MakeArray() { return JsonValue(Array{}); }
  static JsonValue MakeObject() { return JsonValue(Object{}); }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; precondition: matching type.
  bool AsBool() const { return std::get<bool>(value_); }
  double AsNumber() const { return std::get<double>(value_); }
  const std::string& AsString() const { return std::get<std::string>(value_); }
  const Array& AsArray() const { return std::get<Array>(value_); }
  Array& AsArray() { return std::get<Array>(value_); }
  const Object& AsObject() const { return std::get<Object>(value_); }
  Object& AsObject() { return std::get<Object>(value_); }

  /// Object field lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Object field write (precondition: is_object()).
  void Set(const std::string& key, JsonValue v);
  /// Array append (precondition: is_array()).
  void Append(JsonValue v);
  /// Array capacity hint (precondition: is_array()) — the serializers call
  /// it where the element count is known up front, so the hot-path arrays
  /// (ledger vectors, tenant id lists) grow exactly once.
  void Reserve(size_t n);

  /// Serializes; `indent` < 0 emits compact JSON, otherwise pretty-prints
  /// with that many spaces per level.
  std::string Dump(int indent = -1) const;
  /// Appends the serialization to *out instead of allocating a fresh
  /// string — the wire hot path reuses one scratch buffer across requests.
  void DumpTo(std::string* out, int indent = -1) const;

  /// Parses a complete JSON document (rejects trailing garbage).
  static Result<JsonValue> Parse(std::string_view text);

  bool operator==(const JsonValue& other) const {
    return value_ == other.value_;
  }

 private:
  explicit JsonValue(std::nullptr_t) : value_(nullptr) {}
  explicit JsonValue(bool b) : value_(b) {}
  explicit JsonValue(double d) : value_(d) {}
  explicit JsonValue(std::string s) : value_(std::move(s)) {}
  explicit JsonValue(Array a) : value_(std::move(a)) {}
  explicit JsonValue(Object o) : value_(std::move(o)) {}

  std::variant<std::nullptr_t, bool, double, std::string, Array, Object>
      value_;
};

/// The lexer behind JsonValue::Parse, exposed so single-pass decoders (the
/// wire request codec, service/protocol.h) read JSON with the exact same
/// rules: whitespace set, string decoding, number charset, the 128-level
/// nesting limit and the "JSON parse error at offset N: ..." messages.
///
/// Walking a document: SkipWhitespace() once, then Peek() each value and
/// either read it (ReadNumber / ReadString / Enter + ReadKey / Next) or
/// Skip() it; Finish() rejects trailing characters. Every method returns
/// false on the first lexical error, which status() then describes; the
/// cursor is unusable afterwards. (bool, not Status, keeps the per-value
/// cost of the serving hot path to a branch.)
class JsonCursor {
 public:
  enum class Token { kNull, kTrue, kFalse, kNumber, kString, kArray, kObject };

  explicit JsonCursor(std::string_view text) : text_(text) {}

  std::string_view text() const { return text_; }
  size_t pos() const { return pos_; }
  /// OK, or the first lexical error as "JSON parse error at offset N: ...".
  Status status() const;

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  /// Classifies the next value after checking the depth limit and end of
  /// input. Literals (null/true/false) are consumed whole; any other value
  /// is left for the matching Read/Enter/Skip.
  bool Peek(Token* token) {
    if (depth_ > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case 'n':
        return Literal("null", Token::kNull, token);
      case 't':
        return Literal("true", Token::kTrue, token);
      case 'f':
        return Literal("false", Token::kFalse, token);
      case '"':
        *token = Token::kString;
        return true;
      case '[':
        *token = Token::kArray;
        return true;
      case '{':
        *token = Token::kObject;
        return true;
      default:
        *token = Token::kNumber;
        return true;
    }
  }
  /// Lexes past the rest of a peeked value without materializing it.
  bool Skip(Token token);
  bool SkipValue();
  bool ReadNumber(double* out);
  /// Decodes a string into *out (replacing it); nullptr only validates.
  bool ReadString(std::string* out) {
    const size_t end = RunEnd(pos_ + 1);
    if (pos_ < text_.size() && text_[pos_] == '"' && end < text_.size() &&
        text_[end] == '"') {
      if (out != nullptr) out->assign(text_.data() + pos_ + 1, end - pos_ - 1);
      pos_ = end + 1;
      return true;
    }
    return ReadEscapedString(out);
  }
  /// Consumes the '[' or '{' of a peeked container and the whitespace after
  /// it; false (container consumed whole) when it is empty.
  bool Enter() {
    const char close = text_[pos_] == '[' ? ']' : '}';
    ++depth_;
    ++pos_;
    SkipWhitespace();
    if (Consume(close)) {
      --depth_;
      return false;
    }
    return true;
  }
  /// An object key and its ':' separator. The view stays valid until the
  /// next ReadKey (escaped keys are decoded into cursor-owned scratch).
  bool ReadKey(std::string_view* key) {
    const size_t end = RunEnd(pos_ + 1);
    if (pos_ < text_.size() && text_[pos_] == '"' && end < text_.size() &&
        text_[end] == '"') {
      *key = std::string_view(text_.data() + pos_ + 1, end - pos_ - 1);
      pos_ = end + 1;
    } else {
      if (!ReadEscapedString(&key_scratch_)) return false;
      *key = key_scratch_;
    }
    SkipWhitespace();
    if (!Consume(':')) return Fail("expected ':'");
    SkipWhitespace();
    return true;
  }
  /// After a container element: ',' sets *more, `close` (']' or '}') ends
  /// the container.
  bool Next(char close, bool* more) {
    SkipWhitespace();
    *more = false;
    if (Consume(close)) {
      --depth_;
      return true;
    }
    if (!Consume(',')) {
      return Fail(close == ']' ? "expected ',' or ']'" : "expected ',' or '}'");
    }
    SkipWhitespace();
    *more = true;
    return true;
  }
  /// Trailing whitespace, then end of input.
  bool Finish();

 private:
  static constexpr int kMaxDepth = 128;

  /// The first index at or after `from` holding '"' or '\\' (or size()).
  size_t RunEnd(size_t from) const {
    while (from < text_.size() && text_[from] != '"' && text_[from] != '\\') {
      ++from;
    }
    return from;
  }
  bool Literal(std::string_view word, Token literal, Token* token) {
    if (text_.compare(pos_, word.size(), word) != 0) {
      return Fail("invalid literal");
    }
    pos_ += word.size();
    *token = literal;
    return true;
  }
  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Fail(const char* message) {
    error_ = message;
    error_pos_ = pos_;
    return false;
  }
  /// The general string decoder (escapes and every lexical error).
  bool ReadEscapedString(std::string* out);

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  const char* error_ = nullptr;  ///< First lexical error, if any.
  size_t error_pos_ = 0;
  std::string key_scratch_;
};

/// Escapes a string per RFC 8259 (quotes included).
std::string JsonEscape(std::string_view s);
/// Append-form JsonEscape: precomputes the escaped length, reserves once,
/// and appends to *out — no per-string temporary, no incremental growth.
void JsonEscapeTo(std::string_view s, std::string* out);

// -- Typed object-field accessors -------------------------------------------
// One implementation for every strict schema in the codebase (wire
// protocol, snapshots): a missing or mistyped field is an InvalidArgument
// of the uniform shape `<ctx>: field "<key>" must be a <type>`.

Result<double> JsonNumberField(const JsonValue& v, const std::string& key,
                               const char* ctx);
/// A number that is integral (and within int64 range).
Result<int64_t> JsonIntField(const JsonValue& v, const std::string& key,
                             const char* ctx);
Result<std::string> JsonStringField(const JsonValue& v,
                                    const std::string& key, const char* ctx);
Result<bool> JsonBoolField(const JsonValue& v, const std::string& key,
                           const char* ctx);

}  // namespace optshare
