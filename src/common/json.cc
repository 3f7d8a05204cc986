#include "common/json.h"

#include <cctype>
#include <charconv>
#include <cmath>

#include "common/csv.h"  // FormatDouble.

namespace optshare {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const Object& obj = AsObject();
  auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

void JsonValue::Set(const std::string& key, JsonValue v) {
  AsObject()[key] = std::move(v);
}

void JsonValue::Append(JsonValue v) { AsArray().push_back(std::move(v)); }

void JsonValue::Reserve(size_t n) { AsArray().reserve(n); }

namespace {

/// Bytes `c` occupies once escaped (1 for the common passthrough case).
size_t EscapedLength(unsigned char c) {
  switch (c) {
    case '"':
    case '\\':
    case '\n':
    case '\r':
    case '\t':
    case '\b':
    case '\f':
      return 2;
    default:
      return c < 0x20 ? 6 : 1;  // \u00XX.
  }
}

const char kHexDigits[] = "0123456789abcdef";

}  // namespace

void JsonEscapeTo(std::string_view s, std::string* out) {
  size_t escaped = 0;
  for (unsigned char c : s) escaped += EscapedLength(c);
  out->reserve(out->size() + escaped + 2);
  out->push_back('"');
  if (escaped == s.size()) {
    // Nothing needs escaping: one bulk append.
    out->append(s.data(), s.size());
    out->push_back('"');
    return;
  }
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"", 2);
        break;
      case '\\':
        out->append("\\\\", 2);
        break;
      case '\n':
        out->append("\\n", 2);
        break;
      case '\r':
        out->append("\\r", 2);
        break;
      case '\t':
        out->append("\\t", 2);
        break;
      case '\b':
        out->append("\\b", 2);
        break;
      case '\f':
        out->append("\\f", 2);
        break;
      default:
        if (c < 0x20) {
          const char buf[6] = {'\\', 'u', '0', '0', kHexDigits[c >> 4],
                               kHexDigits[c & 0xF]};
          out->append(buf, sizeof(buf));
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  JsonEscapeTo(s, &out);
  return out;
}

namespace {

void DumpTo(const JsonValue& v, int indent, int depth, std::string* out) {
  const bool pretty = indent >= 0;
  const std::string pad = pretty ? std::string(
      static_cast<size_t>(indent) * static_cast<size_t>(depth + 1), ' ')
                                 : "";
  const std::string close_pad =
      pretty ? std::string(
          static_cast<size_t>(indent) * static_cast<size_t>(depth), ' ')
             : "";
  const char* nl = pretty ? "\n" : "";

  switch (v.type()) {
    case JsonValue::Type::kNull:
      *out += "null";
      return;
    case JsonValue::Type::kBool:
      *out += v.AsBool() ? "true" : "false";
      return;
    case JsonValue::Type::kNumber: {
      const double d = v.AsNumber();
      // JSON has no Infinity/NaN; serialize as null per common practice.
      if (std::isnan(d) || std::isinf(d)) {
        *out += "null";
      } else {
        // Same round-trip formatting as FormatDouble, appended in place.
        char buf[32];
        const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), d);
        (void)ec;
        out->append(buf, static_cast<size_t>(ptr - buf));
      }
      return;
    }
    case JsonValue::Type::kString:
      JsonEscapeTo(v.AsString(), out);
      return;
    case JsonValue::Type::kArray: {
      const auto& arr = v.AsArray();
      if (arr.empty()) {
        *out += "[]";
        return;
      }
      *out += '[';
      *out += nl;
      for (size_t i = 0; i < arr.size(); ++i) {
        *out += pad;
        DumpTo(arr[i], indent, depth + 1, out);
        if (i + 1 < arr.size()) *out += ',';
        *out += nl;
      }
      *out += close_pad;
      *out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      const auto& obj = v.AsObject();
      if (obj.empty()) {
        *out += "{}";
        return;
      }
      *out += '{';
      *out += nl;
      size_t i = 0;
      for (const auto& [key, value] : obj) {
        *out += pad;
        *out += JsonEscape(key);
        *out += pretty ? ": " : ":";
        DumpTo(value, indent, depth + 1, out);
        if (++i < obj.size()) *out += ',';
        *out += nl;
      }
      *out += close_pad;
      *out += '}';
      return;
    }
  }
}

}  // namespace

void JsonValue::DumpTo(std::string* out, int indent) const {
  optshare::DumpTo(*this, indent, 0, out);
}

// -- JsonCursor ---------------------------------------------------------------

Status JsonCursor::status() const {
  if (error_ == nullptr) return Status::OK();
  return Status::InvalidArgument("JSON parse error at offset " +
                                 std::to_string(error_pos_) + ": " + error_);
}

bool JsonCursor::Skip(Token token) {
  switch (token) {
    case Token::kNumber: {
      double ignored = 0.0;
      return ReadNumber(&ignored);
    }
    case Token::kString:
      return ReadString(nullptr);
    case Token::kArray:
    case Token::kObject: {
      const char close = token == Token::kArray ? ']' : '}';
      for (bool more = Enter(); more;) {
        if (token == Token::kObject) {
          std::string_view key;
          if (!ReadKey(&key)) return false;
        }
        if (!SkipValue()) return false;
        if (!Next(close, &more)) return false;
      }
      return true;
    }
    default:
      return true;  // Literals were consumed by Peek.
  }
}

bool JsonCursor::SkipValue() {
  Token token;
  if (!Peek(&token)) return false;
  return Skip(token);
}

bool JsonCursor::ReadNumber(double* out) {
  const size_t start = pos_;
  Consume('-');
  while (pos_ < text_.size() &&
         (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
          text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
          text_[pos_] == '+' || text_[pos_] == '-')) {
    ++pos_;
  }
  if (pos_ == start) return Fail("expected a value");
  const auto [ptr, ec] =
      std::from_chars(text_.data() + start, text_.data() + pos_, *out);
  if (ec != std::errc() || ptr != text_.data() + pos_) {
    return Fail("malformed number");
  }
  return true;
}

bool JsonCursor::ReadEscapedString(std::string* out) {
  if (!Consume('"')) return Fail("expected '\"'");
  if (out != nullptr) out->clear();
  while (true) {
    const size_t run = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
      ++pos_;
    }
    if (out != nullptr) out->append(text_.data() + run, pos_ - run);
    if (pos_ >= text_.size()) return Fail("unterminated string");
    if (text_[pos_++] == '"') return true;
    if (pos_ >= text_.size()) return Fail("dangling escape");
    char decoded = 0;
    switch (text_[pos_++]) {
      case '"':
        decoded = '"';
        break;
      case '\\':
        decoded = '\\';
        break;
      case '/':
        decoded = '/';
        break;
      case 'n':
        decoded = '\n';
        break;
      case 't':
        decoded = '\t';
        break;
      case 'r':
        decoded = '\r';
        break;
      case 'b':
        decoded = '\b';
        break;
      case 'f':
        decoded = '\f';
        break;
      case 'u': {
        if (pos_ + 4 > text_.size()) return Fail("short \\u escape");
        unsigned code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = text_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return Fail("invalid \\u escape");
          }
        }
        if (out == nullptr) continue;
        // UTF-8 encode (BMP only; surrogate pairs unsupported).
        if (code < 0x80) {
          out->push_back(static_cast<char>(code));
        } else if (code < 0x800) {
          out->push_back(static_cast<char>(0xC0 | (code >> 6)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        } else {
          out->push_back(static_cast<char>(0xE0 | (code >> 12)));
          out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
          out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
        }
        continue;
      }
      default:
        return Fail("unknown escape");
    }
    if (out != nullptr) out->push_back(decoded);
  }
}

bool JsonCursor::Finish() {
  SkipWhitespace();
  if (pos_ != text_.size()) {
    return Fail("trailing characters after JSON document");
  }
  return true;
}

namespace {

/// Recursive descent over the cursor, materializing the tree.
bool ParseValue(JsonCursor& cursor, JsonValue* out) {
  using Token = JsonCursor::Token;
  Token token;
  if (!cursor.Peek(&token)) return false;
  switch (token) {
    case Token::kNull:
      *out = JsonValue::Null();
      return true;
    case Token::kTrue:
    case Token::kFalse:
      *out = JsonValue::Bool(token == Token::kTrue);
      return true;
    case Token::kNumber: {
      double d = 0.0;
      if (!cursor.ReadNumber(&d)) return false;
      *out = JsonValue::Number(d);
      return true;
    }
    case Token::kString: {
      std::string s;
      if (!cursor.ReadString(&s)) return false;
      *out = JsonValue::Str(std::move(s));
      return true;
    }
    case Token::kArray:
      *out = JsonValue::MakeArray();
      for (bool more = cursor.Enter(); more;) {
        JsonValue element;
        if (!ParseValue(cursor, &element)) return false;
        out->Append(std::move(element));
        if (!cursor.Next(']', &more)) return false;
      }
      return true;
    case Token::kObject:
      *out = JsonValue::MakeObject();
      for (bool more = cursor.Enter(); more;) {
        std::string_view key_view;
        if (!cursor.ReadKey(&key_view)) return false;
        std::string key(key_view);  // The view dies with the next key.
        JsonValue value;
        if (!ParseValue(cursor, &value)) return false;
        out->Set(key, std::move(value));
        if (!cursor.Next('}', &more)) return false;
      }
      return true;
  }
  return true;
}

}  // namespace

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent);
  return out;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  JsonCursor cursor(text);
  cursor.SkipWhitespace();
  JsonValue value;
  if (!ParseValue(cursor, &value) || !cursor.Finish()) return cursor.status();
  return value;
}

Result<double> JsonNumberField(const JsonValue& v, const std::string& key,
                               const char* ctx) {
  const JsonValue* field = v.Find(key);
  if (field == nullptr || !field->is_number()) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be a number");
  }
  return field->AsNumber();
}

Result<int64_t> JsonIntField(const JsonValue& v, const std::string& key,
                             const char* ctx) {
  Result<double> number = JsonNumberField(v, key, ctx);
  if (!number.ok()) return number.status();
  // The range guard keeps the cast defined; 2^63 is exactly representable.
  if (*number != std::floor(*number) ||
      *number < -9223372036854775808.0 || *number >= 9223372036854775808.0) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be an integer");
  }
  return static_cast<int64_t>(*number);
}

Result<std::string> JsonStringField(const JsonValue& v,
                                    const std::string& key, const char* ctx) {
  const JsonValue* field = v.Find(key);
  if (field == nullptr || !field->is_string()) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be a string");
  }
  return field->AsString();
}

Result<bool> JsonBoolField(const JsonValue& v, const std::string& key,
                           const char* ctx) {
  const JsonValue* field = v.Find(key);
  if (field == nullptr || !field->is_bool()) {
    return Status::InvalidArgument(std::string(ctx) + ": field \"" + key +
                                   "\" must be a boolean");
  }
  return field->AsBool();
}

}  // namespace optshare
