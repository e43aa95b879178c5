#include "src/server/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace prefillonly {

namespace {

void SerializeString(const std::string& s, std::string& out) {
  out += '"';
  for (char c : s) {
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
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    auto value = ParseValue();
    if (!value.ok()) {
      return value;
    }
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after JSON value");
    }
    return value;
  }

 private:
  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + message);
  }
  Result<Json> Fail(const std::string& message) const { return Error(message); }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Result<Json> ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return ParseObject();
    }
    if (c == '[') {
      return ParseArray();
    }
    if (c == '"') {
      auto s = ParseString();
      if (!s.ok()) {
        return s.status();
      }
      return Json(s.take());
    }
    if (ConsumeLiteral("true")) {
      return Json(true);
    }
    if (ConsumeLiteral("false")) {
      return Json(false);
    }
    if (ConsumeLiteral("null")) {
      return Json(nullptr);
    }
    return ParseNumber();
  }

  Result<Json> ParseObject() {
    Consume('{');
    // Built in place inside the Result: moving a finished Json into one
    // trips GCC 12's -Wmaybe-uninitialized on the moved-from temporary.
    Result<Json> out = Json(Json::Object());
    Json::Object& object = out.value().MutableObject();
    SkipWhitespace();
    if (Consume('}')) {
      return out;
    }
    while (true) {
      SkipWhitespace();
      auto key = ParseString();
      if (!key.ok()) {
        return key.status();
      }
      SkipWhitespace();
      if (!Consume(':')) {
        return Fail("expected ':' in object");
      }
      auto value = ParseValue();
      if (!value.ok()) {
        return value;
      }
      object.emplace(key.take(), value.take());
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume('}')) {
        return out;
      }
      return Fail("expected ',' or '}' in object");
    }
  }

  Result<Json> ParseArray() {
    Consume('[');
    Json::Array array;
    SkipWhitespace();
    if (Consume(']')) {
      return Json(std::move(array));
    }
    while (true) {
      auto value = ParseValue();
      if (!value.ok()) {
        return value;
      }
      array.push_back(value.take());
      SkipWhitespace();
      if (Consume(',')) {
        continue;
      }
      if (Consume(']')) {
        return Json(std::move(array));
      }
      return Fail("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    if (!Consume('"')) {
      return Status::InvalidArgument("expected string");
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        break;
      }
      const char esc = text_[pos_++];
      switch (esc) {
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
          if (pos_ + 4 > text_.size()) {
            return Error("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("bad \\u escape");
            }
          }
          // Basic-multilingual-plane only; encode as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
    return Status::InvalidArgument("unterminated string");
  }

  Result<Json> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Fail("expected a value");
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text_.data() + start, text_.data() + pos_, value);
    if (ec != std::errc() || end != text_.data() + pos_) {
      return Fail("malformed number");
    }
    return Json(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string_view Json::TypeName() const {
  if (is_null()) return "null";
  if (is_bool()) return "boolean";
  if (is_number()) return "number";
  if (is_string()) return "string";
  if (is_array()) return "array";
  return "object";
}

const Json* Json::Find(const std::string& key) const {
  if (!is_object()) {
    return nullptr;
  }
  const auto& object = AsObject();
  auto it = object.find(key);
  return it == object.end() ? nullptr : &it->second;
}

std::string Json::Serialize() const {
  std::string out;
  if (is_null()) {
    out = "null";
  } else if (is_bool()) {
    out = AsBool() ? "true" : "false";
  } else if (is_number()) {
    const double d = AsDouble();
    if (d == std::floor(d) && std::abs(d) < 1e15) {
      out = std::to_string(static_cast<int64_t>(d));
    } else {
      // Shortest representation that parses back to the exact same double:
      // scores crossing the HTTP boundary must stay bitwise comparable to
      // their in-process counterparts (the remote/in-process parity
      // contract, ISSUE 10). %.10g stays the common case so existing output
      // is unchanged wherever 10 significant digits already round-trip.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.10g", d);
      if (std::strtod(buf, nullptr) != d) {
        std::snprintf(buf, sizeof(buf), "%.17g", d);
      }
      out = buf;
    }
  } else if (is_string()) {
    SerializeString(AsString(), out);
  } else if (is_array()) {
    out += '[';
    const auto& array = AsArray();
    for (size_t i = 0; i < array.size(); ++i) {
      if (i > 0) {
        out += ",";
      }
      out += array[i].Serialize();
    }
    out += "]";
  } else {
    out += '{';
    bool first = true;
    for (const auto& [key, value] : AsObject()) {
      if (!first) {
        out += ",";
      }
      first = false;
      SerializeString(key, out);
      out += ":";
      out += value.Serialize();
    }
    out += "}";
  }
  return out;
}

Result<Json> Json::Parse(std::string_view text) { return Parser(text).Parse(); }

}  // namespace prefillonly
