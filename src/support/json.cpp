#include "support/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace sdem {

bool Json::as_bool() const {
  if (kind_ != Kind::kBool) throw std::logic_error("Json::as_bool on non-bool");
  return bool_;
}

double Json::as_number() const {
  if (kind_ != Kind::kNumber)
    throw std::logic_error("Json::as_number on non-number");
  return num_;
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::kString)
    throw std::logic_error("Json::as_string on non-string");
  return str_;
}

const Json& Json::at(std::size_t i) const {
  if (kind_ != Kind::kArray) throw std::logic_error("Json::at on non-array");
  if (i >= arr_.size()) throw std::out_of_range("Json array index");
  return arr_[i];
}

const Json* Json::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& kv : obj_) {
    if (kv.first == key) return &kv.second;
  }
  return nullptr;
}

const Json& Json::at(const std::string& key) const {
  const Json* v = find(key);
  if (!v) throw std::out_of_range("Json missing key: " + key);
  return *v;
}

double Json::number_or(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return v && v->is_number() ? v->as_number() : fallback;
}

Json& Json::push_back(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  if (kind_ != Kind::kArray)
    throw std::logic_error("Json::push_back on non-array");
  arr_.push_back(std::move(v));
  return *this;
}

Json& Json::set(const std::string& key, Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  if (kind_ != Kind::kObject) throw std::logic_error("Json::set on non-object");
  for (auto& kv : obj_) {
    if (kv.first == key) {
      kv.second = std::move(v);
      return *this;
    }
  }
  // A Json value is wide (~100 bytes); growing 1→2→4→8 memmoves every
  // earlier member three times for a typical envelope. One up-front
  // reservation covers most objects this codebase builds.
  if (obj_.empty()) obj_.reserve(8);
  obj_.emplace_back(key, std::move(v));
  return *this;
}

std::size_t Json::size() const {
  switch (kind_) {
    case Kind::kArray:
      return arr_.size();
    case Kind::kObject:
      return obj_.size();
    default:
      return 0;
  }
}

namespace {

/// Room for the longest rendering: sign, 17 digits, '.', "e-324".
constexpr std::size_t kNumberChars = 32;

/// Writes `v` by the number rule into buf[0, kNumberChars) and returns the
/// end of the text.
char* format_number(char* buf, double v) {
  char* const end = buf + kNumberChars;
  if (!std::isfinite(v)) {
    static constexpr char kNull[] = "null";
    return std::copy(kNull, kNull + 4, buf);
  }
  // Integers (within double's exact range) print bare: 8, not 8.0 — the
  // digits "%.0f" would print, and signbit keeps "-0" for negative zero.
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    char* p = buf;
    if (std::signbit(v)) *p++ = '-';
    return std::to_chars(p, end, static_cast<std::uint64_t>(std::fabs(v)))
        .ptr;
  }
  // The first of %.15g, %.16g and %.17g that parses back to v. to_chars
  // with a precision prints exactly what printf("%.*g") prints and
  // from_chars reads exactly what strtod reads. No P-digit text can round-
  // trip below the shortest round-trip digit count D, and from P = D on the
  // nearest P-digit decimal lies no farther from v than the shortest text
  // does, so where v's rounding interval is symmetric, %.Pg at
  // P = max(15, D) round-trips and needs no parse-back. Only an exact power
  // of two, whose interval is half as wide below v, is checked, and only at
  // P = 16: at 15 the grid is coarser than either half, and %.17g always
  // round-trips.
  const char* const e =
      std::to_chars(buf, end, v, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* c = buf; c != e && *c != 'e'; ++c)
    digits += *c >= '0' && *c <= '9';
  const int prec = std::max(15, digits);
  int exp2 = 0;
  const bool check = prec == 16 && std::fabs(std::frexp(v, &exp2)) == 0.5;
  for (int p = prec;; ++p) {
    char* const stop =
        std::to_chars(buf, end, v, std::chars_format::general, p).ptr;
    if (!check || p >= 17) return stop;
    double back = 0.0;
    std::from_chars(buf, stop, back);
    if (back == v) return stop;
  }
}

void append_number(std::string& out, double v) {
  char buf[kNumberChars];
  out.append(buf, format_number(buf, v));
}

void append_quoted(std::string& out, const std::string& s) {
  out += '"';
  // Bulk-copy runs of plain characters; the switch below only sees the
  // rare bytes that actually need escaping.
  std::size_t i = 0;
  while (i < s.size()) {
    std::size_t j = i;
    while (j < s.size()) {
      const unsigned char c = static_cast<unsigned char>(s[j]);
      if (c == '"' || c == '\\' || c < 0x20) break;
      ++j;
    }
    out.append(s, i, j - i);
    if (j == s.size()) break;
    const unsigned char c = static_cast<unsigned char>(s[j]);
    i = j + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
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
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xf];
      }
    }
  }
  out += '"';
}

}  // namespace

std::string Json::number_to_string(double v) {
  std::string out;
  append_number(out, v);
  return out;
}

void Json::erase_key(const std::string& key) {
  if (kind_ == Kind::kArray) {
    for (Json& v : arr_) v.erase_key(key);
  } else if (kind_ == Kind::kObject) {
    std::erase_if(obj_, [&](const auto& kv) { return kv.first == key; });
    for (auto& kv : obj_) kv.second.erase_key(key);
  }
}

Json Json::without_key(const std::string& key) const {
  Json out = *this;
  out.erase_key(key);
  return out;
}

std::string Json::dump(int indent) const {
  std::string out;
  // One allocation covers a typical service envelope; growing from the
  // short-string buffer would reallocate four times on the way there.
  if (kind_ == Kind::kObject || kind_ == Kind::kArray) out.reserve(256);
  write(out, indent, 0);
  if (indent > 0) out += '\n';
  return out;
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline_pad = [&](int d) {
    if (indent > 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      append_number(out, num_);
      break;
    case Kind::kString:
      append_quoted(out, str_);
      break;
    case Kind::kArray: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += indent > 0 ? "," : ", ";
        newline_pad(depth + 1);
        arr_[i].write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Kind::kObject: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += indent > 0 ? "," : ", ";
        newline_pad(depth + 1);
        append_quoted(out, obj_[i].first);
        out += ": ";
        obj_[i].second.write(out, indent, depth + 1);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

namespace {

/// Recursive-descent parser over the dump() grammar.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json run() {
    skip_ws();
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON parse error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_word(const char* w) {
    std::size_t n = 0;
    while (w[n]) ++n;
    if (text_.compare(pos_, n, w) != 0) return false;
    pos_ += n;
    return true;
  }

  Json value() {
    switch (peek()) {
      case '{':
      case '[': {
        // The descent recurses once per level; a bound keeps hostile input
        // (a line of '[') from overflowing the stack.
        if (++depth_ == Json::kMaxDepth)
          fail("containers nested " + std::to_string(Json::kMaxDepth) +
               " deep");
        Json v = peek() == '{' ? object() : array();
        --depth_;
        return v;
      }
      case '"':
        return Json(string());
      case 't':
        if (consume_word("true")) return Json(true);
        fail("bad literal");
      case 'f':
        if (consume_word("false")) return Json(false);
        fail("bad literal");
      case 'n':
        if (consume_word("null")) return Json();
        fail("bad literal");
      default:
        return number();
    }
  }

  Json object() {
    expect('{');
    Json out = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = string();
      skip_ws();
      expect(':');
      skip_ws();
      out.set(key, value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return out;
    }
  }

  Json array() {
    expect('[');
    Json out = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    while (true) {
      skip_ws();
      out.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return out;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      // Bulk-copy up to the next quote or backslash; most strings have no
      // escapes and resolve in a single append.
      std::size_t run = pos_;
      while (run < text_.size() && text_[run] != '"' && text_[run] != '\\') {
        ++run;
      }
      if (run > pos_) {
        out.append(text_, pos_, run - pos_);
        pos_ = run;
      }
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
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
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
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
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code |= static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad \\u escape");
          }
          // dump() only emits \u00XX for control bytes; reject the rest
          // rather than half-support UTF-16 surrogates.
          if (code >= 0x80) fail("\\u escape above 0x7f unsupported");
          out += static_cast<char>(code);
          break;
        }
        default:
          fail("bad escape character");
      }
    }
  }

  Json number() {
    const char* const start = text_.c_str() + pos_;
    const auto digit = [](const char* q) { return *q >= '0' && *q <= '9'; };
    // The longest strict JSON number here (the text is NUL-terminated, so
    // the scan needs no bounds checks):
    // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    const char* p = start;
    if (*p == '-') ++p;
    const char* const int_digits = p;
    while (digit(p)) ++p;
    bool strict =
        p != int_digits && !(*int_digits == '0' && p - int_digits > 1);
    if (strict && *p == '.') {
      const char* const frac = ++p;
      while (digit(p)) ++p;
      strict = p != frac;
    }
    if (strict && (*p == 'e' || *p == 'E')) {
      // "1e" and "1e+" end before the 'e', where strtod stops too.
      const char* q = p + 1;
      if (*q == '+' || *q == '-') ++q;
      const char* const exp_digits = q;
      while (digit(q)) ++q;
      if (q != exp_digits) p = q;
    }
    // strtod reads exactly this text too, unless a hex 'x' follows ("0x10"),
    // so it parses with from_chars, which rounds exactly as strtod does.
    // Every other spelling strtod accepts ("+1", "0x10", ".5", "1.", "inf",
    // leading zeros) and every out-of-range value keeps the strtod parse,
    // so the accepted grammar is unchanged.
    if (strict && *p != 'x' && *p != 'X') {
      double v = 0.0;
      if (std::from_chars(start, p, v).ec == std::errc()) {
        pos_ += static_cast<std::size_t>(p - start);
        return Json(v);
      }
    }
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) fail("expected value");
    pos_ += static_cast<std::size_t>(end - start);
    return Json(v);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  // containers open around the current position
};

}  // namespace

Json Json::parse(const std::string& text) { return Parser(text).run(); }

}  // namespace sdem
