#include "service/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string_view>

namespace asicpp::service {

// A trace reply holds one Json per probe value.
static_assert(sizeof(Json) <= 40, "keep the JSON value small");

Json Json::boolean(bool b) {
  Json j;
  j.v_.emplace<bool>(b);
  return j;
}

Json Json::number(double d) {
  Json j;
  j.v_.emplace<double>(d);
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.v_.emplace<std::string>(std::move(s));
  return j;
}

Json Json::array() {
  Json j;
  j.v_.emplace<std::vector<Json>>();
  return j;
}

Json Json::object() {
  Json j;
  j.v_.emplace<Members>();
  return j;
}

const std::string& Json::as_string() const {
  static const std::string kEmpty;
  const std::string* s = std::get_if<std::string>(&v_);
  return s != nullptr ? *s : kEmpty;
}

const std::vector<Json>& Json::items() const {
  static const std::vector<Json> kEmpty;
  const std::vector<Json>* a = std::get_if<std::vector<Json>>(&v_);
  return a != nullptr ? *a : kEmpty;
}

Json& Json::push(Json v) {
  if (!is_array()) v_.emplace<std::vector<Json>>();
  auto& items = std::get<std::vector<Json>>(v_);
  items.push_back(std::move(v));
  return items.back();
}

const Json* Json::get(const std::string& key) const {
  if (const Members* obj = std::get_if<Members>(&v_))
    for (const auto& [k, v] : *obj)
      if (k == key) return &v;
  return nullptr;
}

std::string Json::get_string(const std::string& key,
                             const std::string& dflt) const {
  const Json* v = get(key);
  return v != nullptr && v->is_string() ? v->as_string() : dflt;
}

double Json::get_number(const std::string& key, double dflt) const {
  const Json* v = get(key);
  return v != nullptr ? v->as_number(dflt) : dflt;
}

bool Json::get_bool(const std::string& key, bool dflt) const {
  const Json* v = get(key);
  return v != nullptr ? v->as_bool(dflt) : dflt;
}

Json& Json::set(std::string key, Json v) {
  if (!is_object()) v_.emplace<Members>();
  Members& obj = std::get<Members>(v_);
  for (auto& [k, old] : obj) {
    if (k == key) {
      old = std::move(v);
      return old;
    }
  }
  obj.emplace_back(std::move(key), std::move(v));
  return obj.back().second;
}

namespace {

void escape_to(const std::string& s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;  // start of the pending run of plain bytes
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default: {
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s, run, s.size() - run);
  out.push_back('"');
}

void write_number(double d, std::string& out) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[32];  // %.17g needs at most 24: "-1.2345678901234567e-308"
  const auto r =
      std::to_chars(buf, buf + sizeof buf, d, std::chars_format::general, 17);
  out.append(buf, r.ptr);
}

}  // namespace

void Json::write(std::string& out) const {
  switch (kind()) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += std::get<bool>(v_) ? "true" : "false";
      break;
    case Kind::kNumber:
      write_number(std::get<double>(v_), out);
      break;
    case Kind::kString:
      escape_to(std::get<std::string>(v_), out);
      break;
    case Kind::kArray: {
      const auto& items = std::get<std::vector<Json>>(v_);
      out.push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i != 0) out.push_back(',');
        items[i].write(out);
      }
      out.push_back(']');
      break;
    }
    case Kind::kObject: {
      const Members& obj = std::get<Members>(v_);
      out.push_back('{');
      for (std::size_t i = 0; i < obj.size(); ++i) {
        if (i != 0) out.push_back(',');
        escape_to(obj[i].first, out);
        out.push_back(':');
        obj[i].second.write(out);
      }
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump() const {
  std::string out;
  write(out);
  return out;
}

// Arrays and objects collect their elements on the parser's stacks and
// move them into a vector of the final size when they close, so no
// container grows by reallocation.
class Json::Parser {
 public:
  Parser(const std::string& text, std::string* err)
      : s_(text), err_(err) {}

  bool parse_document(Json* out) {
    skip_ws();
    if (!parse_value(out, 0)) return false;
    skip_ws();
    if (pos_ != s_.size()) return fail("trailing content");
    return true;
  }

 private:
  bool fail(const std::string& why) {
    if (err_ != nullptr)
      *err_ = "json offset " + std::to_string(pos_) + ": " + why;
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r'))
      ++pos_;
  }

  // `depth` counts the enclosing arrays and objects; bounding it keeps
  // hostile input from exhausting the stack.
  bool parse_value(Json* out, int depth) {
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[pos_];
    if ((c == '{' || c == '[') && depth == Json::kMaxDepth)
      return fail("nesting deeper than " + std::to_string(Json::kMaxDepth));
    if (c == '{') return parse_object(out, depth + 1);
    if (c == '[') return parse_array(out, depth + 1);
    if (c == '"') {
      std::string str;
      if (!parse_string(&str)) return false;
      *out = Json::string(std::move(str));
      return true;
    }
    if (c == 't' || c == 'f') return parse_keyword(out);
    if (c == 'n') return parse_keyword(out);
    return parse_number(out);
  }

  bool parse_keyword(Json* out) {
    static const struct {
      const char* word;
      int len;
    } kw[] = {{"true", 4}, {"false", 5}, {"null", 4}};
    for (const auto& k : kw) {
      if (s_.compare(pos_, static_cast<std::size_t>(k.len), k.word) == 0) {
        pos_ += static_cast<std::size_t>(k.len);
        if (k.word[0] == 't') *out = Json::boolean(true);
        else if (k.word[0] == 'f') *out = Json::boolean(false);
        else *out = Json();
        return true;
      }
    }
    return fail("invalid literal");
  }

  /// True when strtod would read the text at `p` as a hexadecimal
  /// number: whitespace, a sign, then 0x or 0X. JSON has no such spelling.
  static bool hex_spelling(const char* p, const char* end) {
    while (p != end && (*p == ' ' || (*p >= '\t' && *p <= '\r'))) ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    return end - p >= 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X');
  }

  // Numbers read through std::from_chars. It refuses two things strtod
  // reads, a leading '+' (or whitespace) and magnitudes out of range;
  // strtod reads those, so every spelling keeps the value it always had.
  bool parse_number(Json* out) {
    const char* start = s_.data() + pos_;
    const char* end = s_.data() + s_.size();
    if (hex_spelling(start, end)) return fail("invalid number");
    double d = 0.0;
    auto [stop, ec] = std::from_chars(start, end, d);
    if (ec != std::errc()) {
      char* strtod_stop = nullptr;
      d = std::strtod(start, &strtod_stop);
      stop = strtod_stop;
    }
    if (stop == start) return fail("invalid number");
    pos_ += static_cast<std::size_t>(stop - start);
    *out = Json::number(d);
    return true;
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    while (true) {
      // Copy the run up to the next quote or escape in one append.
      const std::size_t stop = s_.find_first_of("\"\\", pos_);
      if (stop == std::string::npos) {
        pos_ = s_.size();
        return fail("unterminated string");
      }
      out->append(s_, pos_, stop - pos_);
      pos_ = stop;
      if (s_[pos_] == '"') {
        ++pos_;
        return true;
      }
      if (pos_ + 1 >= s_.size()) return fail("dangling escape");
      const char e = s_[pos_ + 1];
      pos_ += 2;
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_ + static_cast<std::size_t>(i)];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              cp |= static_cast<unsigned>(h - 'A' + 10);
            else
              return fail("invalid \\u escape");
          }
          pos_ += 4;
          // UTF-8 encode the basic-plane code point (surrogate pairs are
          // not needed by this protocol; lone surrogates encode as-is).
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
          }
          break;
        }
        default:
          return fail("invalid escape");
      }
    }
  }

  bool parse_array(Json* out, int depth) {
    ++pos_;  // '['
    const std::size_t base = items_.size();
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      *out = Json::array();
      return true;
    }
    while (true) {
      Json v;
      skip_ws();
      if (!parse_value(&v, depth)) return false;
      items_.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        const auto first = items_.begin() + static_cast<std::ptrdiff_t>(base);
        *out = Json(std::vector<Json>(std::make_move_iterator(first),
                                      std::make_move_iterator(items_.end())));
        items_.erase(first, items_.end());
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Json* out, int depth) {
    ++pos_;  // '{'
    const std::size_t base = members_.size();
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      *out = Json::object();
      return true;
    }
    while (true) {
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != '"')
        return fail("expected object key");
      std::string key;
      if (!parse_string(&key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected ':'");
      ++pos_;
      skip_ws();
      Json v;
      if (!parse_value(&v, depth)) return false;
      members_.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        *out = take_members(base);
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  /// The object whose members are members_[base, end), popped off the
  /// stack. A repeated key keeps its first position and takes its last
  /// value, as set() does. Repeats are resolved here, once, through an
  /// ordered map: a line of 80,000 keys parses in O(n log n) whatever the
  /// keys, where checking each member against the ones before it was
  /// O(n^2).
  Json take_members(std::size_t base) {
    const auto first = members_.begin() + static_cast<std::ptrdiff_t>(base);
    Members obj;
    obj.reserve(members_.size() - base);
    // Key -> index in obj. The views point into obj, which never
    // reallocates, not into the moved-from members_.
    std::map<std::string_view, std::size_t> index;
    for (auto it = first; it != members_.end(); ++it) {
      if (const auto hit = index.find(it->first); hit != index.end()) {
        obj[hit->second].second = std::move(it->second);
        continue;
      }
      obj.push_back(std::move(*it));
      index.emplace(obj.back().first, obj.size() - 1);
    }
    members_.erase(first, members_.end());
    Json j;
    j.v_.emplace<Members>(std::move(obj));
    return j;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string* err_;
  std::vector<Json> items_;  ///< elements of the open arrays, innermost last
  Members members_;          ///< members of the open objects, innermost last
};

bool Json::parse(const std::string& text, Json* out, std::string* err) {
  Parser p(text, err);
  return p.parse_document(out);
}

}  // namespace asicpp::service
