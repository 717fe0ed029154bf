#include "service/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace asicpp::service {

Json Json::boolean(bool b) {
  Json j;
  j.kind_ = Kind::kBool;
  j.bool_ = b;
  return j;
}

Json Json::number(double d) {
  Json j;
  j.kind_ = Kind::kNumber;
  j.num_ = d;
  return j;
}

Json Json::string(std::string s) {
  Json j;
  j.kind_ = Kind::kString;
  j.str_ = std::move(s);
  return j;
}

Json Json::array() {
  Json j;
  j.kind_ = Kind::kArray;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::kObject;
  return j;
}

const Json* Json::get(const std::string& key) const {
  for (const auto& [k, v] : obj_)
    if (k == key) return &v;
  return nullptr;
}

std::string Json::get_string(const std::string& key,
                             const std::string& dflt) const {
  const Json* v = get(key);
  return v != nullptr && v->is_string() ? v->str_ : dflt;
}

double Json::get_number(const std::string& key, double dflt) const {
  const Json* v = get(key);
  return v != nullptr && v->is_number() ? v->num_ : dflt;
}

bool Json::get_bool(const std::string& key, bool dflt) const {
  const Json* v = get(key);
  return v != nullptr && v->is_bool() ? v->bool_ : dflt;
}

Json& Json::set(std::string key, Json v) {
  for (auto& [k, old] : obj_) {
    if (k == key) {
      old = std::move(v);
      return old;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
  return obj_.back().second;
}

namespace {

void escape_to(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

}  // namespace

std::string Json::dump() const {
  std::string out;
  switch (kind_) {
    case Kind::kNull:
      out = "null";
      break;
    case Kind::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Kind::kNumber: {
      if (std::isfinite(num_)) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", num_);
        out = buf;
      } else {
        out = "null";  // JSON has no NaN/Inf
      }
      break;
    }
    case Kind::kString:
      escape_to(str_, &out);
      break;
    case Kind::kArray: {
      out = "[";
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i != 0) out += ",";
        out += arr_[i].dump();
      }
      out += "]";
      break;
    }
    case Kind::kObject: {
      out = "{";
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i != 0) out += ",";
        escape_to(obj_[i].first, &out);
        out += ":";
        out += obj_[i].second.dump();
      }
      out += "}";
      break;
    }
  }
  return out;
}

namespace {

class Parser {
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

  bool parse_number(Json* out) {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    const double d = std::strtod(start, &end);
    if (end == start) return fail("invalid number");
    pos_ += static_cast<std::size_t>(end - start);
    *out = Json::number(d);
    return true;
  }

  bool parse_string(std::string* out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
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
        continue;
      }
      out->push_back(c);
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool parse_array(Json* out, int depth) {
    *out = Json::array();
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Json v;
      skip_ws();
      if (!parse_value(&v, depth)) return false;
      out->push(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parse_object(Json* out, int depth) {
    *out = Json::object();
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
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
      out->set(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
  std::string* err_;
};

}  // namespace

bool Json::parse(const std::string& text, Json* out, std::string* err) {
  Parser p(text, err);
  return p.parse_document(out);
}

}  // namespace asicpp::service
