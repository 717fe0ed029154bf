// Minimal JSON value for the simulation service's line protocol.
//
// The daemon speaks newline-delimited JSON over a Unix socket, so the
// service needs exactly: parse one request object, build one response
// object, dump it on one line. This is that — objects (insertion-ordered),
// arrays, strings (with the standard escapes incl. \uXXXX), doubles,
// bools, null. No external dependency, no DOM niceties.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace asicpp::service {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  ///< null
  static Json boolean(bool b);
  static Json number(double d);
  static Json string(std::string s);
  static Json array();
  static Json object();

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_bool() const { return kind_ == Kind::kBool; }

  // --- scalars ---
  bool as_bool(bool dflt = false) const {
    return kind_ == Kind::kBool ? bool_ : dflt;
  }
  double as_number(double dflt = 0.0) const {
    return kind_ == Kind::kNumber ? num_ : dflt;
  }
  const std::string& as_string() const { return str_; }

  // --- arrays ---
  const std::vector<Json>& items() const { return arr_; }
  Json& push(Json v) {
    arr_.push_back(std::move(v));
    return arr_.back();
  }

  // --- objects ---
  /// Member lookup; nullptr when absent (or not an object).
  const Json* get(const std::string& key) const;
  /// Convenience accessors with defaults for absent/mistyped members.
  std::string get_string(const std::string& key,
                         const std::string& dflt = "") const;
  double get_number(const std::string& key, double dflt = 0.0) const;
  bool get_bool(const std::string& key, bool dflt = false) const;
  Json& set(std::string key, Json v);

  /// Compact single-line serialization (doubles via %.17g, so probe values
  /// round-trip bit-exactly).
  std::string dump() const;

  /// Deepest array/object nesting parse() accepts (the protocol nests 3).
  static constexpr int kMaxDepth = 64;
  /// Parse a complete JSON document. Returns false with a one-line `err`
  /// (position + reason) on malformed or deeper than kMaxDepth input.
  static bool parse(const std::string& text, Json* out, std::string* err);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace asicpp::service
