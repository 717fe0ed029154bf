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
#include <variant>
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

  Kind kind() const { return static_cast<Kind>(v_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_object() const { return kind() == Kind::kObject; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_number() const { return kind() == Kind::kNumber; }
  bool is_bool() const { return kind() == Kind::kBool; }

  // --- scalars ---
  bool as_bool(bool dflt = false) const {
    const bool* b = std::get_if<bool>(&v_);
    return b != nullptr ? *b : dflt;
  }
  double as_number(double dflt = 0.0) const {
    const double* d = std::get_if<double>(&v_);
    return d != nullptr ? *d : dflt;
  }
  /// The string; empty when this is not a string.
  const std::string& as_string() const;

  // --- arrays ---
  /// The elements; empty when this is not an array.
  const std::vector<Json>& items() const;
  /// Append an element (a value of another kind becomes an empty array
  /// first).
  Json& push(Json v);

  // --- objects ---
  /// Member lookup; nullptr when absent (or not an object).
  const Json* get(const std::string& key) const;
  /// Convenience accessors with defaults for absent/mistyped members.
  std::string get_string(const std::string& key,
                         const std::string& dflt = "") const;
  double get_number(const std::string& key, double dflt = 0.0) const;
  bool get_bool(const std::string& key, bool dflt = false) const;
  /// Set a member: a key already present keeps its position and takes the
  /// new value (a value of another kind becomes an empty object first).
  Json& set(std::string key, Json v);

  /// Compact single-line serialization, written in one pass into one
  /// buffer. Numbers go through std::to_chars(general, precision 17), which
  /// writes the same bytes as printf's %.17g, so probe values round-trip
  /// bit-exactly; NaN and infinities, which JSON cannot spell, are null.
  std::string dump() const;

  /// Deepest array/object nesting parse() accepts (the protocol nests 3).
  static constexpr int kMaxDepth = 64;
  /// Parse a complete JSON document. Returns false with a one-line `err`
  /// (position + reason) on malformed or deeper than kMaxDepth input.
  static bool parse(const std::string& text, Json* out, std::string* err);

 private:
  using Members = std::vector<std::pair<std::string, Json>>;
  class Parser;
  /// Service::op_trace builds each trace row array at its final size.
  friend class Service;

  explicit Json(std::vector<Json> items) : v_(std::move(items)) {}
  void write(std::string& out) const;

  // The alternatives follow Kind's order, so kind() is the index.
  std::variant<std::monostate, bool, double, std::string, std::vector<Json>,
               Members>
      v_;
};

}  // namespace asicpp::service
