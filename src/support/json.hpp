// Minimal JSON document for the benchmark runner and the fuzz repro files.
//
// Started as writer-only — the bench harness emits BENCH_<name>.json files
// and never reads them back. The differential fuzzer added parse(): repro
// files must round-trip through the same value type so a replayed case is
// the exact case that failed. Design constraints, in order:
//   * deterministic bytes: objects keep insertion order, numbers render via
//     a fixed rule, so a --jobs 8 run and a --jobs 1 run of the same sweep
//     produce identical files (the determinism test diffs the bytes);
//   * lossless doubles: every finite double round-trips (printed as the
//     first of %.15g, %.16g and %.17g that parses back exactly); NaN/Inf
//     have no JSON spelling and render as null;
//   * no dependencies: a tagged union over the six JSON kinds, ~200 lines.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace sdem {

class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : kind_(Kind::kNull) {}
  Json(bool b) : kind_(Kind::kBool), bool_(b) {}
  Json(double v) : kind_(Kind::kNumber), num_(v) {}
  Json(int v) : kind_(Kind::kNumber), num_(v) {}
  Json(std::int64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : kind_(Kind::kNumber), num_(static_cast<double>(v)) {}
  Json(const char* s) : kind_(Kind::kString), str_(s) {}
  Json(std::string s) : kind_(Kind::kString), str_(std::move(s)) {}

  static Json array() {
    Json j;
    j.kind_ = Kind::kArray;
    return j;
  }
  static Json object() {
    Json j;
    j.kind_ = Kind::kObject;
    return j;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Typed reads. Throw std::logic_error on kind mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array element access; throws std::out_of_range past the end.
  const Json& at(std::size_t i) const;

  /// Object member lookup: nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  bool has(const std::string& key) const { return find(key) != nullptr; }

  /// Object member access; throws std::out_of_range when absent.
  const Json& at(const std::string& key) const;

  /// Member with a numeric/default fallback for optional repro fields.
  double number_or(const std::string& key, double fallback) const;

  /// Array append. The value becomes an array if currently null.
  Json& push_back(Json v);

  /// Object insert/overwrite; keys keep first-insertion order. The value
  /// becomes an object if currently null.
  Json& set(const std::string& key, Json v);

  std::size_t size() const;

  /// Serialize. indent == 0 → single line; indent > 0 → pretty-printed
  /// with that many spaces per level and a trailing newline at top level.
  std::string dump(int indent = 0) const;

  /// Removes every object member named `key`, at any depth, in place (the
  /// runner's --stable drops timing fields from its own result this way).
  void erase_key(const std::string& key);

  /// Copy with every object member named `key` removed, at any depth.
  Json without_key(const std::string& key) const;

  /// The exact number rendering rule, exposed for tests and for
  /// CSV/markdown writers that want matching bytes: integers below 1e15
  /// print bare, other finite values print as the first of %.15g, %.16g
  /// and %.17g that parses back to the same double, non-finite → "null".
  static std::string number_to_string(double v);

  /// parse() rejects documents whose containers nest this deep (the
  /// deepest document the repository writes nests 8).
  static constexpr int kMaxDepth = 64;

  /// Parse a complete JSON document (the subset dump() emits: objects,
  /// arrays, strings with the standard escapes, numbers, booleans, null;
  /// \uXXXX escapes are accepted for code points below 0x80). Throws
  /// std::invalid_argument with a byte offset on malformed input or on
  /// nesting kMaxDepth deep. Numbers read exactly as strtod reads them
  /// (from_chars for strict JSON number text, strtod for every other
  /// spelling it accepts), so every value printed by number_to_string
  /// round-trips bit-exactly.
  static Json parse(const std::string& text);

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  std::vector<Json> arr_;
  std::vector<std::pair<std::string, Json>> obj_;
};

}  // namespace sdem
