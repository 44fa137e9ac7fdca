// Minimal, dependency-free JSON reader/writer (RFC 8259 subset).
//
// Shared by the reconciliation service (src/service/) for the OpenRefine
// wire protocol and by the bench harnesses' `--json` output (via
// bench::JsonLog), replacing the ad-hoc hand-rolled string emission that
// mis-escaped control characters. Deliberately small: an ordered DOM
// (json::Value), a recursive-descent parser with a depth cap, and a compact
// writer whose number formatting ("%.17g" for doubles, undecorated
// integers) round-trips every value the system produces.

#ifndef RECON_UTIL_JSON_H_
#define RECON_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace recon::json {

/// An ordered JSON document node. Objects preserve insertion order (the
/// OpenRefine protocol keys responses by caller-chosen query ids, and
/// stable order keeps responses byte-deterministic).
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Member = std::pair<std::string, Value>;

  Value() = default;
  Value(std::nullptr_t) {}  // NOLINT: implicit by design.
  Value(bool b) : kind_(Kind::kBool), bool_(b) {}  // NOLINT
  Value(int i) : kind_(Kind::kInt), int_(i) {}  // NOLINT
  Value(int64_t i) : kind_(Kind::kInt), int_(i) {}  // NOLINT
  Value(uint64_t i)  // NOLINT
      : kind_(Kind::kInt), int_(static_cast<int64_t>(i)) {}
  Value(double d) : kind_(Kind::kDouble), double_(d) {}  // NOLINT
  Value(std::string s) : kind_(Kind::kString), string_(std::move(s)) {}  // NOLINT
  Value(std::string_view s) : kind_(Kind::kString), string_(s) {}  // NOLINT
  Value(const char* s) : kind_(Kind::kString), string_(s) {}  // NOLINT

  /// Explicit factories for the (empty) container kinds.
  static Value Array() {
    Value v;
    v.kind_ = Kind::kArray;
    return v;
  }
  static Value Object() {
    Value v;
    v.kind_ = Kind::kObject;
    return v;
  }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kDouble;
  }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Loose accessors: the default is returned on kind mismatch, so callers
  /// validating foreign input can probe without branching on kind() first.
  bool AsBool(bool def = false) const {
    return kind_ == Kind::kBool ? bool_ : def;
  }
  int64_t AsInt(int64_t def = 0) const;
  double AsDouble(double def = 0.0) const;
  const std::string& AsString() const;  ///< Empty string on mismatch.

  /// Array / object element count; 0 for scalars.
  size_t size() const;

  // ---- Array access -------------------------------------------------------
  /// Items of an array (empty for non-arrays).
  const std::vector<Value>& items() const;
  /// Appends to an array; a null value silently becomes an array first.
  Value& Append(Value v);

  // ---- Object access ------------------------------------------------------
  /// Members of an object (empty for non-objects).
  const std::vector<Member>& members() const;
  /// First member named `key`, or nullptr.
  const Value* Find(std::string_view key) const;
  /// Member lookup that never fails: a shared null value when absent.
  const Value& at(std::string_view key) const;
  /// Sets `key` (overwriting the first existing member of that name); a
  /// null value silently becomes an object first. Returns the stored value.
  Value& Set(std::string key, Value v);

  // ---- Serialization ------------------------------------------------------
  /// Appends the compact serialization (no whitespace) to `out`.
  void AppendTo(std::string* out) const;
  /// Compact serialization.
  std::string Dump() const;
  /// Indented serialization (2-space, trailing newline) for human surfaces.
  std::string Pretty() const;

 private:
  void PrettyTo(std::string* out, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<Member> members_;
};

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes,
/// and every control character (RFC 8259 §7).
void AppendQuoted(std::string_view s, std::string* out);

/// Quoted, escaped form of `s`.
std::string Quoted(std::string_view s);

/// The writer's double formatting ("%.17g": shortest round-trip-safe form
/// produced by a fixed format). Exposed so emitters that need to match the
/// writer byte-for-byte (bench gates) share it.
std::string NumberToString(double value);

/// Parses one JSON document (surrounding whitespace allowed; trailing
/// garbage is an error). Depth is capped at 64 nested containers; numbers
/// without '.', exponent, or overflow parse as kInt. Errors carry a byte
/// offset.
StatusOr<Value> Parse(std::string_view text);

}  // namespace recon::json

#endif  // RECON_UTIL_JSON_H_
