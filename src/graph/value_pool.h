// Interning pool for attribute values.
//
// The dependency graph requires a *unique* node per pair of elements
// (paper §3.1); for that, equal attribute values must be one element. The
// pool interns strings per domain (a domain is one atomic attribute of one
// class), yielding globally unique ValueIds.

#ifndef RECON_GRAPH_VALUE_POOL_H_
#define RECON_GRAPH_VALUE_POOL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace recon {

/// Globally unique id of an interned (domain, string) value.
using ValueId = int32_t;
inline constexpr ValueId kInvalidValue = -1;

/// Identifies one atomic attribute of one class.
struct ValueDomain {
  int class_id = -1;
  int attr = -1;

  friend bool operator==(const ValueDomain&, const ValueDomain&) = default;
};

/// Interns attribute values. Values are equal elements only within the same
/// domain ("Eugene Wong" as a Person.name is a different element from the
/// same string elsewhere).
class ValuePool {
 public:
  ValuePool() = default;

  /// Interns `value` in `domain`, returning a stable id.
  ValueId Intern(ValueDomain domain, std::string_view value);

  /// Id of `value` in `domain`, or kInvalidValue.
  ValueId Find(ValueDomain domain, std::string_view value) const;

  const std::string& StringOf(ValueId id) const;
  ValueDomain DomainOf(ValueId id) const;

  int size() const { return static_cast<int>(strings_.size()); }

 private:
  static uint64_t DomainKey(ValueDomain d) {
    return (static_cast<uint64_t>(static_cast<uint32_t>(d.class_id)) << 32) |
           static_cast<uint32_t>(d.attr);
  }

  /// Hashes std::string and std::string_view alike, so lookups by view
  /// build no std::string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using DomainMap =
      std::unordered_map<std::string, ValueId, StringHash, std::equal_to<>>;

  std::unordered_map<uint64_t, DomainMap> by_domain_;
  std::vector<std::string> strings_;
  std::vector<ValueDomain> domains_;
};

}  // namespace recon

#endif  // RECON_GRAPH_VALUE_POOL_H_
