// Person-name parsing and comparison.
//
// Handles the name variants that dominate personal information spaces and
// citation data: "Robert S. Epstein", "Epstein, R.S.", "R. Epstein",
// "Stonebraker, M.", bare first names / nicknames ("mike"), and middle
// names/initials. Comparison is initial-aware: a full given name matches a
// compatible initial, and contradictory full names are detected so the
// reconciler can use them as negative evidence (paper §3.4, constraint 2).

#ifndef RECON_STRSIM_PERSON_NAME_H_
#define RECON_STRSIM_PERSON_NAME_H_

#include <string>
#include <string_view>
#include <vector>

namespace recon::strsim {

/// One given-name component: either a full name ("robert") or an initial
/// ("r"). All text is lowercased.
struct GivenName {
  std::string text;
  bool is_initial = false;
};

/// A parsed person name. `last` may be empty (bare first name / nickname).
struct PersonName {
  std::vector<GivenName> given;
  std::string last;
  /// True when the raw string was a single token whose role (first or last
  /// name) is ambiguous; such a token is stored in `given` and comparison
  /// additionally tries it against the other name's last name.
  bool single_token = false;

  /// True if at least one given name is a full (non-initial) name.
  bool HasFullGivenName() const;
  /// True if both a full given name and a last name are present.
  bool IsFullName() const;
};

/// Parses a raw name string. Supported forms:
///   "First [Middle...] Last", "Last, First [Middle...]",
///   "Last, F." / "Last, F.M." (packed initials), "F. M. Last",
///   single tokens ("mike").
PersonName ParsePersonName(std::string_view raw);

/// Maps common nicknames to canonical given names ("mike" -> "michael").
/// Returns the input (lowercased) when no mapping exists.
std::string CanonicalGivenName(std::string_view name);

/// Similarity of two parsed names, in [0, 1]. Initial-aware alignment of
/// given names plus Jaro-Winkler on last names; nickname canonicalization
/// applied to full given names.
double PersonNameSimilarity(const PersonName& a, const PersonName& b);

/// Convenience overload on raw strings.
double PersonNameSimilarity(std::string_view a, std::string_view b);

/// True if the two names cannot belong to the same person under the paper's
/// constraint 2: same first name but completely different last names, or
/// same last name but completely different (full) first names.
bool NamesContradict(const PersonName& a, const PersonName& b);

/// True if nothing in the two names contradicts: last names compatible
/// (equal-ish, or one missing) and aligned given names compatible
/// (initial-compatible or similar).
bool NamesCompatible(const PersonName& a, const PersonName& b);

}  // namespace recon::strsim

#endif  // RECON_STRSIM_PERSON_NAME_H_
