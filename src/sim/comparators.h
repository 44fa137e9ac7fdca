// Field comparators: the atomic-attribute similarity functions plugged into
// the dependency graph's value nodes. Thin, domain-aware wrappers over
// strsim that also encode reconciliation policy (e.g. abbreviated person
// names alone can never reach the merge threshold).

#ifndef RECON_SIM_COMPARATORS_H_
#define RECON_SIM_COMPARATORS_H_

#include <string>

#include "strsim/email.h"
#include "strsim/person_name.h"

namespace recon {

struct ValueFeatures;

/// Person name vs person name. Capped at kAbbreviatedNameCap unless *both*
/// names have a full given name and a last name: "Wong, E." cannot merge
/// with "Eugene Wong" on the name alone — it needs corroborating evidence,
/// which is exactly the paper's design. Exception: *identical* strings are
/// equal attribute values (the paper's attribute threshold of 1.0), so two
/// occurrences of the same abbreviated string score
/// kEqualAbbreviatedNameSim, high enough to merge on their own.
double PersonNameFieldSimilarity(const std::string& a, const std::string& b);

/// Parsed-level form: each side analyzed once by the caller and reused
/// across pairs. `lower_a`/`lower_b` are the lowercased raw strings (the
/// identical-abbreviation check is on the raw form, not the parse).
double PersonNameFieldSimilarity(const strsim::PersonName& pa,
                                 const std::string& lower_a,
                                 const strsim::PersonName& pb,
                                 const std::string& lower_b);

/// Feature-level form over store-analyzed values; identical result.
double PersonNameFieldSimilarity(const ValueFeatures& a,
                                 const ValueFeatures& b);

/// Cap applied by PersonNameFieldSimilarity to non-full names.
inline constexpr double kAbbreviatedNameCap = 0.80;
/// Cap when either side is a bare first name / nickname (no last name):
/// two "Ronald"s are barely evidence at all. Exactly at the default t_rv
/// (0.7): boolean evidence applies, but a bare-name pair needs the maximum
/// weak-contact reward to reach the merge threshold.
inline constexpr double kBareNameCap = 0.70;
/// Score of byte-identical abbreviated strings that do have a last name.
inline constexpr double kEqualAbbreviatedNameSim = 0.88;

/// Email vs email (1.0 on case-insensitive equality: a key attribute).
double EmailFieldSimilarity(const std::string& a, const std::string& b);
double EmailFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b);

/// Person name vs email account (cross-attribute evidence).
double NameEmailFieldSimilarity(const std::string& name,
                                const std::string& email);
/// Feature-level form; `name` must be a kPersonName value and `email` a
/// kEmail value.
double NameEmailFieldSimilarity(const ValueFeatures& name,
                                const ValueFeatures& email);

/// Article title vs title.
double TitleFieldSimilarity(const std::string& a, const std::string& b);
double TitleFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b);

/// Venue name vs venue name (acronym-aware).
double VenueNameFieldSimilarity(const std::string& a, const std::string& b);
double VenueNameFieldSimilarity(const ValueFeatures& a,
                                const ValueFeatures& b);

/// Year vs year.
double YearFieldSimilarity(const std::string& a, const std::string& b);
double YearFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b);

/// Page range vs page range.
double PagesFieldSimilarity(const std::string& a, const std::string& b);
double PagesFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b);

/// Location vs location.
double LocationFieldSimilarity(const std::string& a, const std::string& b);
double LocationFieldSimilarity(const ValueFeatures& a,
                               const ValueFeatures& b);

/// Scores two raw values on an evidence channel with that channel's field
/// comparator: the raw-string twin of FeaturePairSimilarity, with an
/// identical result. For kEvPersonNameEmail, `a` is the name and `b` the
/// email. Returns 0 for channels without an atomic comparator.
double FieldSimilarity(int evidence, const std::string& a,
                       const std::string& b);

}  // namespace recon

#endif  // RECON_SIM_COMPARATORS_H_
