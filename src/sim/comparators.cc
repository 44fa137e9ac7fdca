#include "sim/comparators.h"

#include <algorithm>

#include "sim/evidence.h"
#include "sim/value_store.h"
#include "strsim/email.h"
#include "strsim/person_name.h"
#include "strsim/title.h"
#include "strsim/venue.h"
#include "util/string_util.h"

namespace recon {

double PersonNameFieldSimilarity(const std::string& a, const std::string& b) {
  return PersonNameFieldSimilarity(strsim::ParsePersonName(a), ToLower(a),
                                   strsim::ParsePersonName(b), ToLower(b));
}

double PersonNameFieldSimilarity(const strsim::PersonName& pa,
                                 const std::string& lower_a,
                                 const strsim::PersonName& pb,
                                 const std::string& lower_b) {
  double sim = strsim::PersonNameSimilarity(pa, pb);
  if (pa.last.empty() || pb.last.empty()) {
    // A bare first name or nickname, even repeated verbatim, is too weak
    // to identify a person.
    sim = std::min(sim, kBareNameCap);
  } else if (!pa.IsFullName() || !pb.IsFullName()) {
    // An abbreviated scholarly form ("Wong, E.") repeated verbatim is an
    // equal attribute value and strong evidence; different abbreviated
    // forms need corroboration.
    if (lower_a == lower_b) {
      sim = kEqualAbbreviatedNameSim;
    } else {
      sim = std::min(sim, kAbbreviatedNameCap);
    }
  }
  return sim;
}

double PersonNameFieldSimilarity(const ValueFeatures& a,
                                 const ValueFeatures& b) {
  return PersonNameFieldSimilarity(a.name, a.lower, b.name, b.lower);
}

double EmailFieldSimilarity(const std::string& a, const std::string& b) {
  return strsim::EmailSimilarity(a, b);
}

double EmailFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b) {
  return strsim::EmailSimilarity(a.email, b.email);
}

double NameEmailFieldSimilarity(const std::string& name,
                                const std::string& email) {
  return strsim::NameEmailSimilarity(name, email);
}

double NameEmailFieldSimilarity(const ValueFeatures& name,
                                const ValueFeatures& email) {
  return strsim::NameEmailSimilarity(name.name, email.email);
}

double TitleFieldSimilarity(const std::string& a, const std::string& b) {
  return strsim::TitleSimilarity(a, b);
}

double TitleFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b) {
  return strsim::TitleSimilarity(a.title, b.title);
}

double VenueNameFieldSimilarity(const std::string& a, const std::string& b) {
  return strsim::VenueNameSimilarity(a, b);
}

double VenueNameFieldSimilarity(const ValueFeatures& a,
                                const ValueFeatures& b) {
  return strsim::VenueNameSimilarity(a.venue, b.venue);
}

double YearFieldSimilarity(const std::string& a, const std::string& b) {
  return strsim::YearSimilarity(a, b);
}

double YearFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b) {
  return strsim::YearSimilarity(a.year, b.year);
}

double PagesFieldSimilarity(const std::string& a, const std::string& b) {
  return strsim::PagesSimilarity(a, b);
}

double PagesFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b) {
  return strsim::PagesSimilarity(a.pages, b.pages);
}

double LocationFieldSimilarity(const std::string& a, const std::string& b) {
  return strsim::LocationSimilarity(a, b);
}

double LocationFieldSimilarity(const ValueFeatures& a,
                               const ValueFeatures& b) {
  return strsim::LocationSimilarity(a.location, b.location);
}

double FieldSimilarity(int evidence, const std::string& a,
                       const std::string& b) {
  switch (evidence) {
    case kEvPersonName:
      return PersonNameFieldSimilarity(a, b);
    case kEvPersonEmail:
      return EmailFieldSimilarity(a, b);
    case kEvPersonNameEmail:
      return NameEmailFieldSimilarity(a, b);
    case kEvArticleTitle:
      return TitleFieldSimilarity(a, b);
    case kEvArticleYear:
    case kEvVenueYear:
      return YearFieldSimilarity(a, b);
    case kEvArticlePages:
      return PagesFieldSimilarity(a, b);
    case kEvVenueName:
      return VenueNameFieldSimilarity(a, b);
    case kEvVenueLocation:
      return LocationFieldSimilarity(a, b);
    default:
      return 0.0;
  }
}

}  // namespace recon
