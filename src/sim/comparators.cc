#include "sim/comparators.h"

#include <algorithm>

#include "sim/value_store.h"
#include "strsim/email.h"
#include "strsim/person_name.h"
#include "strsim/title.h"
#include "strsim/venue.h"

namespace recon {

double PersonNameFieldSimilarity(const ValueFeatures& a,
                                 const ValueFeatures& b) {
  double sim = strsim::PersonNameSimilarity(a.name, b.name);
  if (a.name.last.empty() || b.name.last.empty()) {
    // A bare first name or nickname, even repeated verbatim, is too weak
    // to identify a person.
    sim = std::min(sim, kBareNameCap);
  } else if (!a.name.IsFullName() || !b.name.IsFullName()) {
    // An abbreviated scholarly form ("Wong, E.") repeated verbatim is an
    // equal attribute value and strong evidence; different abbreviated
    // forms need corroboration.
    if (a.lower == b.lower) {
      sim = kEqualAbbreviatedNameSim;
    } else {
      sim = std::min(sim, kAbbreviatedNameCap);
    }
  }
  return sim;
}

double EmailFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b) {
  return strsim::EmailSimilarity(a.email, b.email);
}

double NameEmailFieldSimilarity(const ValueFeatures& name,
                                const ValueFeatures& email) {
  return strsim::NameEmailSimilarity(name.name, email.email);
}

double TitleFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b) {
  return strsim::TitleSimilarity(a.title, b.title);
}

double VenueNameFieldSimilarity(const ValueFeatures& a,
                                const ValueFeatures& b) {
  return strsim::VenueNameSimilarity(a.venue, b.venue);
}

double YearFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b) {
  return strsim::YearSimilarity(a.year, b.year);
}

double PagesFieldSimilarity(const ValueFeatures& a, const ValueFeatures& b) {
  return strsim::PagesSimilarity(a.pages, b.pages);
}

double LocationFieldSimilarity(const ValueFeatures& a,
                               const ValueFeatures& b) {
  return strsim::LocationSimilarity(a.location, b.location);
}

}  // namespace recon
