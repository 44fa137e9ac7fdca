#include "sim/class_sim.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "sim/params.h"
#include "util/logging.h"

namespace recon {

namespace {

/// Applies S_sb and S_wb on top of S_rv and clamps to [0, 1].
double ApplyBooleanEvidence(double s_rv, const EvidenceSummary& evidence,
                            const BooleanEvidenceParams& params) {
  double s = s_rv;
  if (s_rv >= params.t_rv) {
    s += params.beta * evidence.strong_merged;
    s += params.gamma *
         std::min(evidence.weak_merged, params.max_weak_rewarded);
  }
  return std::clamp(s, 0.0, 1.0);
}

}  // namespace

double PersonSimilarity::Compute(const EvidenceSummary& evidence) const {
  const bool has_name = evidence.Has(kEvPersonName);
  const bool has_email = evidence.Has(kEvPersonEmail);
  const bool has_ne = evidence.Has(kEvPersonNameEmail);

  // Key attribute (§4): two persons with the same email address are the
  // same person regardless of everything else.
  if (has_email && evidence.Get(kEvPersonEmail) >= 1.0) return 1.0;

  const double name = has_name ? evidence.Get(kEvPersonName) : 0.0;
  const double email = has_email ? evidence.Get(kEvPersonEmail) : 0.0;
  const double ne = has_ne ? evidence.Get(kEvPersonNameEmail) : 0.0;

  // Decision tree over which evidence channels are present (§4: "a set of
  // similarity functions, rather than a single one", organized by the
  // existence of similarity values).
  double s_rv = 0.0;
  if (has_name && has_email) {
    s_rv = kSimParams.person_w_name_with_email * name +
           kSimParams.person_w_email_with_name * email;
    if (has_ne) {
      s_rv = std::max(s_rv, kSimParams.person_w_name_full * name +
                                kSimParams.person_w_email_full * email +
                                kSimParams.person_w_ne_full * ne);
    }
  } else if (has_name && has_ne) {
    s_rv = std::max(name, kSimParams.person_w_name_ne * name +
                              kSimParams.person_w_ne_ne * ne);
  } else if (has_name) {
    s_rv = name;
  } else if (has_email && has_ne) {
    s_rv = std::max(kSimParams.person_email_only_scale * email,
                    kSimParams.person_ne_only_scale * ne);
  } else if (has_email) {
    s_rv = kSimParams.person_email_only_scale * email;
  } else if (has_ne) {
    s_rv = kSimParams.person_ne_only_scale * ne;
  }

  return ApplyBooleanEvidence(s_rv, evidence, kSimParams.person);
}

double ArticleSimilarity::Compute(const EvidenceSummary& evidence) const {
  // Articles without comparable titles are never merged directly; they can
  // still be connected through the transitive closure.
  if (!evidence.Has(kEvArticleTitle)) return 0.0;
  const double title = evidence.Get(kEvArticleTitle);

  // Auxiliary evidence: renormalized weighted mean over present channels.
  double aux_weight = 0.0;
  double aux_sum = 0.0;
  const std::pair<Evidence, double> channels[] = {
      {kEvArticleAuthors, kSimParams.article_w_authors},
      {kEvArticleVenue, kSimParams.article_w_venue},
      {kEvArticlePages, kSimParams.article_w_pages},
      {kEvArticleYear, kSimParams.article_w_year},
  };
  for (const auto& [channel, weight] : channels) {
    if (evidence.Has(channel)) {
      aux_weight += weight;
      aux_sum += weight * evidence.Get(channel);
    }
  }

  double s_rv;
  if (aux_weight > 0.0) {
    s_rv = kSimParams.article_w_title * title +
           (1.0 - kSimParams.article_w_title) * (aux_sum / aux_weight);
  } else {
    s_rv = kSimParams.article_title_only_scale * title;
  }
  return ApplyBooleanEvidence(s_rv, evidence, kSimParams.article);
}

double VenueSimilarity::Compute(const EvidenceSummary& evidence) const {
  if (!evidence.Has(kEvVenueName)) return 0.0;

  // Renormalized weighted mean over present channels, name-dominated.
  double weight = kSimParams.venue_w_name;
  double sum = kSimParams.venue_w_name * evidence.Get(kEvVenueName);
  if (evidence.Has(kEvVenueYear)) {
    weight += kSimParams.venue_w_year;
    sum += kSimParams.venue_w_year * evidence.Get(kEvVenueYear);
  }
  if (evidence.Has(kEvVenueLocation)) {
    weight += kSimParams.venue_w_location;
    sum += kSimParams.venue_w_location * evidence.Get(kEvVenueLocation);
  }
  double s_rv = sum / weight;
  // A venue instance is one year's event: a year mismatch is strong
  // negative evidence ("SIGMOD 1998" is not "SIGMOD 1999"), far beyond its
  // linear weight. The penalty scales with how incompatible the years are
  // (adjacent years score 0.5 and are penalized at half strength).
  const bool hard_year_mismatch =
      evidence.Has(kEvVenueYear) && evidence.Get(kEvVenueYear) == 0.0;
  if (evidence.Has(kEvVenueYear) && evidence.Get(kEvVenueYear) < 1.0) {
    const double year = evidence.Get(kEvVenueYear);
    s_rv *= kSimParams.venue_year_mismatch_penalty +
            (1.0 - kSimParams.venue_year_mismatch_penalty) * year;
  }
  double s = ApplyBooleanEvidence(s_rv, evidence, kSimParams.venue);
  // Not even a pile of merged articles may equate two venues whose years
  // plainly disagree — it would avalanche through the venue-name value
  // propagation (one bad merge certifies the name pair globally).
  if (hard_year_mismatch) {
    s = std::min(s, kSimParams.venue_year_mismatch_cap);
  }
  return s;
}

std::unique_ptr<ClassSimilarity> MakeClassSimilarity(const char* class_name) {
  if (std::strcmp(class_name, "Person") == 0) {
    return std::make_unique<PersonSimilarity>();
  }
  if (std::strcmp(class_name, "Article") == 0) {
    return std::make_unique<ArticleSimilarity>();
  }
  if (std::strcmp(class_name, "Venue") == 0) {
    return std::make_unique<VenueSimilarity>();
  }
  RECON_LOG(Fatal) << "No similarity function for class " << class_name;
  return nullptr;
}

}  // namespace recon
