#include "sim/value_store.h"

#include "sim/comparators.h"
#include "sim/evidence.h"
#include "util/string_util.h"

namespace recon {

namespace {

int64_t StringBytes(const std::string& s) {
  return static_cast<int64_t>(sizeof(std::string) + s.capacity());
}

int64_t StringVectorBytes(const std::vector<std::string>& v) {
  int64_t bytes = static_cast<int64_t>(v.capacity() * sizeof(std::string));
  for (const auto& s : v) bytes += static_cast<int64_t>(s.capacity());
  return bytes;
}

}  // namespace

int64_t ValueFeatures::ApproximateBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(ValueFeatures));
  bytes += StringBytes(lower);
  bytes += static_cast<int64_t>(name.given.capacity() * sizeof(strsim::GivenName));
  for (const auto& g : name.given) bytes += static_cast<int64_t>(g.text.capacity());
  bytes += StringBytes(name.last);
  bytes += StringBytes(email.account) + StringBytes(email.server);
  bytes += StringBytes(title.normalized) + StringVectorBytes(title.tokens);
  bytes += StringBytes(venue.lower) + StringBytes(venue.content) +
           StringBytes(venue.acronym) + StringVectorBytes(venue.tokens) +
           StringVectorBytes(venue.raw_content) +
           StringVectorBytes(venue.expanded);
  bytes += StringBytes(year.trimmed);
  bytes += StringBytes(pages.trimmed);
  bytes += StringBytes(location.lower) + StringVectorBytes(location.tokens);
  return bytes;
}

ValueFeatures AnalyzeValue(const std::string& raw, FeatureKind kind) {
  ValueFeatures f;
  f.kind = kind;
  switch (kind) {
    case FeatureKind::kPersonName:
      f.lower = ToLower(raw);
      f.name = strsim::ParsePersonName(raw);
      break;
    case FeatureKind::kEmail:
      f.email = strsim::ParseEmail(raw);
      break;
    case FeatureKind::kTitle:
      f.title = strsim::AnalyzeTitle(raw);
      break;
    case FeatureKind::kVenueName:
      f.venue = strsim::AnalyzeVenueName(raw);
      break;
    case FeatureKind::kYear:
      f.year = strsim::AnalyzeYear(raw);
      break;
    case FeatureKind::kPages:
      f.pages = strsim::AnalyzePages(raw);
      break;
    case FeatureKind::kLocation:
      f.location = strsim::AnalyzeLocation(raw);
      break;
    case FeatureKind::kGeneric:
      break;
  }
  return f;
}

void ValueStore::Sync(const ValuePool& pool) {
  const size_t target = static_cast<size_t>(pool.size());
  if (features_.size() >= target) return;
  features_.reserve(target);
  for (ValueId id = static_cast<ValueId>(features_.size());
       id < static_cast<ValueId>(target); ++id) {
    const FeatureKind kind = schema_.KindOf(pool.DomainOf(id));
    ValueFeatures f = AnalyzeValue(pool.StringOf(id), kind);
    approximate_bytes_ += f.ApproximateBytes();
    features_.push_back(std::move(f));
  }
}

double FeaturePairSimilarity(int evidence, const ValueFeatures& a,
                             const ValueFeatures& b) {
  switch (evidence) {
    case kEvPersonName:
      return PersonNameFieldSimilarity(a, b);
    case kEvPersonEmail:
      return EmailFieldSimilarity(a, b);
    case kEvPersonNameEmail: {
      // Identify sides by kind so callers need not order the pair.
      const ValueFeatures& name_side =
          (a.kind == FeatureKind::kPersonName) ? a : b;
      const ValueFeatures& email_side =
          (a.kind == FeatureKind::kPersonName) ? b : a;
      return NameEmailFieldSimilarity(name_side, email_side);
    }
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

void SimMemo::set_max_bytes(int64_t max_bytes) {
  per_shard_cap_ = max_bytes / kNumShards;
  // A cap too small to hold even a handful of entries per shard would
  // thrash; serve lookups as a pass-through instead.
  bypass_ = per_shard_cap_ < 8 * kEntryBytes;
}

}  // namespace recon
