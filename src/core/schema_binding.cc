#include "core/schema_binding.h"

#include <algorithm>
#include <string>

#include "sim/evidence.h"
#include "sim/params.h"

namespace recon {

SchemaBinding SchemaBinding::Resolve(const Schema& schema) {
  SchemaBinding b;
  b.person = schema.FindClass("Person");
  b.article = schema.FindClass("Article");
  b.venue = schema.FindClass("Venue");

  if (b.person >= 0) {
    const ClassDef& person = schema.class_def(b.person);
    b.person_name = person.FindAttribute("name");
    b.person_email = person.FindAttribute("email");
    b.person_coauthor = person.FindAttribute("coAuthor");
    b.person_contact = person.FindAttribute("emailContact");
  }
  if (b.article >= 0) {
    const ClassDef& article = schema.class_def(b.article);
    b.article_title = article.FindAttribute("title");
    b.article_year = article.FindAttribute("year");
    b.article_pages = article.FindAttribute("pages");
    b.article_authors = article.FindAttribute("authoredBy");
    b.article_venue = article.FindAttribute("publishedIn");
  }
  if (b.venue >= 0) {
    const ClassDef& venue = schema.class_def(b.venue);
    b.venue_name = venue.FindAttribute("name");
    b.venue_year = venue.FindAttribute("year");
    b.venue_location = venue.FindAttribute("location");
  }
  return b;
}

ValueKindSchema MakeValueKindSchema(const SchemaBinding& b) {
  ValueKindSchema schema;
  auto add = [&](int class_id, int attr, FeatureKind kind) {
    if (class_id >= 0 && attr >= 0) {
      schema.kinds.emplace_back(ValueDomain{class_id, attr}, kind);
    }
  };
  add(b.person, b.person_name, FeatureKind::kPersonName);
  add(b.person, b.person_email, FeatureKind::kEmail);
  add(b.article, b.article_title, FeatureKind::kTitle);
  add(b.article, b.article_year, FeatureKind::kYear);
  add(b.article, b.article_pages, FeatureKind::kPages);
  add(b.venue, b.venue_name, FeatureKind::kVenueName);
  add(b.venue, b.venue_year, FeatureKind::kYear);
  add(b.venue, b.venue_location, FeatureKind::kLocation);
  return schema;
}

std::vector<std::vector<ValueFeatures>> AnalyzeValues(
    const Reference& ref, const ValueKindSchema& kinds) {
  std::vector<std::vector<ValueFeatures>> features(ref.num_attributes());
  for (int attr = 0; attr < ref.num_attributes(); ++attr) {
    const FeatureKind kind = kinds.KindOf(ValueDomain{ref.class_id(), attr});
    if (kind == FeatureKind::kGeneric) continue;
    for (const std::string& value : ref.atomic_values(attr)) {
      features[attr].push_back(AnalyzeValue(value, kind));
    }
  }
  return features;
}

std::vector<AtomicChannel> AtomicChannels(const SchemaBinding& b,
                                          EvidenceLevel level) {
  const AtomicChannel rows[] = {
      {.class_id = b.person, .evidence = kEvPersonName,
       .attr_a = b.person_name, .attr_b = b.person_name,
       .seed = kSimParams.person_name_seed, .zero_when_dissimilar = true},
      {.class_id = b.person, .evidence = kEvPersonEmail,
       .attr_a = b.person_email, .attr_b = b.person_email,
       .seed = kSimParams.person_email_seed},
      {.class_id = b.person, .evidence = kEvPersonNameEmail,
       .attr_a = b.person_name, .attr_b = b.person_email,
       .seed = kSimParams.name_email_seed, .level = EvidenceLevel::kNameEmail},
      {.class_id = b.article, .evidence = kEvArticleTitle,
       .attr_a = b.article_title, .attr_b = b.article_title,
       .seed = kSimParams.article_title_seed},
      {.class_id = b.article, .evidence = kEvArticleYear,
       .attr_a = b.article_year, .attr_b = b.article_year,
       .seed = kSimParams.year_seed, .gated = true},
      {.class_id = b.article, .evidence = kEvArticlePages,
       .attr_a = b.article_pages, .attr_b = b.article_pages,
       .seed = kSimParams.pages_seed, .gated = true},
      {.class_id = b.venue, .evidence = kEvVenueName,
       .attr_a = b.venue_name, .attr_b = b.venue_name,
       .seed = kSimParams.venue_name_seed, .propagate_merge = true},
      {.class_id = b.venue, .evidence = kEvVenueYear,
       .attr_a = b.venue_year, .attr_b = b.venue_year,
       .seed = kSimParams.year_seed, .gated = true},
      {.class_id = b.venue, .evidence = kEvVenueLocation,
       .attr_a = b.venue_location, .attr_b = b.venue_location,
       .seed = kSimParams.location_seed, .gated = true},
  };
  std::vector<AtomicChannel> table;
  for (const AtomicChannel& row : rows) {
    if (row.class_id >= 0 && row.attr_a >= 0 && row.attr_b >= 0 &&
        row.level <= level) {
      table.push_back(row);
    }
  }
  return table;
}

std::span<const AtomicChannel> ClassChannels(
    std::span<const AtomicChannel> table, int class_id) {
  const auto of_class = [&](const AtomicChannel& c) {
    return c.class_id == class_id;
  };
  const auto first = std::find_if(table.begin(), table.end(), of_class);
  const auto last = std::find_if_not(first, table.end(), of_class);
  return {first, last};
}

std::vector<std::unique_ptr<ClassSimilarity>> MakeClassSimilarities(
    const Schema& schema, const SchemaBinding& binding) {
  std::vector<std::unique_ptr<ClassSimilarity>> sims(schema.num_classes());
  for (const int c : {binding.person, binding.article, binding.venue}) {
    if (c >= 0) {
      sims[c] = MakeClassSimilarity(schema.class_def(c).name.c_str());
    }
  }
  return sims;
}

}  // namespace recon
