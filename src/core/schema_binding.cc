#include "core/schema_binding.h"

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

std::vector<std::unique_ptr<ClassSimilarity>> MakeClassSimilarities(
    const Schema& schema, const SchemaBinding& binding,
    const SimParams& params) {
  std::vector<std::unique_ptr<ClassSimilarity>> sims(schema.num_classes());
  for (const int c : {binding.person, binding.article, binding.venue}) {
    if (c >= 0) {
      sims[c] = MakeClassSimilarity(schema.class_def(c).name.c_str(), params);
    }
  }
  return sims;
}

}  // namespace recon
