// Resolves the well-known classes/attributes of the PIM and Cora schemas
// to ids, tolerating absent attributes (Cora has no Person.email).

#ifndef RECON_CORE_SCHEMA_BINDING_H_
#define RECON_CORE_SCHEMA_BINDING_H_

#include <memory>
#include <vector>

#include "model/schema.h"
#include "sim/class_sim.h"
#include "sim/params.h"
#include "sim/value_store.h"

namespace recon {

/// Attribute/class ids for the personal-information domain. Absent classes
/// and attributes are -1; wiring code checks before use.
struct SchemaBinding {
  int person = -1;
  int article = -1;
  int venue = -1;

  int person_name = -1;
  int person_email = -1;
  int person_coauthor = -1;
  int person_contact = -1;

  int article_title = -1;
  int article_year = -1;
  int article_pages = -1;
  int article_authors = -1;
  int article_venue = -1;

  int venue_name = -1;
  int venue_year = -1;
  int venue_location = -1;

  /// Looks up every known name; missing entries stay -1.
  static SchemaBinding Resolve(const Schema& schema);
};

/// Feature kind of every bound atomic attribute, in a fixed order. The
/// graph's value store, InternReferenceValues and the service snapshot all
/// read this one table, so a value is analyzed the same way everywhere.
ValueKindSchema MakeValueKindSchema(const SchemaBinding& binding);

/// Similarity functions per class id for the classes the binding knows;
/// null for every other class.
std::vector<std::unique_ptr<ClassSimilarity>> MakeClassSimilarities(
    const Schema& schema, const SchemaBinding& binding,
    const SimParams& params);

}  // namespace recon

#endif  // RECON_CORE_SCHEMA_BINDING_H_
