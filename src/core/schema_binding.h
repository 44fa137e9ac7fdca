// Resolves the well-known classes/attributes of the PIM and Cora schemas
// to ids, tolerating absent attributes (Cora has no Person.email), and
// holds the tables every module reads from that binding: the feature kind
// of each atomic attribute and the atomic evidence channels of each class.

#ifndef RECON_CORE_SCHEMA_BINDING_H_
#define RECON_CORE_SCHEMA_BINDING_H_

#include <memory>
#include <span>
#include <vector>

#include "core/options.h"
#include "model/reference.h"
#include "model/schema.h"
#include "sim/class_sim.h"
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

/// The analyses of a reference's atomic values, per attribute, for the
/// attributes with a feature kind in `kinds` (empty for the rest): the
/// form the snapshot's entity features, BlockingKeys and Fellegi-Sunter's
/// field comparisons read.
std::vector<std::vector<ValueFeatures>> AnalyzeValues(
    const Reference& ref, const ValueKindSchema& kinds);

/// One atomic evidence channel of a class's S_rv (paper §4, Eq. 1): a
/// reference pair's `attr_a` values are compared with its `attr_b` values
/// on `evidence`, and a non-equal value pair is evidence when its
/// similarity reaches `seed`. A cross-attribute row (attr_a != attr_b) is
/// compared in both directions: a.attr_a x b.attr_b, then b.attr_a x
/// a.attr_b. Each consumer keeps its own scoring rules over these rows.
struct AtomicChannel {
  int class_id = -1;
  int evidence = 0;
  int attr_a = -1;
  int attr_b = -1;
  double seed = 0.0;
  /// Lowest evidence level that reads the channel.
  EvidenceLevel level = EvidenceLevel::kAttrWise;
  /// Compared only when the class's ungated channels gave evidence: titles
  /// and venue names are required evidence, so a pair without them is not
  /// worth its year, pages or location comparisons.
  bool gated = false;
  /// When both sides have values but no pair is seed-similar, offer an
  /// explicit zero: dissimilar names are soft negative evidence, not
  /// "unknown".
  bool zero_when_dissimilar = false;
  /// A reference-pair merge marks the value pair merged (venue names).
  bool propagate_merge = false;

  bool cross() const { return attr_a != attr_b; }
};

/// The atomic channels of every class the binding knows, grouped by class
/// in a fixed order: person name, email, name~email; article title, year,
/// pages; venue name, year, location. Within a class the ungated rows come
/// before the gated ones. Rows with an unbound attribute are omitted, and
/// so are the rows above `level`. The graph build, query scoring and both
/// baselines read this one table.
std::vector<AtomicChannel> AtomicChannels(
    const SchemaBinding& binding,
    EvidenceLevel level = EvidenceLevel::kContact);

/// The rows of `class_id` in `table`, in table order (a class's rows are
/// adjacent); empty when it has none.
std::span<const AtomicChannel> ClassChannels(
    std::span<const AtomicChannel> table, int class_id);

/// Similarity functions per class id for the classes the binding knows;
/// null for every other class.
std::vector<std::unique_ptr<ClassSimilarity>> MakeClassSimilarities(
    const Schema& schema, const SchemaBinding& binding);

}  // namespace recon

#endif  // RECON_CORE_SCHEMA_BINDING_H_
