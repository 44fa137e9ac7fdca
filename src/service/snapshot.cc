#include "service/snapshot.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/candidates.h"
#include "util/logging.h"

namespace recon::service {

namespace {

/// Class-qualified blocking key: keys of different classes never share a
/// block (a "wong" name token must not pull venue candidates).
std::string QualifiedKey(int class_id, const std::string& key) {
  return std::to_string(class_id) + '|' + key;
}

/// The name-like attribute of a class (what the main query text targets).
int NameAttribute(const SchemaBinding& b, int class_id) {
  if (class_id == b.person) return b.person_name;
  if (class_id == b.article) return b.article_title;
  if (class_id == b.venue) return b.venue_name;
  return -1;
}

/// One real-valued evidence channel of the query-vs-profile comparison:
/// analyzed query values against the candidate profile's `attr` values.
struct AtomicChannel {
  int evidence = 0;
  double seed = 0.0;
  int attr = -1;
  /// Person-name rule (§3.1): both sides carry values but none are even
  /// seed-similar -> offer explicit zero evidence (dissimilar names are
  /// soft negative evidence, not "unknown").
  bool zero_when_dissimilar = false;
  std::vector<std::string> raw;
  std::vector<ValueFeatures> features;
};

/// An association channel: query strings against the names of the entities
/// the candidate is linked to via `assoc_attr`.
struct AssocChannel {
  int evidence = 0;
  double seed = 0.0;
  int assoc_attr = -1;
  int target_name_attr = -1;
  std::vector<ValueFeatures> features;
};

/// The per-class comparison plan for one query, built once and reused for
/// every candidate.
struct QueryPlan {
  int class_id = -1;
  std::vector<AtomicChannel> channels;
  std::vector<AssocChannel> assoc_channels;
};

void AddQueryValues(AtomicChannel* channel, FeatureKind kind,
                    const std::vector<std::string>& values) {
  for (const std::string& raw : values) {
    channel->raw.push_back(raw);
    channel->features.push_back(AnalyzeValue(raw, kind));
  }
}

}  // namespace

std::vector<EntityId> Snapshot::CandidateEntities(const Reference& probe,
                                                  int class_id) const {
  std::vector<EntityId> out;
  for (const std::string& key : BlockingKeys(probe, binding_, {})) {
    const std::string qualified = QualifiedKey(class_id, key);
    const BlockShard& shard = ShardOf(qualified);
    const auto it = shard.blocks.find(qualified);
    if (it == shard.blocks.end() ||
        static_cast<int>(it->second.size()) > max_block_size_) {
      continue;
    }
    for (const RefId smallest : it->second) {
      out.push_back(ref_to_entity_[smallest]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<EntityId> Snapshot::linked(EntityId id, int attr) const {
  std::vector<EntityId> out;
  const EntityInfo& info = *entities_[id];
  if (attr < 0 || attr >= static_cast<int>(info.link_refs.size())) return out;
  // Links to references past the dataset are dropped.
  for (const RefId target : info.link_refs[attr]) {
    if (target >= 0 && target < num_references_) {
      out.push_back(ref_to_entity_[target]);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::map<std::string, std::vector<EntityId>> Snapshot::Blocks() const {
  std::map<std::string, std::vector<EntityId>> out;
  for (const std::shared_ptr<const BlockShard>& shard : shards_) {
    for (const auto& [key, block] : shard->blocks) {
      if (static_cast<int>(block.size()) > max_block_size_) continue;
      std::vector<EntityId>& ids = out[key];
      for (const RefId smallest : block) {
        ids.push_back(ref_to_entity_[smallest]);
      }
    }
  }
  return out;
}

QueryResult Snapshot::Query(const ReconQuery& query,
                            BudgetTracker* budget) const {
  QueryResult result;
  const Schema& schema = *schema_;

  std::vector<int> class_ids;
  if (!query.type.empty()) {
    const int id = schema.FindClass(query.type);
    if (id < 0 || class_sims_[id] == nullptr) return result;
    class_ids.push_back(id);
  } else {
    for (int c = 0; c < schema.num_classes(); ++c) {
      if (class_sims_[c] != nullptr) class_ids.push_back(c);
    }
  }

  std::vector<ScoredCandidate> scored;
  for (const int class_id : class_ids) {
    const ClassDef& cls = schema.class_def(class_id);
    const int name_attr = NameAttribute(binding_, class_id);
    if (name_attr < 0) continue;

    // Probe reference: main text lands on the name-like attribute,
    // properties on their named attributes.
    Reference probe(class_id, cls.num_attributes());
    if (!query.text.empty()) probe.AddAtomicValue(name_attr, query.text);
    for (const auto& [attr_name, value] : query.properties) {
      const int attr = cls.FindAttribute(attr_name);
      if (attr < 0 || value.empty()) continue;
      // Association-attribute properties are matched against linked
      // entities below; only atomic values join the probe.
      if (cls.attributes[attr].kind == AttrKind::kAtomic) {
        probe.AddAtomicValue(attr, value);
      }
    }

    // Build the comparison plan: which evidence channels this class's
    // S_rv reads, mirroring the graph builder's pair staging.
    QueryPlan plan;
    plan.class_id = class_id;
    const SimParams& p = params_;
    auto add_atomic = [&](int evidence, double seed, int probe_attr,
                          int profile_attr, FeatureKind kind,
                          bool zero_rule) {
      if (probe_attr < 0 || profile_attr < 0) return;
      if (probe.atomic_values(probe_attr).empty()) return;
      AtomicChannel channel;
      channel.evidence = evidence;
      channel.seed = seed;
      channel.attr = profile_attr;
      channel.zero_when_dissimilar = zero_rule;
      AddQueryValues(&channel, kind, probe.atomic_values(probe_attr));
      plan.channels.push_back(std::move(channel));
    };
    if (class_id == binding_.person) {
      add_atomic(kEvPersonName, p.person_name_seed, binding_.person_name,
                 binding_.person_name, FeatureKind::kPersonName,
                 /*zero_rule=*/true);
      add_atomic(kEvPersonEmail, p.person_email_seed, binding_.person_email,
                 binding_.person_email, FeatureKind::kEmail,
                 /*zero_rule=*/false);
      // Cross-attribute name~email evidence, both directions.
      add_atomic(kEvPersonNameEmail, p.name_email_seed, binding_.person_name,
                 binding_.person_email, FeatureKind::kPersonName,
                 /*zero_rule=*/false);
      add_atomic(kEvPersonNameEmail, p.name_email_seed, binding_.person_email,
                 binding_.person_name, FeatureKind::kEmail,
                 /*zero_rule=*/false);
    } else if (class_id == binding_.article) {
      add_atomic(kEvArticleTitle, p.article_title_seed, binding_.article_title,
                 binding_.article_title, FeatureKind::kTitle,
                 /*zero_rule=*/false);
      add_atomic(kEvArticleYear, p.year_seed, binding_.article_year,
                 binding_.article_year, FeatureKind::kYear,
                 /*zero_rule=*/false);
      add_atomic(kEvArticlePages, p.pages_seed, binding_.article_pages,
                 binding_.article_pages, FeatureKind::kPages,
                 /*zero_rule=*/false);
    } else if (class_id == binding_.venue) {
      add_atomic(kEvVenueName, p.venue_name_seed, binding_.venue_name,
                 binding_.venue_name, FeatureKind::kVenueName,
                 /*zero_rule=*/false);
      add_atomic(kEvVenueYear, p.year_seed, binding_.venue_year,
                 binding_.venue_year, FeatureKind::kYear,
                 /*zero_rule=*/false);
      add_atomic(kEvVenueLocation, p.location_seed, binding_.venue_location,
                 binding_.venue_location, FeatureKind::kLocation,
                 /*zero_rule=*/false);
    }
    // Association properties (Article.authoredBy -> person names,
    // Article.publishedIn -> venue names): the online stand-in for the
    // graph's kEvArticleAuthors / kEvArticleVenue real-valued neighbors.
    for (const auto& [attr_name, value] : query.properties) {
      const int attr = cls.FindAttribute(attr_name);
      if (attr < 0 || value.empty()) continue;
      if (cls.attributes[attr].kind != AttrKind::kAssociation) continue;
      AssocChannel assoc;
      if (class_id == binding_.article && attr == binding_.article_authors) {
        assoc.evidence = kEvArticleAuthors;
        assoc.seed = p.person_name_seed;
        assoc.target_name_attr = binding_.person_name;
        assoc.features.push_back(
            AnalyzeValue(value, FeatureKind::kPersonName));
      } else if (class_id == binding_.article &&
                 attr == binding_.article_venue) {
        assoc.evidence = kEvArticleVenue;
        assoc.seed = p.venue_name_seed;
        assoc.target_name_attr = binding_.venue_name;
        assoc.features.push_back(AnalyzeValue(value, FeatureKind::kVenueName));
      } else {
        continue;
      }
      assoc.assoc_attr = attr;
      plan.assoc_channels.push_back(std::move(assoc));
    }

    const std::vector<EntityId> candidates =
        CandidateEntities(probe, class_id);

    for (const EntityId candidate : candidates) {
      if (budget != nullptr && budget->Probe(ProbePoint::kCandidates)) {
        result.degraded = true;
        break;
      }
      EvidenceSummary summary;
      const EntityInfo& info = *entities_[candidate];
      for (const AtomicChannel& channel : plan.channels) {
        const std::vector<std::string>& profile_values =
            info.profile.atomic_values(channel.attr);
        const std::vector<ValueFeatures>& profile_features =
            info.features[channel.attr];
        bool offered = false;
        for (size_t q = 0; q < channel.features.size(); ++q) {
          for (size_t v = 0; v < profile_values.size(); ++v) {
            const ValueFeatures& pf = profile_features[v];
            double sim;
            if (channel.raw[q] == profile_values[v]) {
              // Equal values are one graph element: full double precision.
              sim = FeaturePairSimilarity(channel.evidence,
                                          channel.features[q], pf);
            } else {
              // Non-equal pairs round through float, exactly as the batch
              // path's similarity memo stores them.
              sim = static_cast<float>(FeaturePairSimilarity(
                  channel.evidence, channel.features[q], pf));
              if (sim < channel.seed) continue;
            }
            summary.Offer(channel.evidence, sim);
            offered = true;
          }
        }
        if (channel.zero_when_dissimilar && !offered &&
            !channel.features.empty() && !profile_values.empty()) {
          summary.Offer(channel.evidence, 0.0);
        }
      }
      for (const AssocChannel& assoc : plan.assoc_channels) {
        for (const EntityId target : linked(candidate, assoc.assoc_attr)) {
          for (const ValueFeatures& pf :
               entities_[target]->features[assoc.target_name_attr]) {
            for (const ValueFeatures& qf : assoc.features) {
              const double sim = static_cast<float>(
                  FeaturePairSimilarity(assoc.evidence == kEvArticleAuthors
                                            ? kEvPersonName
                                            : kEvVenueName,
                                        qf, pf));
              if (sim >= assoc.seed) summary.Offer(assoc.evidence, sim);
            }
          }
        }
      }
      ScoredCandidate entry;
      entry.entity = candidate;
      entry.score = class_sims_[class_id]->Compute(summary);
      scored.push_back(entry);
      ++result.num_scored;
    }
    if (result.degraded) break;
  }

  // Highest score first; entity id breaks ties deterministically.
  std::stable_sort(scored.begin(), scored.end(),
                   [](const ScoredCandidate& a, const ScoredCandidate& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.entity < b.entity;
                   });
  int above_threshold = 0;
  for (const ScoredCandidate& c : scored) {
    if (c.score >= params_.merge_threshold) ++above_threshold;
  }
  const int limit = query.limit > 0 ? std::min(query.limit, 1000) : 10;
  if (static_cast<int>(scored.size()) > limit) scored.resize(limit);
  // Confident auto-match: the unique candidate at or over the merge
  // threshold (an ambiguous pair of high scorers is never auto-matched).
  if (!scored.empty() && above_threshold == 1 &&
      scored.front().score >= params_.merge_threshold) {
    scored.front().match = true;
  }
  result.candidates = std::move(scored);
  return result;
}


namespace {

/// Builds the EntityInfo of one cluster (`members` ascending).
std::shared_ptr<const EntityInfo> BuildEntity(const Dataset& dataset,
                                              std::vector<RefId> members,
                                              const SchemaBinding& binding,
                                              const ValueKindSchema& kinds) {
  const int class_id = dataset.reference(members.front()).class_id();
  const ClassDef& cls = dataset.schema().class_def(class_id);
  const int num_attrs = cls.num_attributes();
  auto info = std::make_shared<EntityInfo>(class_id, num_attrs);
  info->members = std::move(members);
  info->link_refs.resize(num_attrs);
  for (const RefId member : info->members) {
    const Reference& ref = dataset.reference(member);
    for (int attr = 0; attr < num_attrs; ++attr) {
      if (cls.attributes[attr].kind == AttrKind::kAtomic) {
        for (const std::string& value : ref.atomic_values(attr)) {
          info->profile.AddAtomicValue(attr, value);  // Dedups.
        }
      } else {
        const std::vector<RefId>& targets = ref.associations(attr);
        info->link_refs[attr].insert(info->link_refs[attr].end(),
                                     targets.begin(), targets.end());
      }
    }
  }
  for (std::vector<RefId>& targets : info->link_refs) {
    std::sort(targets.begin(), targets.end());
    targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  }

  const Reference& profile = info->profile;
  const int name_attr = NameAttribute(binding, class_id);
  if (name_attr >= 0) info->display_name = profile.FirstValue(name_attr);
  for (int attr = 0; attr < num_attrs && info->display_name.empty(); ++attr) {
    if (cls.attributes[attr].kind == AttrKind::kAtomic) {
      info->display_name = profile.FirstValue(attr);
    }
  }

  // Values are analyzed exactly as the graph builder analyzes them; only
  // the attributes queries and blocking read have a feature kind.
  int64_t bytes = static_cast<int64_t>(
      sizeof(EntityInfo) + info->members.size() * sizeof(RefId) +
      info->display_name.size());
  info->features.resize(num_attrs);
  for (int attr = 0; attr < num_attrs; ++attr) {
    bytes += static_cast<int64_t>(info->link_refs[attr].size() * sizeof(RefId));
    if (cls.attributes[attr].kind != AttrKind::kAtomic) continue;
    const FeatureKind kind = kinds.KindOf(ValueDomain{class_id, attr});
    for (const std::string& value : profile.atomic_values(attr)) {
      bytes += static_cast<int64_t>(sizeof(std::string) + value.size());
      if (kind == FeatureKind::kGeneric) continue;
      info->features[attr].push_back(AnalyzeValue(value, kind));
      bytes += info->features[attr].back().ApproximateBytes();
    }
  }
  for (const std::string& key :
       BlockingKeys(profile, binding, info->features)) {
    info->blocking_keys.push_back(QualifiedKey(class_id, key));
    bytes += static_cast<int64_t>(sizeof(std::string) +
                                  info->blocking_keys.back().size());
  }
  info->approximate_bytes = bytes;
  return info;
}

/// Estimated heap cost of one index key beside its block entries.
constexpr int64_t kIndexKeyBytes = 64;

}  // namespace

std::shared_ptr<const Snapshot> BuildSnapshot(
    const Dataset& dataset, const std::vector<int>& clusters,
    const ReconcilerOptions& options, uint64_t generation,
    const Snapshot* previous) {
  const int n = dataset.num_references();
  RECON_CHECK(static_cast<int>(clusters.size()) == n)
      << "clusters/dataset size mismatch";
  const int prev_n = previous != nullptr ? previous->num_references_ : 0;
  RECON_CHECK(prev_n <= n) << "previous snapshot is not of a dataset prefix";

  auto snap = std::make_shared<Snapshot>();
  snap->generation_ = generation;
  snap->num_references_ = n;
  snap->params_ = options.params;
  snap->max_block_size_ = options.max_block_size;
  snap->schema_ = previous != nullptr
                      ? previous->schema_
                      : std::make_shared<const Schema>(dataset.schema());
  snap->binding_ = SchemaBinding::Resolve(dataset.schema());
  const Schema& schema = *snap->schema_;

  // One entity per cluster, in the order of the clusters' smallest
  // members, so ids are deterministic.
  std::vector<EntityId>& entity_of = snap->ref_to_entity_;
  entity_of.resize(n);
  std::vector<RefId> smallest;
  for (RefId r = 0; r < n; ++r) {
    const int label = clusters[r];
    RECON_CHECK(label >= 0 && label <= r && clusters[label] == label)
        << "clusters must label each reference with its cluster's smallest "
           "member";
    if (label == r) {
      entity_of[r] = static_cast<EntityId>(smallest.size());
      smallest.push_back(r);
    } else {
      entity_of[r] = entity_of[label];
    }
  }
  const int num_entities = static_cast<int>(smallest.size());

  // An entity keeps its previous EntityInfo when its member set is
  // unchanged: every member was in the previous snapshot, in the entity
  // named by the same smallest member, and the sizes agree.
  std::vector<int32_t> size(num_entities, 0);
  std::vector<char> same(num_entities, previous != nullptr);
  for (RefId r = 0; r < n; ++r) {
    const EntityId e = entity_of[r];
    ++size[e];
    if (same[e] && (r >= prev_n || previous->ref_to_entity_[r] !=
                                       previous->ref_to_entity_[clusters[r]])) {
      same[e] = 0;
    }
  }
  std::vector<char> prev_kept(
      previous != nullptr ? previous->entities_.size() : 0, 0);
  snap->entities_.resize(num_entities);
  std::vector<EntityId> rebuilt;
  for (EntityId e = 0; e < num_entities; ++e) {
    if (same[e]) {
      const EntityId p = previous->ref_to_entity_[smallest[e]];
      if (static_cast<int>(previous->entities_[p]->members.size()) ==
          size[e]) {
        snap->entities_[e] = previous->entities_[p];
        prev_kept[p] = 1;
        continue;
      }
    }
    rebuilt.push_back(e);
  }
  snap->entities_rebuilt_ = static_cast<int>(rebuilt.size());

  // Build the changed entities.
  std::vector<std::vector<RefId>> members(rebuilt.size());
  {
    std::vector<int32_t> slot(num_entities, -1);
    for (size_t i = 0; i < rebuilt.size(); ++i) {
      slot[rebuilt[i]] = static_cast<int32_t>(i);
      members[i].reserve(size[rebuilt[i]]);
    }
    for (RefId r = 0; r < n; ++r) {
      const int32_t i = slot[entity_of[r]];
      if (i >= 0) members[i].push_back(r);
    }
  }
  const ValueKindSchema kinds = MakeValueKindSchema(snap->binding_);
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    snap->entities_[rebuilt[i]] =
        BuildEntity(dataset, std::move(members[i]), snap->binding_, kinds);
  }

  // Candidate index. Start from the previous generation's shards and
  // apply the entities that left and the ones built, copying each shard on
  // its first write. Without a usable previous index (none, another block
  // cap, or a corpus that outgrew the shard count) start from empty shards
  // with every entity added.
  std::vector<const EntityInfo*> removed;
  std::vector<const EntityInfo*> added;
  int64_t key_entries = 0;
  for (const EntityId e : rebuilt) {
    added.push_back(snap->entities_[e].get());
    key_entries += static_cast<int64_t>(added.back()->blocking_keys.size());
  }
  const bool reuse_index =
      previous != nullptr &&
      previous->max_block_size_ == snap->max_block_size_ &&
      previous->num_index_keys_ + key_entries <=
          8 * static_cast<int64_t>(previous->shards_.size());
  if (reuse_index) {
    for (size_t p = 0; p < prev_kept.size(); ++p) {
      if (!prev_kept[p]) removed.push_back(previous->entities_[p].get());
    }
    snap->shards_ = previous->shards_;
    snap->num_index_keys_ = previous->num_index_keys_;
    snap->num_blocking_keys_ = previous->num_blocking_keys_;
    snap->index_bytes_ = previous->index_bytes_;
  } else {
    added.clear();
    key_entries = 0;
    for (const std::shared_ptr<const EntityInfo>& info : snap->entities_) {
      added.push_back(info.get());
      key_entries += static_cast<int64_t>(info->blocking_keys.size());
    }
    // About two keys per shard at first; reused until eight.
    const size_t num_shards = std::bit_ceil(
        static_cast<size_t>(std::max<int64_t>(64, key_entries / 2)));
    snap->shards_.assign(num_shards,
                         std::make_shared<const Snapshot::BlockShard>());
  }
  std::vector<Snapshot::BlockShard*> writable(snap->shards_.size(), nullptr);
  const size_t shard_mask = snap->shards_.size() - 1;
  const int64_t cap = snap->max_block_size_;
  auto update_block = [&](const std::string& key, RefId name, bool add) {
    const size_t s = std::hash<std::string>{}(key) & shard_mask;
    if (writable[s] == nullptr) {
      auto copy = std::make_shared<Snapshot::BlockShard>(*snap->shards_[s]);
      writable[s] = copy.get();
      snap->shards_[s] = std::move(copy);
    }
    auto& blocks = writable[s]->blocks;
    auto [it, inserted] = blocks.try_emplace(key);
    std::vector<RefId>& block = it->second;
    auto live = [cap](const std::vector<RefId>& b) {
      return !b.empty() && static_cast<int64_t>(b.size()) <= cap;
    };
    snap->num_blocking_keys_ -= live(block);
    const auto pos = std::lower_bound(block.begin(), block.end(), name);
    if (add) {
      block.insert(pos, name);
    } else {
      RECON_CHECK(pos != block.end() && *pos == name)
          << "index lost an entity";
      block.erase(pos);
    }
    const int64_t entry_bytes = sizeof(RefId);
    snap->index_bytes_ += add ? entry_bytes : -entry_bytes;
    snap->num_blocking_keys_ += live(block);
    if (inserted) {
      ++snap->num_index_keys_;
      snap->index_bytes_ += kIndexKeyBytes + static_cast<int64_t>(key.size());
    } else if (block.empty()) {
      blocks.erase(it);
      --snap->num_index_keys_;
      snap->index_bytes_ -= kIndexKeyBytes + static_cast<int64_t>(key.size());
    }
  };
  for (const EntityInfo* info : removed) {
    for (const std::string& key : info->blocking_keys) {
      update_block(key, info->members.front(), /*add=*/false);
    }
  }
  for (const EntityInfo* info : added) {
    for (const std::string& key : info->blocking_keys) {
      update_block(key, info->members.front(), /*add=*/true);
    }
  }

  // Similarity functions for the classes the binding knows.
  snap->class_sims_ =
      MakeClassSimilarities(schema, snap->binding_, options.params);

  // Rough footprint for /stats: entity records, index, dense tables.
  int64_t bytes = snap->index_bytes_;
  for (const std::shared_ptr<const EntityInfo>& info : snap->entities_) {
    bytes += info->approximate_bytes;
  }
  bytes += static_cast<int64_t>(snap->ref_to_entity_.size() *
                                sizeof(EntityId));
  snap->approximate_bytes_ = bytes;
  return snap;
}

}  // namespace recon::service
