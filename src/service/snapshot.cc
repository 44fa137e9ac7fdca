#include "service/snapshot.h"

#include <algorithm>
#include <bit>
#include <span>
#include <utility>

#include "core/candidates.h"
#include "sim/params.h"
#include "util/logging.h"

namespace recon::service {

namespace {

/// Class-qualified blocking key: keys of different classes never share a
/// block (a "wong" name token must not pull venue candidates).
std::string QualifiedKey(int class_id, const std::string& key) {
  return std::to_string(class_id) + '|' + key;
}

/// The name-like attribute of a class (what the main query text targets):
/// its first channel row's attr_a, or -1 without rows.
int NameAttribute(std::span<const AtomicChannel> channels, int class_id) {
  const std::span<const AtomicChannel> rows = ClassChannels(channels, class_id);
  return rows.empty() ? -1 : rows.front().attr_a;
}

/// One direction of an atomic channel row: the query's `probe_attr`
/// values against the candidate profile's `profile_attr` values.
struct QueryChannel {
  const AtomicChannel* row = nullptr;
  int probe_attr = -1;
  int profile_attr = -1;
};

/// An association channel: a query string against the names of the
/// entities the candidate is linked to via `assoc_attr`, compared on the
/// linked class's name row.
struct AssocChannel {
  int evidence = 0;
  int assoc_attr = -1;
  const AtomicChannel* target_name = nullptr;
  ValueFeatures features;
};

}  // namespace

std::vector<EntityId> Snapshot::CandidateEntities(
    const Reference& probe,
    const std::vector<std::vector<ValueFeatures>>& features,
    int class_id) const {
  std::vector<EntityId> out;
  for (const std::string& key : BlockingKeys(probe, binding_, features)) {
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
    const std::span<const AtomicChannel> rows =
        ClassChannels(channels_, class_id);
    if (rows.empty()) continue;

    // Probe reference: main text lands on the name-like attribute,
    // properties on their named attributes.
    Reference probe(class_id, cls.num_attributes());
    if (!query.text.empty()) {
      probe.AddAtomicValue(rows.front().attr_a, query.text);
    }
    for (const auto& [attr_name, value] : query.properties) {
      const int attr = cls.FindAttribute(attr_name);
      if (attr < 0 || value.empty()) continue;
      // Association-attribute properties are matched against linked
      // entities below; only atomic values join the probe.
      if (cls.attributes[attr].kind == AttrKind::kAtomic) {
        probe.AddAtomicValue(attr, value);
      }
    }
    const std::vector<std::vector<ValueFeatures>> features =
        AnalyzeValues(probe, kinds_);

    // The comparison plan: both directions of the class's channel rows
    // where the query has values. Queries compare the gated rows too.
    std::vector<QueryChannel> channels;
    auto add_direction = [&](const AtomicChannel& row, int probe_attr,
                             int profile_attr) {
      if (!probe.atomic_values(probe_attr).empty()) {
        channels.push_back({&row, probe_attr, profile_attr});
      }
    };
    for (const AtomicChannel& row : rows) {
      add_direction(row, row.attr_a, row.attr_b);
      if (row.cross()) add_direction(row, row.attr_b, row.attr_a);
    }
    // Association properties (Article.authoredBy -> person names,
    // Article.publishedIn -> venue names): the online stand-in for the
    // graph's kEvArticleAuthors / kEvArticleVenue real-valued neighbors,
    // which the graph build wires only from kArticle up.
    std::vector<AssocChannel> assoc_channels;
    const bool wired = class_id == binding_.article &&
                       evidence_level_ >= EvidenceLevel::kArticle;
    for (const auto& [attr_name, value] : query.properties) {
      const int attr = cls.FindAttribute(attr_name);
      if (attr < 0 || value.empty() || !wired) continue;
      AssocChannel assoc;
      int target_class = -1;
      if (attr == binding_.article_authors) {
        assoc.evidence = kEvArticleAuthors;
        target_class = binding_.person;
      } else if (attr == binding_.article_venue) {
        assoc.evidence = kEvArticleVenue;
        target_class = binding_.venue;
      } else {
        continue;
      }
      const std::span<const AtomicChannel> target =
          ClassChannels(channels_, target_class);
      if (target.empty()) continue;
      assoc.assoc_attr = attr;
      assoc.target_name = &target.front();
      assoc.features = AnalyzeValue(
          value, kinds_.KindOf(ValueDomain{target_class,
                                           assoc.target_name->attr_a}));
      assoc_channels.push_back(std::move(assoc));
    }

    const std::vector<EntityId> candidates =
        CandidateEntities(probe, features, class_id);

    for (const EntityId candidate : candidates) {
      if (budget != nullptr && budget->Probe(ProbePoint::kCandidates)) {
        result.degraded = true;
        break;
      }
      EvidenceSummary summary;
      const EntityInfo& info = *entities_[candidate];
      for (const QueryChannel& channel : channels) {
        const AtomicChannel& row = *channel.row;
        const std::vector<std::string>& query_values =
            probe.atomic_values(channel.probe_attr);
        const std::vector<ValueFeatures>& query_features =
            features[channel.probe_attr];
        const std::vector<std::string>& profile_values =
            info.profile.atomic_values(channel.profile_attr);
        const std::vector<ValueFeatures>& profile_features =
            info.features[channel.profile_attr];
        bool offered = false;
        for (size_t q = 0; q < query_values.size(); ++q) {
          for (size_t v = 0; v < profile_values.size(); ++v) {
            // Every pair rounds through float, exactly as the batch path's
            // similarity memo and static evidence store it. Equal values
            // are one graph element and skip the seed check.
            const float sim = static_cast<float>(FeaturePairSimilarity(
                row.evidence, query_features[q], profile_features[v]));
            if (sim < row.seed && query_values[q] != profile_values[v]) {
              continue;
            }
            summary.Offer(row.evidence, sim);
            offered = true;
          }
        }
        if (row.zero_when_dissimilar && !offered && !profile_values.empty()) {
          summary.Offer(row.evidence, 0.0f);
        }
      }
      for (const AssocChannel& assoc : assoc_channels) {
        const AtomicChannel& name = *assoc.target_name;
        for (const EntityId target : linked(candidate, assoc.assoc_attr)) {
          for (const ValueFeatures& pf :
               entities_[target]->features[name.attr_a]) {
            const float sim = static_cast<float>(
                FeaturePairSimilarity(name.evidence, assoc.features, pf));
            if (sim >= name.seed) summary.Offer(assoc.evidence, sim);
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
    if (c.score >= kSimParams.merge_threshold) ++above_threshold;
  }
  const int limit = query.limit > 0 ? std::min(query.limit, 1000) : 10;
  if (static_cast<int>(scored.size()) > limit) scored.resize(limit);
  // Confident auto-match: the unique candidate at or over the merge
  // threshold (an ambiguous pair of high scorers is never auto-matched).
  if (!scored.empty() && above_threshold == 1 &&
      scored.front().score >= kSimParams.merge_threshold) {
    scored.front().match = true;
  }
  result.candidates = std::move(scored);
  return result;
}


namespace {

/// Builds the EntityInfo of one cluster (`members` ascending).
std::shared_ptr<const EntityInfo> BuildEntity(
    const Dataset& dataset, std::vector<RefId> members,
    const SchemaBinding& binding, const ValueKindSchema& kinds,
    std::span<const AtomicChannel> channels) {
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
  const int name_attr = NameAttribute(channels, class_id);
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
  info->features = AnalyzeValues(profile, kinds);
  for (int attr = 0; attr < num_attrs; ++attr) {
    bytes += static_cast<int64_t>(info->link_refs[attr].size() * sizeof(RefId));
    for (const std::string& value : profile.atomic_values(attr)) {
      bytes += static_cast<int64_t>(sizeof(std::string) + value.size());
    }
    for (const ValueFeatures& f : info->features[attr]) {
      bytes += f.ApproximateBytes();
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
  snap->max_block_size_ = options.max_block_size;
  snap->schema_ = previous != nullptr
                      ? previous->schema_
                      : std::make_shared<const Schema>(dataset.schema());
  snap->binding_ = SchemaBinding::Resolve(dataset.schema());
  snap->kinds_ = MakeValueKindSchema(snap->binding_);
  snap->evidence_level_ = options.evidence_level;
  snap->channels_ = AtomicChannels(snap->binding_, options.evidence_level);
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
  for (size_t i = 0; i < rebuilt.size(); ++i) {
    snap->entities_[rebuilt[i]] =
        BuildEntity(dataset, std::move(members[i]), snap->binding_,
                    snap->kinds_, snap->channels_);
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
  snap->class_sims_ = MakeClassSimilarities(schema, snap->binding_);

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
