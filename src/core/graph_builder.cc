#include "core/graph_builder.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/candidates.h"
#include "runtime/parallel.h"
#include "sim/comparators.h"
#include "sim/evidence.h"
#include "sim/value_store.h"
#include "strsim/email.h"
#include "strsim/person_name.h"
#include "strsim/signature.h"
#include "strsim/simd_dispatch.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace recon {

namespace {

/// Feature kinds for every bound atomic attribute, so the ValueStore knows
/// how to analyze each domain without depending on SchemaBinding itself.
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

/// Evidence staged for one candidate reference pair before its node is
/// created (the node is only created when some evidence exists).
struct StagedEvidence {
  struct ValueNodeSpec {
    ValueId v1;
    ValueId v2;
    double sim;
    int evidence;
    /// Reference-pair merge marks this value pair merged (venue names).
    bool propagate_merge;
  };
  std::vector<ValueNodeSpec> value_nodes;
  std::vector<std::pair<int, double>> statics;  // (evidence, sim)
  bool empty() const { return value_nodes.empty() && statics.empty(); }
};

/// One candidate pair's staged comparison result. Staging is read-only
/// against the dataset and value pool, so pairs are staged in parallel; the
/// graph mutations they imply are applied serially, in candidate order.
struct StagedPair {
  RefId r1 = kInvalidRef;
  RefId r2 = kInvalidRef;
  int class_id = -1;
  bool non_merge = false;
  StagedEvidence evidence;
};

/// A person name analyzed once on the raw fallback path: the parse plus the
/// lowercased raw form (the identical-abbreviation check needs the latter).
struct FallbackName {
  strsim::PersonName name;
  std::string lower;
};

/// Per-lane staging scratch. Caches only affect speed, never values: a
/// cache hit returns exactly what the comparator would have computed. The
/// counters feed ReconcileStats and are accumulated serially in lane order
/// after staging, so totals are deterministic.
struct StageScratch {
  std::unordered_map<std::string, FallbackName> name_cache;
  std::unordered_map<std::string, strsim::EmailAddress> email_cache;
  std::unordered_map<MemoKey, float, MemoKeyHash> sim_cache;
  int64_t pair_comparisons = 0;
  int64_t value_analyses = 0;
  int64_t memo_hits = 0;
  int64_t memo_misses = 0;
  int64_t prefilter_skips = 0;
  int64_t prefilter_exact = 0;
};

/// Staged pairs are applied (and association wiring probed) in chunks of
/// this many items; each chunk boundary is one kBuild budget probe.
constexpr int64_t kBuildChunk = 256;

// ---- Blocked batch scoring (store-on path; DESIGN.md §16) ---------------
//
// With the value store on, lanes no longer score pair-at-a-time. Each lane
// gathers the ValueId cross products of up to kScoreBlock candidate pairs
// into per-evidence task arrays (scratch reused across the lane's blocks —
// zero steady-state allocation), sweeps each evidence kind over the whole
// block (title tasks pass the signature prefilter first, skipping pairs
// that provably cannot reach the seed), and then assembles every pair's
// StagedEvidence in exactly the order the per-pair path produces. The
// gated article/venue secondary channels gather in a second wave after
// wave-1 assembly, so the "primary evidence required" semantics and the
// comparison counts are unchanged. Byte-identical by construction.

constexpr int kScoreBlock = 256;

/// One cross-product comparison gathered for a block sweep.
struct SimTask {
  ValueId v1 = kInvalidValue;
  ValueId v2 = kInvalidValue;
  float memo_sim = 0;     ///< Non-static result (memo float rounding).
  double static_sim = 0;  ///< v1 == v2 result at double precision.
  bool is_static = false;
  bool skipped = false;   ///< Title prefilter: provably below seed.
};

/// Half-open range into a per-evidence task array.
struct TaskRange {
  int32_t begin = 0;
  int32_t end = 0;
};

/// Wave-1 gather record for one candidate pair in a block.
struct PairPlan {
  int64_t out_index = -1;  ///< Position in the staged[] array.
  RefId r1 = kInvalidRef;
  RefId r2 = kInvalidRef;
  int class_id = -1;
  TaskRange name, email, ne_ab, ne_ba;  ///< Person channels.
  TaskRange primary;                    ///< Article title / venue name.
  TaskRange secondary1, secondary2;     ///< Year+pages / year+location.
  bool both_have_names = false;
};

/// Per-lane batch scratch: task arrays per evidence kind, the block's
/// pair plans, and the flat signature words the prefilter sweep XORs.
struct BatchLane {
  std::vector<SimTask> tasks[kNumEvidence];
  std::vector<PairPlan> plan;
  std::vector<uint64_t> gram_a, gram_b, tok_a, tok_b;
  std::vector<int32_t> gram_pop, tok_pop, title_task;
};

class GraphBuilder {
 public:
  GraphBuilder(const Dataset& dataset, const ReconcilerOptions& options,
               BudgetTracker* budget, const BuildOverrides& overrides = {})
      : dataset_(dataset),
        options_(options),
        overrides_(overrides),
        binding_(SchemaBinding::Resolve(dataset.schema())),
        own_budget_(budget == nullptr
                        ? std::make_unique<BudgetTracker>(Budget{})
                        : nullptr),
        budget_(budget != nullptr ? budget : own_budget_.get()) {}

  BuiltGraph Build() {
    BuiltGraph out;
    out.binding = binding_;
    out.graph = std::make_unique<DependencyGraph>(dataset_.num_references());
    graph_ = out.graph.get();
    values_ = &out.values;
    built_ = &out;
    if (options_.value_store) {
      out.feature_store =
          std::make_shared<ValueStore>(MakeValueKindSchema(binding_));
      out.sim_memo = std::make_shared<SimMemo>();
    }
    store_ = out.feature_store.get();
    memo_ = out.sim_memo.get();
    ConfigureMemoBudget();

    // Values are interned up front (serially, in reference order — an order
    // fixed regardless of thread count, so ValueIds are stable) and
    // analyzed once each, so candidate generation and the comparison stage
    // are read-only against the pool and the store and can fan out across
    // threads. Interning probes no budget, so the probe sequence is
    // unchanged by the store being on or off.
    InternAtomicValues(/*first_ref=*/0);
    if (store_ != nullptr) store_->Sync(*values_);

    CandidateList generated;
    if (overrides_.candidates == nullptr) {
      generated = GenerateCandidates(dataset_, binding_, options_, budget_,
                                     values_, store_);
    }
    const CandidateList& candidates =
        overrides_.candidates != nullptr ? *overrides_.candidates : generated;
    out.num_candidates = static_cast<int>(candidates.size());

    // Step 1 (§3.1): atomic-attribute comparison, node seeding, and
    // constraint marking. Sizing the CSR pools from the candidate count
    // up front cuts rehash and relocation churn during the apply loop.
    graph_->ReserveBuild(candidates.size());
    SeedPairs(candidates);
    // Constraint 1: authors of one article are distinct persons. Creates
    // non-merge nodes even where no atomic similarity exists (§3.4).
    if (options_.constraints) {
      MarkCoAuthorConstraints(/*first_ref=*/0);
    }

    // User feedback (§7): confirmed matches and non-matches become forced
    // and non-merge nodes respectively.
    ApplyFeedback();

    // Step 2 (§3.1): association dependencies between existing nodes.
    WireAssociations(/*start_node=*/0);

    // The graph shape is now settled for the solve: pack the CSR pools
    // tight (folds and solver delta pushes mutate in place from here).
    graph_->Compact();

    // Initial queue: venues, then persons, then articles, then the rest.
    BuildInitialQueue(/*start_node=*/0, &out.initial_queue);

    // Class similarity functions.
    out.class_sims.resize(dataset_.schema().num_classes());
    if (binding_.person >= 0) {
      out.class_sims[binding_.person] =
          MakeClassSimilarity("Person", options_.params);
    }
    if (binding_.article >= 0) {
      out.class_sims[binding_.article] =
          MakeClassSimilarity("Article", options_.params);
    }
    if (binding_.venue >= 0) {
      out.class_sims[binding_.venue] =
          MakeClassSimilarity("Venue", options_.params);
    }
    return out;
  }

  /// Incremental extension: seeds `pairs` into `built`, applies co-author
  /// constraints for references >= first_new_ref, wires associations of
  /// the new nodes, and returns them in processing order.
  std::vector<NodeId> Extend(
      const std::vector<std::pair<RefId, RefId>>& pairs, RefId first_new_ref,
      BuiltGraph& built) {
    graph_ = built.graph.get();
    values_ = &built.values;
    binding_ = built.binding;
    built_ = &built;
    store_ = built.feature_store.get();
    memo_ = built.sim_memo.get();
    ConfigureMemoBudget();
    built.num_candidates += static_cast<int>(pairs.size());

    const NodeId start_node = graph_->num_nodes();
    InternAtomicValues(first_new_ref);
    if (store_ != nullptr) store_->Sync(*values_);
    graph_->ReserveBuild(pairs.size());
    SeedPairs(pairs);
    if (options_.constraints) MarkCoAuthorConstraints(first_new_ref);
    WireAssociations(start_node);

    // Extension appends fragment the shared buffers (relocations leave
    // garbage). Repack a pool only once its garbage outweighs its live
    // data, and keep every capacity: a full Compact() per flush would cost
    // the whole graph, twice over with the regrowth the next flush pays.
    graph_->CompactFragmented();

    std::vector<NodeId> new_queue;
    BuildInitialQueue(start_node, &new_queue);
    return new_queue;
  }

 private:
  // ---- Step 1: atomic comparisons ---------------------------------------

  /// Interns every atomic value staging will look up, in (reference, field,
  /// value) order — an order fixed regardless of thread count, so ValueIds
  /// are stable across runs and thread counts.
  void InternAtomicValues(RefId first_ref) {
    for (RefId id = first_ref; id < dataset_.num_references(); ++id) {
      const Reference& r = dataset_.reference(id);
      const int class_id = r.class_id();
      auto intern_field = [&](int owner_class, int attr) {
        if (owner_class < 0 || attr < 0 || class_id != owner_class) return;
        for (const std::string& raw : r.atomic_values(attr)) {
          values_->Intern(ValueDomain{owner_class, attr}, raw);
        }
      };
      intern_field(binding_.person, binding_.person_name);
      intern_field(binding_.person, binding_.person_email);
      intern_field(binding_.article, binding_.article_title);
      intern_field(binding_.article, binding_.article_year);
      intern_field(binding_.article, binding_.article_pages);
      intern_field(binding_.venue, binding_.venue_name);
      intern_field(binding_.venue, binding_.venue_year);
      intern_field(binding_.venue, binding_.venue_location);
    }
  }

  /// Stages every pair — in parallel when options_.num_threads allows it —
  /// then applies the staged graph mutations serially in pair order, so
  /// the resulting graph is identical to seeding one pair at a time. A
  /// budget stop truncates the apply loop at a chunk boundary: the graph
  /// then holds a prefix of the canonical pair order, which is
  /// structurally consistent (every applied pair is complete).
  void SeedPairs(const std::vector<std::pair<RefId, RefId>>& pairs) {
    const int64_t n = static_cast<int64_t>(pairs.size());
    std::vector<StagedPair> staged(pairs.size());
    StageBlocked(pairs, &staged);
    if (store_ != nullptr) {
      built_->num_value_analyses = store_->num_analyses();
    }
    for (int64_t i = 0; i < n; ++i) {
      if (i % kBuildChunk == 0) {
        ReportGraphMemory();
        if (budget_->Probe(ProbePoint::kBuild)) return;
      }
      ApplyStagedPair(staged[i]);
    }
    ReportGraphMemory();
  }

  /// Blocked lanes over the candidate order.
  void StageBlocked(const std::vector<std::pair<RefId, RefId>>& pairs,
                    std::vector<StagedPair>* staged) {
    const int64_t n = static_cast<int64_t>(pairs.size());
    const runtime::BlockPlan plan =
        runtime::PlanBlocks(options_.num_threads, 0, n, /*grain=*/0);
    std::vector<StageScratch> scratch(plan.num_lanes);
    std::vector<BatchLane> batch(store_ != nullptr ? plan.num_lanes : 0);
    runtime::ParallelForBlocked(
        options_.num_threads, 0, n, plan.grain,
        [&](const runtime::Block& block) {
          StageScratch& lane_scratch = scratch[block.lane];
          if (store_ != nullptr) {
            StageSpanBatched(pairs, block.begin, block.end, lane_scratch,
                             batch[block.lane], staged);
            return;
          }
          for (int64_t i = block.begin; i < block.end; ++i) {
            // A default-constructed StagedPair applies as a no-op, so
            // abandoning a block mid-way (cancel / deadline already
            // decided the run) leaves `staged` safe to consume.
            if ((i - block.begin) % 64 == 0 &&
                budget_->ShouldAbandonParallelWork()) {
              return;
            }
            StagePair(pairs[i].first, pairs[i].second, lane_scratch,
                      &(*staged)[i]);
          }
        });
    budget_->ResolveAsyncStop();
    // Serial, lane-order accumulation keeps the totals deterministic. With
    // the store on, analyses happen in Sync (one per distinct value), so
    // the cumulative store count is authoritative instead of the lanes.
    for (const StageScratch& lane : scratch) {
      built_->num_pair_comparisons += lane.pair_comparisons;
      built_->num_value_analyses += lane.value_analyses;
      built_->num_sim_memo_hits += lane.memo_hits;
      built_->num_sim_memo_misses += lane.memo_misses;
      built_->num_prefilter_skips += lane.prefilter_skips;
      built_->num_prefilter_exact += lane.prefilter_exact;
    }
  }

  void StagePair(RefId r1, RefId r2, StageScratch& scratch,
                 StagedPair* out) const {
    out->r1 = r1;
    out->r2 = r2;
    out->class_id = dataset_.reference(r1).class_id();
    if (out->class_id == binding_.person) {
      StagePerson(r1, r2, scratch, &out->evidence, &out->non_merge);
    } else if (out->class_id == binding_.article) {
      StageArticle(r1, r2, scratch, &out->evidence);
    } else if (out->class_id == binding_.venue) {
      StageVenue(r1, r2, scratch, &out->evidence);
    }
  }

  void ApplyStagedPair(const StagedPair& pair) {
    if (pair.evidence.empty() && !pair.non_merge) return;

    const NodeId m = graph_->AddRefPairNode(pair.class_id, pair.r1, pair.r2);
    if (pair.non_merge) {
      // The evidence nodes are still attached below — the paper keeps
      // constrained pairs in the graph with their similarities ("we also
      // include nodes whose elements are ensured to be distinct"), which
      // is why Table 6 reports *more* nodes with constraints on. The
      // non-merge state keeps the pair out of the queue regardless.
      // SetNodeState keeps dependent evidence caches honest when an
      // incremental extension demotes an existing node.
      graph_->SetNodeState(m, NodeState::kNonMerge);
    }
    for (const auto& [evidence, sim] : pair.evidence.statics) {
      graph_->AddStaticReal(m, evidence, sim);
    }
    for (const auto& spec : pair.evidence.value_nodes) {
      const NodeState state = (spec.sim >= options_.params.value_merge_threshold)
                                  ? NodeState::kMerged
                                  : NodeState::kInactive;
      const NodeId n =
          graph_->AddValuePairNode(spec.v1, spec.v2, spec.sim, state);
      graph_->AddEdge(n, m, DependencyKind::kRealValued, spec.evidence);
      if (spec.propagate_merge) {
        graph_->AddEdge(m, n, DependencyKind::kStrongBoolean, spec.evidence);
      }
    }
  }

  /// Compares the cross product of two value sets, staging static evidence
  /// for equal values and value nodes for pairs at or above `seed`.
  /// Read-only: values were interned (and analyzed) by InternAtomicValues /
  /// Sync, so the pool lookups always hit. With the store on, scoring runs
  /// over precomputed features through the shared memo; `raw_comparator`
  /// (a double(const std::string&, const std::string&) callable) is the
  /// fallback used when the store is off. Both paths round non-equal pair
  /// similarities through float, so results are byte-identical.
  template <typename RawComparator>
  void StageAtomic(const std::vector<std::string>& values1,
                   const std::vector<std::string>& values2,
                   ValueDomain domain1, ValueDomain domain2, int evidence,
                   double seed, bool propagate_merge,
                   RawComparator raw_comparator, StageScratch& scratch,
                   StagedEvidence* staged) const {
    for (const std::string& raw1 : values1) {
      const ValueId v1 = values_->Find(domain1, raw1);
      RECON_CHECK_NE(v1, kInvalidValue);
      for (const std::string& raw2 : values2) {
        const ValueId v2 = values_->Find(domain2, raw2);
        RECON_CHECK_NE(v2, kInvalidValue);
        ++scratch.pair_comparisons;
        if (v1 == v2) {
          // Equal interned values score at full double precision (they are
          // one element of the graph; the 1.0-equality shortcut paths in
          // the comparators make this exact anyway).
          const double sim =
              (store_ != nullptr)
                  ? FeaturePairSimilarity(evidence, store_->features(v1),
                                          store_->features(v2))
                  : raw_comparator(raw1, raw2);
          staged->statics.emplace_back(evidence, sim);
          continue;
        }
        double sim;
        if (store_ != nullptr) {
          sim = memo_->LookupOrCompute(
              evidence, v1, v2,
              [&] {
                return FeaturePairSimilarity(evidence, store_->features(v1),
                                             store_->features(v2));
              },
              &scratch.memo_hits, &scratch.memo_misses);
        } else {
          sim = CachedSim(evidence, v1, v2, raw1, raw2, raw_comparator,
                          scratch);
        }
        if (sim >= seed) {
          staged->value_nodes.push_back(
              {v1, v2, sim, evidence, propagate_merge});
        }
      }
    }
  }

  void StagePerson(RefId r1, RefId r2, StageScratch& scratch,
                   StagedEvidence* staged, bool* non_merge) const {
    const Reference& a = dataset_.reference(r1);
    const Reference& b = dataset_.reference(r2);
    const SimParams& p = options_.params;

    const ValueDomain name_domain{binding_.person, binding_.person_name};
    const ValueDomain email_domain{binding_.person, binding_.person_email};

    // Raw fallback comparators (store off): each side is analyzed once per
    // lane and reused across pairs instead of re-parsed per pair.
    auto raw_person_name = [&](const std::string& x, const std::string& y) {
      const FallbackName& fx = ParsedName(x, scratch);
      const FallbackName& fy = ParsedName(y, scratch);
      return PersonNameFieldSimilarity(fx.name, fx.lower, fy.name, fy.lower);
    };
    auto raw_email = [&](const std::string& x, const std::string& y) {
      return strsim::EmailSimilarity(ParsedEmail(x, scratch),
                                     ParsedEmail(y, scratch));
    };
    auto raw_name_email = [&](const std::string& x, const std::string& y) {
      return NameEmailFieldSimilarity(ParsedName(x, scratch).name,
                                      ParsedEmail(y, scratch));
    };

    bool shared_email = false;
    if (binding_.person_name >= 0) {
      StageAtomic(a.atomic_values(binding_.person_name),
                  b.atomic_values(binding_.person_name), name_domain,
                  name_domain, kEvPersonName, p.person_name_seed,
                  /*propagate_merge=*/false, raw_person_name,
                  scratch, staged);
      // Both sides carry names but none were even seed-similar: record
      // explicit zero evidence. Dissimilar names are soft negative
      // evidence — the name channel must not read as "unknown".
      const bool both_have_names =
          !a.atomic_values(binding_.person_name).empty() &&
          !b.atomic_values(binding_.person_name).empty();
      if (both_have_names) {
        bool any_name_evidence = false;
        for (const auto& [evidence, sim] : staged->statics) {
          if (evidence == kEvPersonName) any_name_evidence = true;
        }
        for (const auto& spec : staged->value_nodes) {
          if (spec.evidence == kEvPersonName) any_name_evidence = true;
        }
        if (!any_name_evidence) {
          staged->statics.emplace_back(kEvPersonName, 0.0);
        }
      }
    }
    if (binding_.person_email >= 0) {
      const auto& emails1 = a.atomic_values(binding_.person_email);
      const auto& emails2 = b.atomic_values(binding_.person_email);
      StageAtomic(emails1, emails2, email_domain, email_domain,
                  kEvPersonEmail, p.person_email_seed,
                  /*propagate_merge=*/false, raw_email, scratch,
                  staged);
      // StageAtomic already compared every email pair: identical values
      // became statics, the rest value nodes whenever sim >= seed (and the
      // seed is <= 1). A key match is therefore any staged email evidence
      // at similarity 1 — no need to re-run the comparator cross product.
      for (const auto& [evidence, sim] : staged->statics) {
        if (evidence == kEvPersonEmail && sim >= 1.0) shared_email = true;
      }
      for (const auto& spec : staged->value_nodes) {
        if (spec.evidence == kEvPersonEmail && spec.sim >= 1.0) {
          shared_email = true;
        }
      }
    }
    if (options_.evidence_level >= EvidenceLevel::kNameEmail &&
        binding_.person_name >= 0 && binding_.person_email >= 0) {
      StageAtomic(a.atomic_values(binding_.person_name),
                  b.atomic_values(binding_.person_email), name_domain,
                  email_domain, kEvPersonNameEmail, p.name_email_seed,
                  /*propagate_merge=*/false, raw_name_email,
                  scratch, staged);
      StageAtomic(b.atomic_values(binding_.person_name),
                  a.atomic_values(binding_.person_email), name_domain,
                  email_domain, kEvPersonNameEmail, p.name_email_seed,
                  /*propagate_merge=*/false, raw_name_email,
                  scratch, staged);
    }

    if (options_.constraints && !shared_email) {
      *non_merge = ViolatesNameConstraint(a, b, scratch) ||
                   ViolatesAccountConstraint(a, b, scratch);
    }
  }

  /// Constraint 2: same first name with a completely different last name
  /// (or vice versa) means distinct persons — unless an email is shared.
  bool ViolatesNameConstraint(const Reference& a, const Reference& b,
                              StageScratch& scratch) const {
    if (binding_.person_name < 0) return false;
    const auto& names1 = a.atomic_values(binding_.person_name);
    const auto& names2 = b.atomic_values(binding_.person_name);
    if (names1.empty() || names2.empty()) return false;
    bool any_contradiction = false;
    for (const std::string& n1 : names1) {
      const strsim::PersonName& pa = NameOf(n1, scratch);
      for (const std::string& n2 : names2) {
        const strsim::PersonName& pb = NameOf(n2, scratch);
        if (strsim::NamesContradict(pa, pb)) {
          any_contradiction = true;
        } else if (!pa.last.empty() && !pb.last.empty() &&
                   strsim::NamesCompatible(pa, pb)) {
          // Some *structured* value pair is fully consistent: no
          // constraint. (Bare first names are compatible with anything and
          // must not neutralize a contradiction between full names.)
          return false;
        }
      }
    }
    return any_contradiction;
  }

  /// Constraint 3: a person has a unique account per email server, so two
  /// references with different accounts on the same server are distinct.
  bool ViolatesAccountConstraint(const Reference& a, const Reference& b,
                                 StageScratch& scratch) const {
    if (binding_.person_email < 0) return false;
    for (const std::string& e1 : a.atomic_values(binding_.person_email)) {
      const strsim::EmailAddress& ea = EmailOf(e1, scratch);
      if (ea.server.empty()) continue;
      for (const std::string& e2 : b.atomic_values(binding_.person_email)) {
        const strsim::EmailAddress& eb = EmailOf(e2, scratch);
        if (ea.server == eb.server && ea.account != eb.account) return true;
      }
    }
    return false;
  }

  void StageArticle(RefId r1, RefId r2, StageScratch& scratch,
                    StagedEvidence* staged) const {
    const Reference& a = dataset_.reference(r1);
    const Reference& b = dataset_.reference(r2);
    const SimParams& p = options_.params;
    // Raw fallbacks analyze both sides inside the comparator on every
    // cache miss; the counter records those per-pair analyses the store
    // avoids.
    auto raw_title = [&](const std::string& x, const std::string& y) {
      scratch.value_analyses += 2;
      return TitleFieldSimilarity(x, y);
    };
    auto raw_year = [&](const std::string& x, const std::string& y) {
      scratch.value_analyses += 2;
      return YearFieldSimilarity(x, y);
    };
    auto raw_pages = [&](const std::string& x, const std::string& y) {
      scratch.value_analyses += 2;
      return PagesFieldSimilarity(x, y);
    };
    if (binding_.article_title >= 0) {
      const ValueDomain domain{binding_.article, binding_.article_title};
      StageAtomic(a.atomic_values(binding_.article_title),
                  b.atomic_values(binding_.article_title), domain, domain,
                  kEvArticleTitle, p.article_title_seed,
                  /*propagate_merge=*/false, raw_title, scratch, staged);
    }
    // Titles are required evidence for articles: without a title match the
    // pair is not worth a node.
    if (staged->empty()) return;
    if (binding_.article_year >= 0) {
      const ValueDomain domain{binding_.article, binding_.article_year};
      StageAtomic(a.atomic_values(binding_.article_year),
                  b.atomic_values(binding_.article_year), domain, domain,
                  kEvArticleYear, p.year_seed, /*propagate_merge=*/false,
                  raw_year, scratch, staged);
    }
    if (binding_.article_pages >= 0) {
      const ValueDomain domain{binding_.article, binding_.article_pages};
      StageAtomic(a.atomic_values(binding_.article_pages),
                  b.atomic_values(binding_.article_pages), domain, domain,
                  kEvArticlePages, p.pages_seed, /*propagate_merge=*/false,
                  raw_pages, scratch, staged);
    }
  }

  void StageVenue(RefId r1, RefId r2, StageScratch& scratch,
                  StagedEvidence* staged) const {
    const Reference& a = dataset_.reference(r1);
    const Reference& b = dataset_.reference(r2);
    const SimParams& p = options_.params;
    auto raw_venue_name = [&](const std::string& x, const std::string& y) {
      scratch.value_analyses += 2;
      return VenueNameFieldSimilarity(x, y);
    };
    auto raw_year = [&](const std::string& x, const std::string& y) {
      scratch.value_analyses += 2;
      return YearFieldSimilarity(x, y);
    };
    auto raw_location = [&](const std::string& x, const std::string& y) {
      scratch.value_analyses += 2;
      return LocationFieldSimilarity(x, y);
    };
    if (binding_.venue_name >= 0) {
      const ValueDomain domain{binding_.venue, binding_.venue_name};
      // Venue names propagate merges: reconciling two venues certifies
      // their names denote the same venue (Fig. 2's n6), which then feeds
      // every other venue pair carrying these names.
      StageAtomic(a.atomic_values(binding_.venue_name),
                  b.atomic_values(binding_.venue_name), domain, domain,
                  kEvVenueName, p.venue_name_seed, /*propagate_merge=*/true,
                  raw_venue_name, scratch, staged);
    }
    if (staged->empty()) return;  // Venue name evidence is required.
    if (binding_.venue_year >= 0) {
      const ValueDomain domain{binding_.venue, binding_.venue_year};
      StageAtomic(a.atomic_values(binding_.venue_year),
                  b.atomic_values(binding_.venue_year), domain, domain,
                  kEvVenueYear, p.year_seed, /*propagate_merge=*/false,
                  raw_year, scratch, staged);
    }
    if (binding_.venue_location >= 0) {
      const ValueDomain domain{binding_.venue, binding_.venue_location};
      StageAtomic(a.atomic_values(binding_.venue_location),
                  b.atomic_values(binding_.venue_location), domain, domain,
                  kEvVenueLocation, p.location_seed,
                  /*propagate_merge=*/false, raw_location, scratch, staged);
    }
  }

  // ---- Blocked batch scoring (store-on lanes) ----------------------------

  /// Seed threshold for an evidence channel — the same per-channel values
  /// the per-pair StageAtomic call sites pass.
  double SeedFor(int evidence) const {
    const SimParams& p = options_.params;
    switch (evidence) {
      case kEvPersonName:
        return p.person_name_seed;
      case kEvPersonEmail:
        return p.person_email_seed;
      case kEvPersonNameEmail:
        return p.name_email_seed;
      case kEvArticleTitle:
        return p.article_title_seed;
      case kEvArticleYear:
      case kEvVenueYear:
        return p.year_seed;
      case kEvArticlePages:
        return p.pages_seed;
      case kEvVenueName:
        return p.venue_name_seed;
      case kEvVenueLocation:
        return p.location_seed;
      default:
        return 0.0;
    }
  }

  /// Records one channel's value cross product as tasks, counting each
  /// comparison exactly where the per-pair path counts it.
  TaskRange GatherAtomic(const std::vector<std::string>& values1,
                         const std::vector<std::string>& values2,
                         ValueDomain domain1, ValueDomain domain2,
                         int evidence, StageScratch& scratch,
                         BatchLane& lane) const {
    std::vector<SimTask>& tasks = lane.tasks[evidence];
    TaskRange range;
    range.begin = static_cast<int32_t>(tasks.size());
    for (const std::string& raw1 : values1) {
      const ValueId v1 = values_->Find(domain1, raw1);
      RECON_CHECK_NE(v1, kInvalidValue);
      for (const std::string& raw2 : values2) {
        const ValueId v2 = values_->Find(domain2, raw2);
        RECON_CHECK_NE(v2, kInvalidValue);
        ++scratch.pair_comparisons;
        SimTask t;
        t.v1 = v1;
        t.v2 = v2;
        t.is_static = (v1 == v2);
        tasks.push_back(t);
      }
    }
    range.end = static_cast<int32_t>(tasks.size());
    return range;
  }

  /// Gathers every unconditional person channel (all four are staged by
  /// StagePerson regardless of what earlier channels produced).
  void GatherPerson(const Reference& a, const Reference& b,
                    StageScratch& scratch, BatchLane& lane,
                    PairPlan* plan) const {
    const ValueDomain name_domain{binding_.person, binding_.person_name};
    const ValueDomain email_domain{binding_.person, binding_.person_email};
    if (binding_.person_name >= 0) {
      plan->name = GatherAtomic(a.atomic_values(binding_.person_name),
                                b.atomic_values(binding_.person_name),
                                name_domain, name_domain, kEvPersonName,
                                scratch, lane);
      plan->both_have_names =
          !a.atomic_values(binding_.person_name).empty() &&
          !b.atomic_values(binding_.person_name).empty();
    }
    if (binding_.person_email >= 0) {
      plan->email = GatherAtomic(a.atomic_values(binding_.person_email),
                                 b.atomic_values(binding_.person_email),
                                 email_domain, email_domain, kEvPersonEmail,
                                 scratch, lane);
    }
    if (options_.evidence_level >= EvidenceLevel::kNameEmail &&
        binding_.person_name >= 0 && binding_.person_email >= 0) {
      plan->ne_ab = GatherAtomic(a.atomic_values(binding_.person_name),
                                 b.atomic_values(binding_.person_email),
                                 name_domain, email_domain,
                                 kEvPersonNameEmail, scratch, lane);
      plan->ne_ba = GatherAtomic(b.atomic_values(binding_.person_name),
                                 a.atomic_values(binding_.person_email),
                                 name_domain, email_domain,
                                 kEvPersonNameEmail, scratch, lane);
    }
  }

  /// Marks title tasks whose signature upper bound proves the exact
  /// comparator cannot reach the seed. One flat XOR-popcount sweep per
  /// signature kind covers the whole block. Skipping is sound because the
  /// bound is an upper bound (tests/strsim_kernel_test.cc asserts it) and
  /// the staging test is the strict `sim >= seed`: UB < seed implies
  /// sim <= UB < seed, so the pair stages nothing either way. Inactive at
  /// kScalar so `--no-simd` reproduces the exact legacy compute path.
  void PrefilterTitleTasks(BatchLane& lane, StageScratch& scratch) const {
    std::vector<SimTask>& tasks = lane.tasks[kEvArticleTitle];
    if (tasks.empty()) return;
    if (strsim::ActiveSimdLevel() == strsim::SimdLevel::kScalar) return;
    const double seed = options_.params.article_title_seed;
    // With a non-positive seed nothing can be proved skippable (the bound
    // never goes below zero), so don't pay for the sweep.
    if (seed <= 0.0) return;
    lane.title_task.clear();
    for (size_t i = 0; i < tasks.size(); ++i) {
      if (!tasks[i].is_static) {
        lane.title_task.push_back(static_cast<int32_t>(i));
      }
    }
    const int count = static_cast<int>(lane.title_task.size());
    if (count == 0) return;
    lane.gram_a.resize(4 * static_cast<size_t>(count));
    lane.gram_b.resize(4 * static_cast<size_t>(count));
    lane.tok_a.resize(4 * static_cast<size_t>(count));
    lane.tok_b.resize(4 * static_cast<size_t>(count));
    lane.gram_pop.resize(count);
    lane.tok_pop.resize(count);
    for (int j = 0; j < count; ++j) {
      const SimTask& t = tasks[lane.title_task[j]];
      const ValueFeatures& fa = store_->features(t.v1);
      const ValueFeatures& fb = store_->features(t.v2);
      std::copy(fa.title_gram_sig.w, fa.title_gram_sig.w + 4,
                &lane.gram_a[4 * static_cast<size_t>(j)]);
      std::copy(fb.title_gram_sig.w, fb.title_gram_sig.w + 4,
                &lane.gram_b[4 * static_cast<size_t>(j)]);
      std::copy(fa.title_token_sig.w, fa.title_token_sig.w + 4,
                &lane.tok_a[4 * static_cast<size_t>(j)]);
      std::copy(fb.title_token_sig.w, fb.title_token_sig.w + 4,
                &lane.tok_b[4 * static_cast<size_t>(j)]);
    }
    strsim::BatchSigSymDiff(lane.gram_a.data(), lane.gram_b.data(), count,
                            lane.gram_pop.data());
    strsim::BatchSigSymDiff(lane.tok_a.data(), lane.tok_b.data(), count,
                            lane.tok_pop.data());
    for (int j = 0; j < count; ++j) {
      SimTask& t = tasks[lane.title_task[j]];
      const double ub = TitleSimilarityUpperBoundFromPops(
          lane.gram_pop[j], lane.tok_pop[j], store_->features(t.v1),
          store_->features(t.v2));
      if (ub < seed) {
        t.skipped = true;
        ++scratch.prefilter_skips;
      } else {
        ++scratch.prefilter_exact;
      }
    }
  }

  /// Scores every gathered task of one evidence kind: equal values at
  /// double precision, the rest through the shared memo with the same
  /// float rounding the per-pair path applies. Skipped tasks cost nothing.
  void SweepTasks(int evidence, StageScratch& scratch,
                  BatchLane& lane) const {
    for (SimTask& t : lane.tasks[evidence]) {
      if (t.is_static) {
        t.static_sim = FeaturePairSimilarity(
            evidence, store_->features(t.v1), store_->features(t.v2));
      } else if (!t.skipped) {
        t.memo_sim = memo_->LookupOrCompute(
            evidence, t.v1, t.v2,
            [&] {
              return FeaturePairSimilarity(evidence, store_->features(t.v1),
                                           store_->features(t.v2));
            },
            &scratch.memo_hits, &scratch.memo_misses);
      }
    }
  }

  /// Replays one channel's swept tasks into the pair's staged evidence in
  /// gather (= cross-product) order: statics for equal values, a value
  /// node when the memoized similarity reaches the channel seed — the
  /// exact appends StageAtomic makes.
  void AssembleRange(const TaskRange& range, int evidence,
                     bool propagate_merge, const BatchLane& lane,
                     StagedEvidence* staged) const {
    const std::vector<SimTask>& tasks = lane.tasks[evidence];
    const double seed = SeedFor(evidence);
    for (int32_t i = range.begin; i < range.end; ++i) {
      const SimTask& t = tasks[i];
      if (t.is_static) {
        staged->statics.emplace_back(evidence, t.static_sim);
        continue;
      }
      if (t.skipped) continue;
      const double sim = t.memo_sim;
      if (sim >= seed) {
        staged->value_nodes.push_back(
            {t.v1, t.v2, sim, evidence, propagate_merge});
      }
    }
  }

  /// Person assembly mirrors StagePerson line for line: name channel, the
  /// explicit-zero static when both sides had names but none matched, the
  /// email channel, the shared-email scan, the two name/email cross
  /// channels, then the constraints.
  void AssemblePerson(const PairPlan& plan, const BatchLane& lane,
                      StageScratch& scratch, StagedPair* out) const {
    StagedEvidence* staged = &out->evidence;
    AssembleRange(plan.name, kEvPersonName, /*propagate_merge=*/false, lane,
                  staged);
    if (plan.both_have_names) {
      bool any_name_evidence = false;
      for (const auto& [evidence, sim] : staged->statics) {
        if (evidence == kEvPersonName) any_name_evidence = true;
      }
      for (const auto& spec : staged->value_nodes) {
        if (spec.evidence == kEvPersonName) any_name_evidence = true;
      }
      if (!any_name_evidence) {
        staged->statics.emplace_back(kEvPersonName, 0.0);
      }
    }
    AssembleRange(plan.email, kEvPersonEmail, /*propagate_merge=*/false,
                  lane, staged);
    bool shared_email = false;
    for (const auto& [evidence, sim] : staged->statics) {
      if (evidence == kEvPersonEmail && sim >= 1.0) shared_email = true;
    }
    for (const auto& spec : staged->value_nodes) {
      if (spec.evidence == kEvPersonEmail && spec.sim >= 1.0) {
        shared_email = true;
      }
    }
    AssembleRange(plan.ne_ab, kEvPersonNameEmail, /*propagate_merge=*/false,
                  lane, staged);
    AssembleRange(plan.ne_ba, kEvPersonNameEmail, /*propagate_merge=*/false,
                  lane, staged);
    if (options_.constraints && !shared_email) {
      out->non_merge =
          ViolatesNameConstraint(dataset_.reference(plan.r1),
                                 dataset_.reference(plan.r2), scratch) ||
          ViolatesAccountConstraint(dataset_.reference(plan.r1),
                                    dataset_.reference(plan.r2), scratch);
    }
  }

  /// Stages candidate positions [begin, end) through the blocked batch
  /// path. The budget is checked every 64 gathered pairs just like the
  /// per-pair loop; an abandon truncates the gather but the pairs already
  /// gathered still sweep and assemble (both paths leave "some prefix
  /// staged, the rest default no-ops").
  void StageSpanBatched(const std::vector<std::pair<RefId, RefId>>& pairs,
                        int64_t begin, int64_t end, StageScratch& scratch,
                        BatchLane& lane,
                        std::vector<StagedPair>* staged) const {
    for (int64_t base = begin; base < end; base += kScoreBlock) {
      const int64_t block_end = std::min(end, base + kScoreBlock);
      for (auto& tasks : lane.tasks) tasks.clear();
      lane.plan.clear();
      bool abandoned = false;

      // Wave 1: gather the channels every pair stages unconditionally —
      // all four person channels, article titles, venue names.
      for (int64_t i = base; i < block_end; ++i) {
        if ((i - base) % 64 == 0 && budget_->ShouldAbandonParallelWork()) {
          abandoned = true;
          break;
        }
        StagedPair* out = &(*staged)[i];
        out->r1 = pairs[i].first;
        out->r2 = pairs[i].second;
        out->class_id = dataset_.reference(out->r1).class_id();
        PairPlan plan;
        plan.out_index = i;
        plan.r1 = out->r1;
        plan.r2 = out->r2;
        plan.class_id = out->class_id;
        const Reference& a = dataset_.reference(plan.r1);
        const Reference& b = dataset_.reference(plan.r2);
        if (plan.class_id == binding_.person) {
          GatherPerson(a, b, scratch, lane, &plan);
        } else if (plan.class_id == binding_.article &&
                   binding_.article_title >= 0) {
          const ValueDomain domain{binding_.article, binding_.article_title};
          plan.primary = GatherAtomic(
              a.atomic_values(binding_.article_title),
              b.atomic_values(binding_.article_title), domain, domain,
              kEvArticleTitle, scratch, lane);
        } else if (plan.class_id == binding_.venue &&
                   binding_.venue_name >= 0) {
          const ValueDomain domain{binding_.venue, binding_.venue_name};
          plan.primary = GatherAtomic(a.atomic_values(binding_.venue_name),
                                      b.atomic_values(binding_.venue_name),
                                      domain, domain, kEvVenueName, scratch,
                                      lane);
        }
        lane.plan.push_back(plan);
      }

      PrefilterTitleTasks(lane, scratch);
      SweepTasks(kEvPersonName, scratch, lane);
      SweepTasks(kEvPersonEmail, scratch, lane);
      SweepTasks(kEvPersonNameEmail, scratch, lane);
      SweepTasks(kEvArticleTitle, scratch, lane);
      SweepTasks(kEvVenueName, scratch, lane);

      // Wave-1 assembly, and wave-2 gather for the pairs that earned it:
      // article year/pages and venue year/location are staged only when
      // the primary channel produced evidence (the `staged->empty()`
      // gates in StageArticle / StageVenue), so both the staged output
      // and the comparison counts match the per-pair path.
      for (PairPlan& plan : lane.plan) {
        StagedPair* out = &(*staged)[plan.out_index];
        if (plan.class_id == binding_.person) {
          AssemblePerson(plan, lane, scratch, out);
          continue;
        }
        const Reference& a = dataset_.reference(plan.r1);
        const Reference& b = dataset_.reference(plan.r2);
        if (plan.class_id == binding_.article) {
          AssembleRange(plan.primary, kEvArticleTitle,
                        /*propagate_merge=*/false, lane, &out->evidence);
          if (out->evidence.empty()) continue;
          if (binding_.article_year >= 0) {
            const ValueDomain domain{binding_.article, binding_.article_year};
            plan.secondary1 = GatherAtomic(
                a.atomic_values(binding_.article_year),
                b.atomic_values(binding_.article_year), domain, domain,
                kEvArticleYear, scratch, lane);
          }
          if (binding_.article_pages >= 0) {
            const ValueDomain domain{binding_.article,
                                     binding_.article_pages};
            plan.secondary2 = GatherAtomic(
                a.atomic_values(binding_.article_pages),
                b.atomic_values(binding_.article_pages), domain, domain,
                kEvArticlePages, scratch, lane);
          }
        } else if (plan.class_id == binding_.venue) {
          AssembleRange(plan.primary, kEvVenueName,
                        /*propagate_merge=*/true, lane, &out->evidence);
          if (out->evidence.empty()) continue;
          if (binding_.venue_year >= 0) {
            const ValueDomain domain{binding_.venue, binding_.venue_year};
            plan.secondary1 = GatherAtomic(
                a.atomic_values(binding_.venue_year),
                b.atomic_values(binding_.venue_year), domain, domain,
                kEvVenueYear, scratch, lane);
          }
          if (binding_.venue_location >= 0) {
            const ValueDomain domain{binding_.venue,
                                     binding_.venue_location};
            plan.secondary2 = GatherAtomic(
                a.atomic_values(binding_.venue_location),
                b.atomic_values(binding_.venue_location), domain, domain,
                kEvVenueLocation, scratch, lane);
          }
        }
      }

      SweepTasks(kEvArticleYear, scratch, lane);
      SweepTasks(kEvArticlePages, scratch, lane);
      SweepTasks(kEvVenueYear, scratch, lane);
      SweepTasks(kEvVenueLocation, scratch, lane);

      for (const PairPlan& plan : lane.plan) {
        StagedEvidence* staged_ev = &(*staged)[plan.out_index].evidence;
        if (plan.class_id == binding_.article) {
          AssembleRange(plan.secondary1, kEvArticleYear,
                        /*propagate_merge=*/false, lane, staged_ev);
          AssembleRange(plan.secondary2, kEvArticlePages,
                        /*propagate_merge=*/false, lane, staged_ev);
        } else if (plan.class_id == binding_.venue) {
          AssembleRange(plan.secondary1, kEvVenueYear,
                        /*propagate_merge=*/false, lane, staged_ev);
          AssembleRange(plan.secondary2, kEvVenueLocation,
                        /*propagate_merge=*/false, lane, staged_ev);
        }
      }

      if (abandoned) return;
    }
  }

  // ---- Constraint 1 ------------------------------------------------------

  void MarkCoAuthorConstraints(RefId first_ref) {
    if (binding_.article < 0 || binding_.article_authors < 0) return;
    for (RefId id = first_ref; id < dataset_.num_references(); ++id) {
      const Reference& ref = dataset_.reference(id);
      if (ref.class_id() != binding_.article) continue;
      const auto& authors = ref.associations(binding_.article_authors);
      for (size_t i = 0; i < authors.size(); ++i) {
        for (size_t j = i + 1; j < authors.size(); ++j) {
          NodeId node = graph_->FindRefPair(authors[i], authors[j]);
          if (node == kInvalidNode) {
            node = graph_->AddRefPairNode(binding_.person, authors[i],
                                          authors[j]);
          }
          graph_->SetNodeState(node, NodeState::kNonMerge);
        }
      }
    }
  }

  void ApplyFeedback() {
    auto valid_pair = [&](RefId a, RefId b) {
      return a >= 0 && b >= 0 && a != b && a < dataset_.num_references() &&
             b < dataset_.num_references() &&
             dataset_.reference(a).class_id() ==
                 dataset_.reference(b).class_id();
    };
    for (const auto& [a, b] : options_.feedback.same) {
      if (!valid_pair(a, b)) continue;
      const NodeId node = graph_->AddRefPairNode(
          dataset_.reference(a).class_id(), a, b);
      graph_->mutable_node(node).forced_merge = true;
      // Overrides an earlier non-merge (and re-admits the node's evidence
      // into dependent caches).
      graph_->SetNodeState(node, NodeState::kInactive);
    }
    for (const auto& [a, b] : options_.feedback.distinct) {
      if (!valid_pair(a, b)) continue;
      const NodeId node = graph_->AddRefPairNode(
          dataset_.reference(a).class_id(), a, b);
      graph_->mutable_node(node).forced_merge = false;
      graph_->SetNodeState(node, NodeState::kNonMerge);
    }
  }

  // ---- Step 2: association wiring ---------------------------------------

  void WireAssociations(NodeId start_node) {
    if (options_.evidence_level < EvidenceLevel::kArticle) return;
    const int total = graph_->num_nodes();
    for (NodeId m = start_node; m < total; ++m) {
      // Wiring only adds evidence; a budget stop truncates it at a chunk
      // boundary (the current node's wiring always completes).
      if ((m - start_node) % kBuildChunk == 0) {
        ReportGraphMemory();
        if (budget_->Probe(ProbePoint::kBuild)) return;
      }
      const Node& node = graph_->node(m);
      if (!node.IsRefPair() || node.dead) continue;
      if (node.state == NodeState::kNonMerge) continue;
      if (node.class_id == binding_.article) {
        WireArticlePair(m);
      } else if (node.class_id == binding_.person &&
                 options_.evidence_level >= EvidenceLevel::kContact) {
        WirePersonContacts(m);
      }
    }
  }

  void WireArticlePair(NodeId m) {
    const Node& node = graph_->node(m);
    const Reference& a1 = dataset_.reference(node.a);
    const Reference& a2 = dataset_.reference(node.b);

    if (binding_.article_authors >= 0) {
      const auto& authors1 = a1.associations(binding_.article_authors);
      const auto& authors2 = a2.associations(binding_.article_authors);
      for (const RefId p : authors1) {
        for (const RefId q : authors2) {
          if (p == q) {
            // The same extracted person reference authors both: identity
            // evidence for the articles (the paper's self node (a, a)).
            graph_->AddStaticReal(m, kEvArticleAuthors, 1.0);
            continue;
          }
          const NodeId n = graph_->FindRefPair(p, q);
          if (n == kInvalidNode) continue;
          if (graph_->node(n).state == NodeState::kNonMerge) continue;
          // Author similarity feeds the article comparison; an article
          // merge (almost) implies its aligned authors merge.
          graph_->AddEdge(n, m, DependencyKind::kRealValued,
                          kEvArticleAuthors);
          graph_->AddEdge(m, n, DependencyKind::kStrongBoolean,
                          kEvPersonArticle);
        }
      }
    }

    if (binding_.article_venue >= 0) {
      const auto& venues1 = a1.associations(binding_.article_venue);
      const auto& venues2 = a2.associations(binding_.article_venue);
      for (const RefId v1 : venues1) {
        for (const RefId v2 : venues2) {
          if (v1 == v2) {
            graph_->AddStaticReal(m, kEvArticleVenue, 1.0);
            continue;
          }
          const NodeId n = graph_->FindRefPair(v1, v2);
          if (n == kInvalidNode) continue;
          if (graph_->node(n).state == NodeState::kNonMerge) continue;
          graph_->AddEdge(n, m, DependencyKind::kRealValued,
                          kEvArticleVenue);
          graph_->AddEdge(m, n, DependencyKind::kStrongBoolean,
                          kEvVenueArticle);
        }
      }
    }
  }

  void WirePersonContacts(NodeId m) {
    const Node& node = graph_->node(m);
    const std::vector<RefId> contacts1 = ContactsOf(node.a);
    const std::vector<RefId> contacts2 = ContactsOf(node.b);
    if (contacts1.empty() || contacts2.empty()) return;
    const int64_t cross = static_cast<int64_t>(contacts1.size()) *
                          static_cast<int64_t>(contacts2.size());
    if (cross > options_.max_assoc_cross) return;

    int shared = 0;
    for (const RefId c1 : contacts1) {
      for (const RefId c2 : contacts2) {
        if (c1 == c2) {
          ++shared;
          continue;
        }
        const NodeId n = graph_->FindRefPair(c1, c2);
        if (n == kInvalidNode || n == m) continue;
        if (graph_->node(n).state == NodeState::kNonMerge) continue;
        // Bidirectional weak dependency (Fig. 2b: m6 <-> m7).
        graph_->AddEdge(n, m, DependencyKind::kWeakBoolean,
                        kEvPersonContact);
        graph_->AddEdge(m, n, DependencyKind::kWeakBoolean,
                        kEvPersonContact);
      }
    }
    if (shared > 0) {
      Node& mutable_m = graph_->mutable_node(m);
      const int16_t before = mutable_m.static_weak;
      mutable_m.static_weak =
          static_cast<int16_t>(std::min(32000, before + shared));
      // Static weak counts are a base term of the cached summary; absorb
      // the increase so the cache stays valid.
      if (mutable_m.cache.valid) {
        mutable_m.cache.weak_merged += mutable_m.static_weak - before;
      }
    }
  }

  std::vector<RefId> ContactsOf(RefId ref) {
    std::vector<RefId> contacts;
    const Reference& r = dataset_.reference(ref);
    if (binding_.person_coauthor >= 0) {
      const auto& coauthors = r.associations(binding_.person_coauthor);
      contacts.insert(contacts.end(), coauthors.begin(), coauthors.end());
    }
    if (binding_.person_contact >= 0) {
      const auto& mail = r.associations(binding_.person_contact);
      contacts.insert(contacts.end(), mail.begin(), mail.end());
    }
    std::sort(contacts.begin(), contacts.end());
    contacts.erase(std::unique(contacts.begin(), contacts.end()),
                   contacts.end());
    return contacts;
  }

  // ---- Queue and helpers -------------------------------------------------

  void BuildInitialQueue(NodeId start_node, std::vector<NodeId>* queue) {
    auto append_class = [&](int class_id) {
      if (class_id < 0) return;
      for (NodeId id = start_node; id < graph_->num_nodes(); ++id) {
        const Node& node = graph_->node(id);
        if (node.IsRefPair() && !node.dead &&
            node.state != NodeState::kNonMerge &&
            node.class_id == class_id) {
          queue->push_back(id);
        }
      }
    };
    append_class(binding_.venue);
    append_class(binding_.person);
    append_class(binding_.article);
    for (int c = 0; c < dataset_.schema().num_classes(); ++c) {
      if (c == binding_.venue || c == binding_.person || c == binding_.article) {
        continue;
      }
      append_class(c);
    }
  }

  /// Raw-fallback analysis caches: each distinct string is analyzed once
  /// per lane; a cache miss is one value analysis for the stats.
  const FallbackName& ParsedName(const std::string& raw,
                                 StageScratch& scratch) const {
    auto [it, inserted] = scratch.name_cache.try_emplace(raw);
    if (inserted) {
      it->second.name = strsim::ParsePersonName(raw);
      it->second.lower = ToLower(raw);
      ++scratch.value_analyses;
    }
    return it->second;
  }

  const strsim::EmailAddress& ParsedEmail(const std::string& raw,
                                          StageScratch& scratch) const {
    auto [it, inserted] = scratch.email_cache.try_emplace(raw);
    if (inserted) {
      it->second = strsim::ParseEmail(raw);
      ++scratch.value_analyses;
    }
    return it->second;
  }

  /// Parsed person name of an interned name value: store features when the
  /// store is on, per-lane fallback cache otherwise.
  const strsim::PersonName& NameOf(const std::string& raw,
                                   StageScratch& scratch) const {
    if (store_ != nullptr) {
      const ValueId id = values_->Find(
          ValueDomain{binding_.person, binding_.person_name}, raw);
      RECON_CHECK_NE(id, kInvalidValue);
      return store_->features(id).name;
    }
    return ParsedName(raw, scratch).name;
  }

  const strsim::EmailAddress& EmailOf(const std::string& raw,
                                      StageScratch& scratch) const {
    if (store_ != nullptr) {
      const ValueId id = values_->Find(
          ValueDomain{binding_.person, binding_.person_email}, raw);
      RECON_CHECK_NE(id, kInvalidValue);
      return store_->features(id).email;
    }
    return ParsedEmail(raw, scratch);
  }

  template <typename Comparator>
  double CachedSim(int evidence, ValueId v1, ValueId v2,
                   const std::string& raw1, const std::string& raw2,
                   Comparator& comparator, StageScratch& scratch) const {
    // Same-attribute comparators are symmetric and cross-attribute pairs
    // always arrive in (name, email) order, so the unordered key is safe.
    const MemoKey key = SimMemo::MakeKey(evidence, v1, v2);
    auto [it, inserted] = scratch.sim_cache.try_emplace(key, 0.0f);
    if (inserted) {
      it->second = static_cast<float>(comparator(raw1, raw2));
    }
    return it->second;
  }

  /// Sizes the shared memo: the configured bound, shrunk to fit under the
  /// run's soft memory budget when one is set. The memo degrades on its
  /// own (eviction, then bypass) — it never trips the budget, whose
  /// estimate stays graph-only so budget stops are identical with the
  /// store on or off.
  void ConfigureMemoBudget() {
    if (memo_ == nullptr) return;
    int64_t bound = options_.sim_memo_max_bytes;
    const int64_t soft = budget_->budget().soft_max_memory_bytes;
    if (soft > 0) bound = std::min(bound, soft);
    memo_->set_max_bytes(bound);
  }

  /// Updates the budget's soft memory estimate from the current graph
  /// shape (each edge is stored twice: in the source's out list and the
  /// target's in list).
  void ReportGraphMemory() {
    budget_->ReportMemoryEstimate(
        static_cast<int64_t>(graph_->num_nodes()) *
            static_cast<int64_t>(sizeof(Node)) +
        2 * static_cast<int64_t>(graph_->num_edges()) *
            static_cast<int64_t>(sizeof(Edge)));
  }

  const Dataset& dataset_;
  const ReconcilerOptions& options_;
  /// By value: the caller's default `{}` temporary dies at the ctor.
  BuildOverrides overrides_;
  SchemaBinding binding_;
  /// Fallback unlimited tracker for callers that pass none, so the build
  /// has exactly one budget code path.
  std::unique_ptr<BudgetTracker> own_budget_;
  BudgetTracker* budget_;
  DependencyGraph* graph_ = nullptr;
  ValuePool* values_ = nullptr;
  BuiltGraph* built_ = nullptr;
  /// Owned by built_ (shared_ptr); null when options_.value_store is off.
  ValueStore* store_ = nullptr;
  SimMemo* memo_ = nullptr;
};

}  // namespace

void InternReferenceValues(const Dataset& dataset, RefId first_ref,
                           BuiltGraph& built) {
  const SchemaBinding& b = built.binding;
  for (RefId id = first_ref; id < dataset.num_references(); ++id) {
    const Reference& r = dataset.reference(id);
    const int class_id = r.class_id();
    auto intern_field = [&](int owner_class, int attr) {
      if (owner_class < 0 || attr < 0 || class_id != owner_class) return;
      for (const std::string& raw : r.atomic_values(attr)) {
        built.values.Intern(ValueDomain{owner_class, attr}, raw);
      }
    };
    intern_field(b.person, b.person_name);
    intern_field(b.person, b.person_email);
    intern_field(b.article, b.article_title);
    intern_field(b.article, b.article_year);
    intern_field(b.article, b.article_pages);
    intern_field(b.venue, b.venue_name);
    intern_field(b.venue, b.venue_year);
    intern_field(b.venue, b.venue_location);
  }
  if (built.feature_store != nullptr) built.feature_store->Sync(built.values);
}

BuiltGraph BuildDependencyGraph(const Dataset& dataset,
                                const ReconcilerOptions& options,
                                BudgetTracker* budget,
                                const BuildOverrides& overrides) {
  return GraphBuilder(dataset, options, budget, overrides).Build();
}

std::vector<NodeId> ExtendDependencyGraph(
    const Dataset& dataset, const ReconcilerOptions& options,
    const std::vector<std::pair<RefId, RefId>>& pairs, RefId first_new_ref,
    BuiltGraph& built, BudgetTracker* budget) {
  return GraphBuilder(dataset, options, budget)
      .Extend(pairs, first_new_ref, built);
}

}  // namespace recon
