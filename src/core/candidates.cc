#include "core/candidates.h"

#include <algorithm>
#include <string>
#include <unordered_map>

#include "runtime/parallel.h"
#include "sim/value_store.h"
#include "strsim/email.h"
#include "strsim/person_name.h"
#include "strsim/venue.h"
#include "util/string_util.h"

namespace recon {

namespace {

/// Precomputed features of an interned value, or null when no store is in
/// play (tests that block a bare dataset) — callers then analyze the raw
/// string.
const ValueFeatures* FindFeatures(const ValuePool* pool,
                                  const ValueStore* store, ValueDomain domain,
                                  const std::string& raw) {
  if (pool == nullptr || store == nullptr) return nullptr;
  const ValueId id = pool->Find(domain, raw);
  if (id == kInvalidValue || !store->Covers(id)) return nullptr;
  return &store->features(id);
}

// Key namespaces. Person name tokens and email account cores share the
// "n:" namespace on purpose: that is what lets "Stonebraker, M." land in
// the same block as "stonebraker@csail.mit.edu".
constexpr char kNameSpace[] = "n:";
constexpr char kEmailSpace[] = "e:";
constexpr char kTitleSpace[] = "t:";
// Typo-tolerant prefix keys: last names and account cores share 4-char
// prefix blocks so a mid-word typo still lands next to its original.
constexpr char kPrefixSpace[] = "p4:";
constexpr char kVenueSpace[] = "v:";

std::string StripAccountCore(const std::string& account) {
  std::string core;
  for (char c : account) {
    if (c == '.' || c == '_' || c == '-') continue;
    core.push_back(c);
  }
  while (!core.empty() && core.back() >= '0' && core.back() <= '9') {
    core.pop_back();
  }
  return core;
}

// Each Append*Keys reads value features through `find(attr, index, raw)`:
// the analysis of r.atomic_values(attr)[index], or null to parse `raw`.
template <typename Find>
void AppendPersonKeys(const Reference& r, const SchemaBinding& binding,
                      const Find& find, std::vector<std::string>& keys) {
  if (binding.person_name >= 0) {
    const std::vector<std::string>& names =
        r.atomic_values(binding.person_name);
    for (size_t i = 0; i < names.size(); ++i) {
      const std::string& raw = names[i];
      const ValueFeatures* f = find(binding.person_name, i, raw);
      strsim::PersonName parsed;
      if (f == nullptr) parsed = strsim::ParsePersonName(raw);
      const strsim::PersonName& name = (f != nullptr) ? f->name : parsed;
      if (!name.last.empty()) {
        // Last names are the discriminative key; adding first-name keys for
        // structured names would put every "Robert *" in one giant block.
        keys.push_back(kNameSpace + name.last);
        if (name.last.size() >= 4) {
          keys.push_back(kPrefixSpace + name.last.substr(0, 4));
        }
      } else {
        // Bare first names / nicknames ("mike"): key on the canonical
        // given name so they meet matching email account cores.
        for (const auto& given : name.given) {
          if (given.is_initial || given.text.size() < 2) continue;
          keys.push_back(kNameSpace +
                         strsim::CanonicalGivenName(given.text));
        }
      }
    }
  }
  if (binding.person_email >= 0) {
    const std::vector<std::string>& emails =
        r.atomic_values(binding.person_email);
    for (size_t i = 0; i < emails.size(); ++i) {
      const std::string& raw = emails[i];
      const ValueFeatures* f = find(binding.person_email, i, raw);
      strsim::EmailAddress parsed;
      if (f == nullptr) parsed = strsim::ParseEmail(raw);
      const strsim::EmailAddress& email = (f != nullptr) ? f->email : parsed;
      if (email.account.empty()) continue;
      keys.push_back(kEmailSpace + email.ToString());
      const std::string core = StripAccountCore(email.account);
      if (core.size() >= 3) {
        keys.push_back(kNameSpace + core);
        if (core.size() >= 4) {
          keys.push_back(kPrefixSpace + core.substr(0, 4));
        }
        const std::string canonical = strsim::CanonicalGivenName(core);
        if (canonical != core) keys.push_back(kNameSpace + canonical);
        // Initial-pattern accounts ("repstein", "epsteinr") land in the
        // last-name block once the leading/trailing letter is stripped.
        if (core.size() >= 5) {
          keys.push_back(kNameSpace + core.substr(1));
          keys.push_back(kNameSpace + core.substr(0, core.size() - 1));
        }
      }
      // Separator-delimited parts ("robert.epstein") meet both last-name
      // and bare-first-name blocks.
      std::string part;
      for (const char c : email.account + ".") {
        if (c == '.' || c == '_' || c == '-' || c == '@') {
          if (part.size() >= 3 && part != core) {
            keys.push_back(kNameSpace + part);
            if (part.size() >= 4) {
              keys.push_back(kPrefixSpace + part.substr(0, 4));
            }
          }
          part.clear();
        } else if (c < '0' || c > '9') {
          part.push_back(c);
        }
      }
    }
  }
}

template <typename Find>
void AppendArticleKeys(const Reference& r, const SchemaBinding& binding,
                       const Find& find, std::vector<std::string>& keys) {
  if (binding.article_title < 0) return;
  const std::vector<std::string>& titles =
      r.atomic_values(binding.article_title);
  for (size_t i = 0; i < titles.size(); ++i) {
    const std::string& title = titles[i];
    const ValueFeatures* f = find(binding.article_title, i, title);
    std::vector<std::string> tokenized;
    if (f == nullptr) tokenized = Tokenize(title);
    const std::vector<std::string>& tokens =
        (f != nullptr) ? f->title.tokens : tokenized;
    for (const std::string& token : tokens) {
      if (token.size() < 3 || IsDigits(token)) continue;
      keys.push_back(kTitleSpace + token);
    }
  }
}

template <typename Find>
void AppendVenueKeys(const Reference& r, const SchemaBinding& binding,
                     const Find& find, std::vector<std::string>& keys) {
  if (binding.venue_name < 0) return;
  const std::vector<std::string>& names = r.atomic_values(binding.venue_name);
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    const ValueFeatures* f = find(binding.venue_name, i, name);
    std::vector<std::string> expanded_local;
    if (f == nullptr) expanded_local = strsim::VenueContentTokens(name);
    const std::vector<std::string>& content =
        (f != nullptr) ? f->venue.expanded : expanded_local;
    for (const std::string& token : content) {
      keys.push_back(kVenueSpace + token);
    }
    const std::string acronym =
        (f != nullptr) ? f->venue.acronym : strsim::VenueAcronym(name);
    if (acronym.size() >= 3) keys.push_back(kVenueSpace + acronym);
  }
}

template <typename Find>
std::vector<std::string> KeysOf(const Reference& r,
                                const SchemaBinding& binding,
                                const Find& find) {
  std::vector<std::string> keys;
  const int class_id = r.class_id();
  if (class_id == binding.person) {
    AppendPersonKeys(r, binding, find, keys);
  } else if (class_id == binding.article) {
    AppendArticleKeys(r, binding, find, keys);
  } else if (class_id == binding.venue) {
    AppendVenueKeys(r, binding, find, keys);
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

}  // namespace

std::vector<std::string> BlockingKeys(const Dataset& dataset, RefId ref,
                                      const SchemaBinding& binding,
                                      const ValuePool* pool,
                                      const ValueStore* store) {
  const Reference& r = dataset.reference(ref);
  return KeysOf(r, binding,
                [&](int attr, size_t, const std::string& raw) {
                  return FindFeatures(pool, store,
                                      ValueDomain{r.class_id(), attr}, raw);
                });
}

std::vector<std::string> BlockingKeys(
    const Reference& ref, const SchemaBinding& binding,
    const std::vector<std::vector<ValueFeatures>>& features) {
  return KeysOf(ref, binding,
                [&](int attr, size_t index,
                    const std::string&) -> const ValueFeatures* {
                  const size_t a = static_cast<size_t>(attr);
                  return a < features.size() && index < features[a].size()
                             ? &features[a][index]
                             : nullptr;
                });
}

CandidateList GenerateCandidates(const Dataset& dataset,
                                 const SchemaBinding& binding,
                                 const ReconcilerOptions& options,
                                 BudgetTracker* budget, const ValuePool* pool,
                                 const ValueStore* store,
                                 int64_t* num_dropped_blocks) {
  CandidateList out;
  if (num_dropped_blocks != nullptr) *num_dropped_blocks = 0;

  if (!options.use_blocking) {
    // All same-class pairs, for small datasets and ablations; probe per
    // class (batch boundary) so a budget stop truncates to a class prefix.
    for (int class_id = 0; class_id < dataset.schema().num_classes();
         ++class_id) {
      if (budget != nullptr && budget->Probe(ProbePoint::kCandidates)) break;
      const std::vector<RefId> refs = dataset.ReferencesOfClass(class_id);
      for (size_t i = 0; i < refs.size(); ++i) {
        for (size_t j = i + 1; j < refs.size(); ++j) {
          out.emplace_back(refs[i], refs[j]);
        }
      }
    }
    return out;
  }

  // Key extraction (parsing-heavy) runs in parallel; each reference writes
  // its own slot, so no synchronization is needed. The index build stays
  // serial: it is cheap hashing, and a fixed insertion order keeps the map
  // identical for every thread count.
  const RefId num_refs = dataset.num_references();
  std::vector<std::vector<std::string>> keys_of(num_refs);
  runtime::ParallelFor(options.num_threads, 0, num_refs, /*grain=*/256,
                       [&](int64_t ref) {
                         if (budget != nullptr && (ref % 256) == 0 &&
                             budget->ShouldAbandonParallelWork()) {
                           return;
                         }
                         keys_of[ref] =
                             BlockingKeys(dataset, static_cast<RefId>(ref),
                                          binding, pool, store);
                       });
  if (budget != nullptr) budget->ResolveAsyncStop();
  // Serial index build, probing every 256 references: a budget stop
  // truncates blocking to a reference-id prefix (still a valid — merely
  // smaller — candidate set).
  std::unordered_map<std::string, std::vector<RefId>> blocks;
  for (RefId ref = 0; ref < num_refs; ++ref) {
    if (budget != nullptr && (ref % 256) == 0 &&
        budget->Probe(ProbePoint::kCandidates)) {
      break;
    }
    for (std::string& key : keys_of[ref]) {
      blocks[std::move(key)].push_back(ref);
    }
  }
  // Counted over the whole map before expansion, so neither the lane
  // count nor a budget stop during expansion changes the number.
  if (num_dropped_blocks != nullptr) {
    *num_dropped_blocks = std::count_if(
        blocks.begin(), blocks.end(), [&](const auto& block) {
          return static_cast<int>(block.second.size()) >
                 options.max_block_size;
        });
  }

  const int lanes = runtime::ResolveNumThreads(options.num_threads);
  if (lanes <= 1) {
    int64_t block_index = 0;
    for (const auto& [key, members] : blocks) {
      // Batch boundary: one probe per 64 blocks expanded.
      if (budget != nullptr && (block_index++ % 64) == 0 &&
          budget->Probe(ProbePoint::kCandidates)) {
        break;
      }
      if (static_cast<int>(members.size()) > options.max_block_size) continue;
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          out.emplace_back(std::min(members[i], members[j]),
                           std::max(members[i], members[j]));
        }
      }
    }
    // Deterministic order regardless of hash iteration. Emit-all then
    // sort + unique: a pair sharing several blocks collapses here, for a
    // fraction of the cost of a hash probe per emitted pair, and a budget
    // stop truncates to a block prefix either way.
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  }

  // Parallel pair expansion: one shard per block of blocking keys, dedup by
  // sort + unique afterwards — the final sorted unique pair set is exactly
  // what the serial seen-set path produces.
  std::vector<const std::vector<RefId>*> block_members;
  block_members.reserve(blocks.size());
  for (const auto& [key, members] : blocks) {
    if (static_cast<int>(members.size()) > options.max_block_size) continue;
    block_members.push_back(&members);
  }
  const runtime::BlockPlan plan = runtime::PlanBlocks(
      options.num_threads, 0, static_cast<int64_t>(block_members.size()),
      /*grain=*/0);
  runtime::ShardedCollector<std::pair<RefId, RefId>> collector(plan);
  runtime::ParallelForBlocked(
      options.num_threads, 0, static_cast<int64_t>(block_members.size()),
      plan.grain, [&](const runtime::Block& block) {
        std::vector<std::pair<RefId, RefId>>& shard =
            collector.shard(block.index);
        for (int64_t k = block.begin; k < block.end; ++k) {
          if (budget != nullptr && ((k - block.begin) % 64) == 0 &&
              budget->ShouldAbandonParallelWork()) {
            return;
          }
          const std::vector<RefId>& members = *block_members[k];
          for (size_t i = 0; i < members.size(); ++i) {
            for (size_t j = i + 1; j < members.size(); ++j) {
              shard.emplace_back(std::min(members[i], members[j]),
                                 std::max(members[i], members[j]));
            }
          }
        }
      });
  if (budget != nullptr) budget->ResolveAsyncStop();
  out = collector.Drain();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

CandidateList CandidateIndex::AddReferences(const Dataset& dataset,
                                            RefId first,
                                            const ValuePool* pool,
                                            const ValueStore* store) {
  // Index the new references, remembering which blocks they joined.
  std::vector<std::string> touched;
  for (RefId ref = first; ref < dataset.num_references(); ++ref) {
    for (std::string& key : BlockingKeys(dataset, ref, binding_, pool, store)) {
      auto [it, inserted] = blocks_.try_emplace(std::move(key));
      it->second.push_back(ref);
      touched.push_back(it->first);
    }
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());

  // Pairs: each new member against every other member of its blocks.
  // Duplicates (a pair meeting in several touched blocks) collapse in the
  // final sort + unique instead of a per-pair hash probe.
  CandidateList out;
  for (const std::string& key : touched) {
    const std::vector<RefId>& members = blocks_.at(key);
    if (static_cast<int>(members.size()) > options_.max_block_size) {
      // Count the block in the batch that pushed it over the cap.
      const auto old_size =
          std::lower_bound(members.begin(), members.end(), first) -
          members.begin();
      if (old_size <= options_.max_block_size) ++num_dropped_blocks_;
      continue;
    }
    for (const RefId a : members) {
      if (a < first) continue;  // Old members pair only with new ones.
      for (const RefId b : members) {
        if (b >= a) break;  // Members are in insertion (= id) order.
        out.emplace_back(b, a);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace recon
