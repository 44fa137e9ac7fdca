#include "core/candidates.h"

#include <algorithm>
#include <optional>
#include <string>

#include "runtime/parallel.h"
#include "sim/value_store.h"
#include "strsim/email.h"
#include "strsim/person_name.h"
#include "strsim/venue.h"
#include "util/string_util.h"

namespace recon {

namespace {

/// Precomputed features of an interned value, or null when no store is in
/// play or the store does not cover it.
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

// Each Append*Keys reads value features through `read(attr, index)`, the
// analysis of r.atomic_values(attr)[index] (KeysOf); none parses a raw
// string.
template <typename Read>
void AppendPersonKeys(const Reference& r, const SchemaBinding& binding,
                      const Read& read, std::vector<std::string>& keys) {
  if (binding.person_name >= 0) {
    const size_t num_names = r.atomic_values(binding.person_name).size();
    for (size_t i = 0; i < num_names; ++i) {
      const strsim::PersonName& name = read(binding.person_name, i).name;
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
    const size_t num_emails = r.atomic_values(binding.person_email).size();
    for (size_t i = 0; i < num_emails; ++i) {
      const strsim::EmailAddress& email = read(binding.person_email, i).email;
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

template <typename Read>
void AppendArticleKeys(const Reference& r, const SchemaBinding& binding,
                       const Read& read, std::vector<std::string>& keys) {
  if (binding.article_title < 0) return;
  const size_t num_titles = r.atomic_values(binding.article_title).size();
  for (size_t i = 0; i < num_titles; ++i) {
    const std::vector<std::string>& tokens =
        read(binding.article_title, i).title.tokens;
    for (const std::string& token : tokens) {
      if (token.size() < 3 || IsDigits(token)) continue;
      keys.push_back(kTitleSpace + token);
    }
  }
}

template <typename Read>
void AppendVenueKeys(const Reference& r, const SchemaBinding& binding,
                     const Read& read, std::vector<std::string>& keys) {
  if (binding.venue_name < 0) return;
  const size_t num_names = r.atomic_values(binding.venue_name).size();
  for (size_t i = 0; i < num_names; ++i) {
    const strsim::VenueFeatures& venue = read(binding.venue_name, i).venue;
    for (const std::string& token : venue.expanded) {
      keys.push_back(kVenueSpace + token);
    }
    if (venue.acronym.size() >= 3) keys.push_back(kVenueSpace + venue.acronym);
  }
}

/// Keys of `r`. `lookup(attr, index)` supplies the precomputed analysis of
/// r.atomic_values(attr)[index] or null; a miss is analyzed here with the
/// kind MakeValueKindSchema gives its domain, which is the analysis a
/// ValueStore holds, so keys are the same with or without precomputed
/// features.
template <typename Lookup>
std::vector<std::string> KeysOf(const Reference& r,
                                const SchemaBinding& binding,
                                const Lookup& lookup) {
  std::optional<ValueKindSchema> kinds;
  ValueFeatures miss;  // Valid until the next miss.
  auto read = [&](int attr, size_t index) -> const ValueFeatures& {
    if (const ValueFeatures* f = lookup(attr, index)) return *f;
    if (!kinds) kinds = MakeValueKindSchema(binding);
    miss = AnalyzeValue(r.atomic_values(attr)[index],
                        kinds->KindOf(ValueDomain{r.class_id(), attr}));
    return miss;
  };
  std::vector<std::string> keys;
  const int class_id = r.class_id();
  if (class_id == binding.person) {
    AppendPersonKeys(r, binding, read, keys);
  } else if (class_id == binding.article) {
    AppendArticleKeys(r, binding, read, keys);
  } else if (class_id == binding.venue) {
    AppendVenueKeys(r, binding, read, keys);
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
  return KeysOf(r, binding, [&](int attr, size_t index) {
    return FindFeatures(pool, store, ValueDomain{r.class_id(), attr},
                        r.atomic_values(attr)[index]);
  });
}

std::vector<std::string> BlockingKeys(
    const Reference& ref, const SchemaBinding& binding,
    const std::vector<std::vector<ValueFeatures>>& features) {
  return KeysOf(ref, binding,
                [&](int attr, size_t index) -> const ValueFeatures* {
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
  if (num_dropped_blocks != nullptr) *num_dropped_blocks = 0;

  if (!options.use_blocking) {
    // All same-class pairs, for small datasets and ablations; probe per
    // class (batch boundary) so a budget stop truncates to a class prefix.
    CandidateList out;
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

  CandidateIndex index(binding, options);
  CandidateList out = index.AddReferences(dataset, 0, pool, store, budget);
  if (num_dropped_blocks != nullptr) {
    *num_dropped_blocks = index.num_dropped_blocks();
  }
  return out;
}

CandidateList CandidateIndex::AddReferences(const Dataset& dataset,
                                            RefId first,
                                            const ValuePool* pool,
                                            const ValueStore* store,
                                            BudgetTracker* budget) {
  // Key extraction (parsing-heavy) runs in parallel; each reference writes
  // its own slot, so no synchronization is needed. A small flush is one
  // grain and runs inline.
  const RefId num_refs = dataset.num_references();
  std::vector<std::vector<std::string>> keys_of(
      static_cast<size_t>(std::max(0, num_refs - first)));
  runtime::ParallelFor(num_threads_, first, num_refs, /*grain=*/256,
                       [&](int64_t ref) {
                         if (budget != nullptr && ((ref - first) % 256) == 0 &&
                             budget->ShouldAbandonParallelWork()) {
                           return;
                         }
                         keys_of[ref - first] =
                             BlockingKeys(dataset, static_cast<RefId>(ref),
                                          binding_, pool, store);
                       });
  if (budget != nullptr) budget->ResolveAsyncStop();

  // Serial index build in reference order, so member lists stay sorted by
  // id at every thread count. The batch first touches a block when the
  // block is empty or its last member predates the batch; map values are
  // node-stable, so the member list itself is remembered. Probing every
  // 256 references, a budget stop truncates blocking to a reference-id
  // prefix.
  std::vector<const std::vector<RefId>*> touched;
  for (RefId ref = first; ref < num_refs; ++ref) {
    if (budget != nullptr && ((ref - first) % 256) == 0 &&
        budget->Probe(ProbePoint::kCandidates)) {
      break;
    }
    for (std::string& key : keys_of[ref - first]) {
      std::vector<RefId>& members = blocks_[std::move(key)];
      if (members.empty() || members.back() < first) {
        touched.push_back(&members);
      }
      members.push_back(ref);
    }
  }

  // Count the blocks this batch pushed over the cap, and size the output
  // from the rest, before any pair is emitted.
  auto old_size_of = [first](const std::vector<RefId>& members) {
    return static_cast<size_t>(
        std::lower_bound(members.begin(), members.end(), first) -
        members.begin());
  };
  const size_t cap = static_cast<size_t>(std::max(0, max_block_size_));
  size_t reserve = 0;
  for (const std::vector<RefId>* members : touched) {
    const size_t n = members->size();
    const size_t old_size = old_size_of(*members);
    if (n > cap) {
      if (old_size <= cap) ++num_dropped_blocks_;
      continue;
    }
    const size_t fresh = n - old_size;  // At least one: the block is touched.
    reserve += fresh * (fresh - 1) / 2 + fresh * old_size;
  }

  // Pairs: each new member against every other member of its blocks, row
  // by row, which hands the sort a mostly ordered input. Duplicates (a
  // pair meeting in several blocks) collapse in the final sort + unique,
  // for a fraction of the cost of a hash probe per emitted pair.
  CandidateList out;
  out.reserve(reserve);
  for (size_t t = 0; t < touched.size(); ++t) {
    // Batch boundary: one probe per 64 touched blocks.
    if (budget != nullptr && (t % 64) == 0 &&
        budget->Probe(ProbePoint::kCandidates)) {
      break;
    }
    const std::vector<RefId>& members = *touched[t];
    const size_t n = members.size();
    if (n > cap) continue;
    const size_t old_size = old_size_of(members);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = std::max(i + 1, old_size); j < n; ++j) {
        out.emplace_back(members[i], members[j]);
      }
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace recon
