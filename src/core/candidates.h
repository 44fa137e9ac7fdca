// Candidate pair generation by inverted-index blocking (paper §3.1): a
// dependency-graph node is only built for reference pairs that share at
// least one blocking key (a name token, an email account, a rare title
// token, ...). Blocks over ReconcilerOptions::max_block_size contribute no
// pairs and are counted. One index implements blocking: a batch run is the
// first batch of a CandidateIndex, an incremental flush a later one.

#ifndef RECON_CORE_CANDIDATES_H_
#define RECON_CORE_CANDIDATES_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/schema_binding.h"
#include "model/dataset.h"
#include "util/budget.h"

namespace recon {

class ValuePool;
class ValueStore;
struct ValueFeatures;

/// Same-class reference pairs worth comparing, deduplicated, each with
/// first < second.
using CandidateList = std::vector<std::pair<RefId, RefId>>;

/// Generates candidate pairs for all classes of `dataset`.
/// With options.use_blocking == false, returns all same-class pairs.
/// Otherwise this is the first batch of a fresh CandidateIndex, which
/// probes `budget` as documented there. Keys are computed from value
/// features: when `pool`/`store` are given (values interned and synced
/// beforehand, as the graph builder does) they are read from the store,
/// and any value the store does not cover is analyzed with AnalyzeValue,
/// so the keys are identical either way. `num_dropped_blocks` (optional)
/// receives the number of blocks over options.max_block_size.
CandidateList GenerateCandidates(const Dataset& dataset,
                                 const SchemaBinding& binding,
                                 const ReconcilerOptions& options,
                                 BudgetTracker* budget = nullptr,
                                 const ValuePool* pool = nullptr,
                                 const ValueStore* store = nullptr,
                                 int64_t* num_dropped_blocks = nullptr);

/// Blocking keys of one reference (exposed for tests): lowercased name
/// tokens (nickname-canonicalized), parsed last names, email account cores,
/// title tokens, venue content tokens and acronyms, depending on class.
/// `pool`/`store` (optional) supply precomputed value features; values
/// without one are analyzed with AnalyzeValue, so keys are identical with
/// or without them.
std::vector<std::string> BlockingKeys(const Dataset& dataset, RefId ref,
                                      const SchemaBinding& binding,
                                      const ValuePool* pool = nullptr,
                                      const ValueStore* store = nullptr);

/// The same keys for a reference whose values are analyzed already:
/// `features[attr][i]` is the analysis of `ref.atomic_values(attr)[i]`
/// (values without an analysis, `features` empty included, are analyzed
/// with AnalyzeValue).
std::vector<std::string> BlockingKeys(
    const Reference& ref, const SchemaBinding& binding,
    const std::vector<std::vector<ValueFeatures>>& features);

/// Incrementally maintained blocking index: add batches of references and
/// get back the candidate pairs each batch introduces. GenerateCandidates
/// is its first batch; the incremental reconciler feeds it every flush.
class CandidateIndex {
 public:
  CandidateIndex(SchemaBinding binding, const ReconcilerOptions& options)
      : binding_(binding),
        max_block_size_(options.max_block_size),
        num_threads_(options.num_threads) {}

  /// Indexes references [first, dataset.num_references()) and returns the
  /// deduplicated, sorted candidate pairs involving at least one of them.
  /// Blocks over options.max_block_size contribute no pairs. Key
  /// extraction runs on options.num_threads; the index build and the pair
  /// expansion are serial. `pool`/`store` (optional) supply precomputed
  /// features for the new references' values.
  ///
  /// `budget` (optional) is probed at kCandidates every 256 references of
  /// the index build and every 64 touched blocks of the expansion, the
  /// same probes at every thread count (DESIGN.md §10). A stop truncates
  /// the batch to the pairs produced so far — and leaves the index holding
  /// a partial batch, so only a caller that discards the index (as
  /// GenerateCandidates does) should pass one.
  CandidateList AddReferences(const Dataset& dataset, RefId first,
                              const ValuePool* pool = nullptr,
                              const ValueStore* store = nullptr,
                              BudgetTracker* budget = nullptr);

  /// Blocks over options.max_block_size so far, each counted once, in the
  /// batch where it first exceeded the cap. Counted before pair expansion,
  /// so a budget stop during expansion does not change it.
  int64_t num_dropped_blocks() const { return num_dropped_blocks_; }

 private:
  SchemaBinding binding_;
  int max_block_size_;
  int num_threads_;
  std::unordered_map<std::string, std::vector<RefId>> blocks_;
  int64_t num_dropped_blocks_ = 0;
};

}  // namespace recon

#endif  // RECON_CORE_CANDIDATES_H_
