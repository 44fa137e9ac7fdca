#include "core/solver.h"

#include <algorithm>
#include <span>

#include "runtime/parallel.h"
#include "sim/class_sim.h"
#include "util/logging.h"
#include "util/timer.h"

namespace recon {


FixedPointSolver::FixedPointSolver(const Dataset& dataset, BuiltGraph& built,
                                   const ReconcilerOptions& options,
                                   ReconcileStats* stats,
                                   BudgetTracker* budget)
    : dataset_(dataset),
      built_(built),
      graph_(*built.graph),
      options_(options),
      stats_(stats),
      own_budget_(budget == nullptr
                      ? std::make_unique<BudgetTracker>(Budget{})
                      : nullptr),
      budget_(budget != nullptr ? budget : own_budget_.get()),
      refs_(dataset.num_references()) {}

void FixedPointSolver::EnqueueNodes(const std::vector<NodeId>& nodes) {
  for (const NodeId id : nodes) {
    Node& node = graph_.mutable_node(id);
    if (node.dead || node.queued || node.state == NodeState::kNonMerge) {
      continue;
    }
    if (node.state == NodeState::kInactive) node.state = NodeState::kActive;
    node.queued = true;
    queue_.push_back(id);
  }
}

bool FixedPointSolver::StopBeforePop(int64_t* iterations,
                                     int64_t iteration_cap) {
  if (budget_->Probe(ProbePoint::kSolveCommit)) return true;
  if (*iterations >= iteration_cap) {
    // The configured budget — or, unconfigured, the convergence safety
    // cap — is spent. Either way this is the degraded-stop path, never an
    // abort: constraints and the closure still run on the frozen state.
    if (!budget_->budget().HasIterationLimit()) {
      RECON_LOG(Warning) << "Fixed point did not converge within the "
                         << iteration_cap
                         << "-iteration safety cap; freezing the solve";
    }
    budget_->ForceStop(StopReason::kIterationBudget);
    return true;
  }
  ++*iterations;
  return false;
}

void FixedPointSolver::Run() {
  const int64_t iteration_cap =
      budget_->budget().HasIterationLimit()
          ? budget_->budget().max_solver_iterations
          : 500LL * std::max(1, graph_.num_nodes()) + 1000;
  merge_cap_ = budget_->budget().HasMergeLimit()
                   ? budget_->budget().max_merges
                   : 0;
  merges_this_run_ = 0;
  int64_t iterations = 0;
  // One thread runs the same wavefront rounds inline: the schedule is a
  // pure function of the snapshot, so this keeps output and round stats
  // byte-identical across every thread count (and gives the perf bench a
  // comparable threads=1 row).
  const bool wavefront = options_.parallel_fixed_point;
  if (!wavefront) {
    // The whole sequential drain is one "round" for probing purposes; the
    // per-pop kSolveCommit probes inside the loop carry the budget checks.
    budget_->Probe(ProbePoint::kSolveRound);
    Timer timer;
    while (!queue_.empty()) {
      if (StopBeforePop(&iterations, iteration_cap)) break;
      Step(queue_.pop_front());
    }
    stats_->solve_commit_seconds += timer.ElapsedSeconds();
    stats_->solver_iterations += iterations;
    stats_->stop_reason = budget_->stop_reason();
    return;
  }

  const size_t min_frontier =
      static_cast<size_t>(std::max(1, options_.parallel_frontier_min));
  while (!queue_.empty()) {
    if (budget_->Probe(ProbePoint::kSolveRound)) break;
    if (queue_.size() >= min_frontier) {
      if (!RunWavefrontRound(&iterations, iteration_cap)) break;
    } else {
      // Short queue: a round would cost more in dispatch than it saves.
      // Drain serially until the queue refills (a propagation wave fanning
      // out) or empties. Identical semantics either way.
      Timer timer;
      bool frozen = false;
      while (!queue_.empty() && queue_.size() < min_frontier) {
        if (StopBeforePop(&iterations, iteration_cap)) {
          frozen = true;
          break;
        }
        Step(queue_.pop_front());
      }
      stats_->solve_commit_seconds += timer.ElapsedSeconds();
      if (frozen) break;
    }
  }
  stats_->solver_iterations += iterations;
  stats_->stop_reason = budget_->stop_reason();
}

bool FixedPointSolver::RunWavefrontRound(int64_t* iterations,
                                         int64_t iteration_cap) {
  if (++round_id_ == 0) ++round_id_;  // 0 marks "no record"; skip on wrap.
  const size_t max_frontier = static_cast<size_t>(
      std::max(options_.parallel_frontier_min, options_.parallel_frontier_max));
  const size_t frontier_size = std::min(queue_.size(), max_frontier);
  frontier_.resize(frontier_size);
  for (size_t i = 0; i < frontier_size; ++i) frontier_[i] = queue_[i];
  if (records_.size() < frontier_size) records_.resize(frontier_size);
  const size_t num_nodes = static_cast<size_t>(graph_.num_nodes());
  if (record_round_.size() < num_nodes) {
    record_round_.resize(num_nodes, 0);
    record_index_.resize(num_nodes, 0);
  }

  // Phase 1 — parallel score: a pure read of the graph frozen at the
  // snapshot. Each block writes only its own frontier slots, so the phase
  // is race-free and the records are independent of the block -> thread
  // assignment.
  Timer score_timer;
  runtime::ParallelForBlocked(
      options_.num_threads, 0, static_cast<int64_t>(frontier_size),
      /*grain=*/-1, [this](const runtime::Block& block) {
        for (int64_t i = block.begin; i < block.end; ++i) {
          // Cancellation / deadline probe inside the pool (read-only, no
          // counter mutation): scores are speculative, so abandoning them
          // affects wall time only — the serial check below guarantees no
          // abandoned record is ever consumed.
          if ((i - block.begin) % 64 == 0 &&
              budget_->ShouldAbandonParallelWork()) {
            return;
          }
          ScoreNode(frontier_[static_cast<size_t>(i)],
                    &records_[static_cast<size_t>(i)]);
        }
      });
  const double score_seconds = score_timer.ElapsedSeconds();
  if (budget_->ShouldAbandonParallelWork()) {
    // A pool thread (or this one) observed cancellation or the deadline:
    // some records may be unscored. Nothing was committed and nothing was
    // popped, so freezing here keeps the whole frontier queued. Both
    // conditions are sticky/monotone, so the serial re-check always
    // agrees with whatever the workers saw.
    budget_->ResolveAsyncStop();
    return false;
  }
  for (size_t i = 0; i < frontier_size; ++i) {
    record_round_[frontier_[i]] = round_id_;
    record_index_[frontier_[i]] = static_cast<uint32_t>(i);
  }
  PartitionFrontier(frontier_size);

  // Phase 2 — commit in exact canonical pop order: pop from the live
  // queue (which interleaves queue-jumping nodes enqueued by commits with
  // the rest of the frontier) until every snapshot member has been popped.
  // Pops from merge-free regions batch into the pending wave (committed,
  // concurrently across regions, when the wave flushes); a pop from a
  // heavy region — or one without a live record, jumped in mid-round or
  // re-activated after its pop — flushes the wave and then commits
  // serially, at its exact canonical position.
  const int64_t hits_before = stats_->num_score_hits;
  const int64_t rescores_before = stats_->num_serial_rescores;
  const int64_t discards_before = stats_->num_score_discards;
  Timer commit_timer;
  size_t committed = 0;
  bool frozen = false;
  while (true) {
    if (committed >= frontier_size) {
      if (!FlushWave(iterations, iteration_cap)) {
        frozen = true;
        break;
      }
      if (wave_reinject_.empty()) break;
      // The round's last wave rolled back: keep popping until its members
      // have replayed serially. None of them has consumed a probe or an
      // iteration yet (the join stops probing at the rollback point), so
      // the re-pops probe and count normally — each canonical pop exactly
      // once, like the sequential drain's.
      committed -= wave_reinject_.size();
      ReinjectWave();
    }
    // Peek before popping: when the front is not batchable (heavy region,
    // or no live record — jumped in mid-round or re-activated), the
    // pending wave must flush BEFORE the pop. A flush can commit serially
    // (lone-entry wave) and merge, and a merge's queue-jumping pushes land
    // at the queue front — canonically ahead of this node; popping first
    // would commit it past them. After the flush the loop re-examines
    // whatever the front is now (a jumper, a re-injected rollback member,
    // or the same node with the wave drained).
    const NodeId front = queue_[0];
    const bool batchable =
        record_round_[front] == round_id_ &&
        !region_heavy_[region_parent_[record_index_[front]]];
    if (batchable) {
      // No probe and no iteration here: wave pops carry their per-pop
      // budget probes at the flush join, in canonical order, so a budget
      // stop lands between the same two canonical pops as the sequential
      // drain's (light commits never change budget state, and a stop
      // rolls the tail of the wave back as if never popped).
      queue_.pop_front();
      record_round_[front] = 0;
      ++committed;
      wave_.push_back({front, record_index_[front]});
      continue;
    }
    if (!wave_.empty()) {
      if (!FlushWave(iterations, iteration_cap)) {
        frozen = true;
        break;
      }
      if (!wave_reinject_.empty()) {
        // Rolled-back members precede the front canonically; they replay
        // serially, probing and counting at their re-pops.
        committed -= wave_reinject_.size();
        ReinjectWave();
      }
      continue;
    }
    if (StopBeforePop(iterations, iteration_cap)) {
      // Freeze mid-round: uncommitted frontier nodes stay queued, and
      // their stale records are never consumed (a future round re-stamps).
      // The commit prefix equals the sequential drain's, so iteration- and
      // merge-budget stops stay byte-identical at every thread count.
      frozen = true;
      break;
    }
    const NodeId id = queue_.pop_front();
    if (record_round_[id] == round_id_) {
      record_round_[id] = 0;
      ++committed;
      StepWithRecord(id, records_[record_index_[id]]);
    } else {
      Step(id);
    }
  }
  if (frozen) {
    // A join probe may have frozen mid-wave; its rolled-back members go
    // back to the queue unexecuted, exactly as if never popped, and a
    // resumed drain re-pops them against the fresh budget epoch. The
    // serial probe site only fires with the wave already flushed.
    if (!wave_reinject_.empty()) ReinjectWave();
  }
  const double commit_seconds = commit_timer.ElapsedSeconds();

  ++stats_->num_solver_rounds;
  stats_->num_parallel_scored += static_cast<int64_t>(frontier_size);
  stats_->solve_score_seconds += score_seconds;
  stats_->solve_commit_seconds += commit_seconds;
  stats_->solve_rounds.push_back(
      {static_cast<int64_t>(frontier_size),
       stats_->num_score_hits - hits_before,
       stats_->num_serial_rescores - rescores_before,
       stats_->num_score_discards - discards_before, score_seconds,
       commit_seconds});
  return !frozen;
}

uint32_t FixedPointSolver::RegionFind(uint32_t x) {
  while (region_parent_[x] != x) {
    region_parent_[x] = region_parent_[region_parent_[x]];  // Path halving.
    x = region_parent_[x];
  }
  return x;
}

void FixedPointSolver::PartitionFrontier(size_t frontier_size) {
  const size_t num_nodes = static_cast<size_t>(graph_.num_nodes());
  if (claim_stamp_.size() < num_nodes) {
    claim_stamp_.resize(num_nodes, 0);
    claim_owner_.resize(num_nodes, 0);
  }
  if (region_ctx_stamp_.size() < frontier_size) {
    region_ctx_stamp_.resize(frontier_size, 0);
    region_ctx_id_.resize(frontier_size, 0);
  }
  region_parent_.resize(frontier_size);
  for (uint32_t i = 0; i < frontier_size; ++i) region_parent_[i] = i;

  // Claim pass: frontier index i claims its own node and every
  // out-neighbor; a node claimed twice unions the claimants. Claims cover
  // every node a merge-free commit writes (its own fields; dependents'
  // gen, cache, and queued flag) and every frontier input a re-score
  // reads: s in in(i) implies i in out(s), so any frontier writer of i's
  // inputs claimed i and shares its region.
  for (uint32_t i = 0; i < frontier_size; ++i) {
    const NodeId id = frontier_[i];
    const auto claim = [this, i](NodeId n) {
      if (claim_stamp_[n] == round_id_) {
        const uint32_t a = RegionFind(i);
        const uint32_t b = RegionFind(claim_owner_[n]);
        if (a != b) {
          // Smaller root wins: a region's id is its smallest member.
          if (a < b) {
            region_parent_[b] = a;
          } else {
            region_parent_[a] = b;
          }
        }
      } else {
        claim_stamp_[n] = round_id_;
        claim_owner_[n] = i;
      }
    };
    claim(id);
    for (const Edge& e : graph_.out_edges(id)) claim(e.node);
  }

  // Finalize roots and fold per-node merge predictions into per-region
  // heavy flags. A committing node merges only if its raised similarity
  // reaches the threshold; within a merge-free region a member's sim can
  // still rise past its snapshot score (a same-region commit feeds it), so
  // this prediction is optimistic — ExecuteWaveRegion re-checks before
  // every write and defers to the serial tail when it was wrong.
  region_heavy_.assign(frontier_size, 0);
  for (uint32_t i = 0; i < frontier_size; ++i) {
    region_parent_[i] = RegionFind(i);
    const Node& node = graph_.node(frontier_[i]);
    if (node.dead || node.state == NodeState::kNonMerge ||
        node.state == NodeState::kMerged) {
      continue;  // Discarded or merge-branch-free at commit: never heavy.
    }
    const double threshold = node.IsRefPair()
                                 ? options_.params.merge_threshold
                                 : options_.params.value_merge_threshold;
    // Predict the sim exactly as Commit would store it — raised to the
    // FLOAT cast of the score. A double score one ulp under the threshold
    // can round up across it, so comparing the double directly would
    // classify a merging commit as light.
    float predicted = node.sim;
    if (records_[i].score > predicted) {
      predicted = static_cast<float>(records_[i].score);
    }
    if (predicted >= threshold) {
      region_heavy_[region_parent_[i]] = 1;
    }
  }
}

bool FixedPointSolver::FlushWave(int64_t* iterations, int64_t iteration_cap) {
  const size_t n = wave_.size();
  if (n == 0) return true;
  if (n == 1) {
    // A lone pop gains nothing from region dispatch; StepWithRecord is the
    // identical commit at the identical position (its deferred pop probe
    // fires here, just before the commit).
    const WaveEntry entry = wave_[0];
    wave_.clear();
    if (StopBeforePop(iterations, iteration_cap)) {
      wave_reinject_.push_back(entry);
      return false;
    }
    StepWithRecord(entry.id, records_[entry.rec]);
    return true;
  }
  if (++wave_seq_ == 0) ++wave_seq_;

  // Group wave entries by region root; regions are ordered by first
  // appearance (= ascending smallest wave position, a fixed tie-break).
  num_wave_regions_ = 0;
  for (uint32_t pos = 0; pos < static_cast<uint32_t>(n); ++pos) {
    const uint32_t root = region_parent_[wave_[pos].rec];
    if (region_ctx_stamp_[root] != wave_seq_) {
      region_ctx_stamp_[root] = wave_seq_;
      region_ctx_id_[root] = static_cast<uint32_t>(num_wave_regions_);
      if (num_wave_regions_ == wave_regions_.size()) {
        wave_regions_.emplace_back();
      }
      wave_regions_[num_wave_regions_].Clear();
      ++num_wave_regions_;
    }
    wave_regions_[region_ctx_id_[root]].members.push_back(pos);
  }

  // Commit disjoint regions concurrently; grain 1 lets lanes claim the
  // next region as they free up. Members within a region run in canonical
  // order, so with one thread (inline) this is the same schedule and the
  // same result. Regions never touch a common node (the claim closure),
  // so in-wave commits are race-free and commute.
  runtime::ParallelForBlocked(
      options_.num_threads, 0, static_cast<int64_t>(num_wave_regions_),
      /*grain=*/1, [this](const runtime::Block& block) {
        for (int64_t r = block.begin; r < block.end; ++r) {
          ExecuteWaveRegion(wave_regions_[static_cast<size_t>(r)]);
        }
      });

  // Serial join. First locate the earliest threshold crossing across all
  // regions: commits at positions before it are exactly what the
  // sequential drain would have produced; everything at or after it must
  // be unwound, because the crossing commit is a merge whose side effects
  // (folds, enrichment, queue jumps) are unbounded by claims and reach
  // nodes those later commits already read.
  uint32_t p_cross = UINT32_MAX;
  for (size_t r = 0; r < num_wave_regions_; ++r) {
    const WaveRegionCtx& ctx = wave_regions_[r];
    if (ctx.deferred_from != UINT32_MAX) {
      p_cross = std::min(p_cross, ctx.members[ctx.deferred_from]);
    }
  }

  // The wave pops' deferred budget probes, one per member in canonical
  // order, stopping at the crossing (its members replay serially and probe
  // at their re-pops instead). Light commits never change budget state —
  // merges are exactly what defers — so each probe observes the same
  // state it would have seen at its pop. A stop at position p freezes the
  // drain there: the tail at >= p rolls back as if never popped, so the
  // frozen prefix equals the sequential drain's to the byte.
  uint32_t p_stop = UINT32_MAX;
  const uint32_t probe_limit =
      std::min(p_cross, static_cast<uint32_t>(n));
  for (uint32_t p = 0; p < probe_limit; ++p) {
    if (StopBeforePop(iterations, iteration_cap)) {
      p_stop = p;
      break;
    }
  }
  const bool frozen = p_stop != UINT32_MAX;
  const uint32_t p_min = frozen ? p_stop : p_cross;

  if (p_min != UINT32_MAX) {
    // Rollback: restore pre-images of every write at positions >= p_min in
    // reverse log order (regions are node-disjoint, so cross-region
    // restore order is immaterial), then clear the queued flag set by
    // dropped buffered enqueues.
    for (size_t r = 0; r < num_wave_regions_; ++r) {
      std::vector<WaveUndo>& undo = wave_regions_[r].undo;
      size_t cut = undo.size();
      while (cut > 0 && undo[cut - 1].pos >= p_min) --cut;
      for (size_t u = undo.size(); u-- > cut;) {
        graph_.mutable_node(undo[u].id) = undo[u].snapshot;
      }
    }
    for (size_t r = 0; r < num_wave_regions_; ++r) {
      for (const std::pair<uint32_t, NodeId>& enq : wave_regions_[r].enqueues) {
        if (enq.first >= p_min) graph_.mutable_node(enq.second).queued = false;
      }
    }
  }

  // Merge each region's counters at its surviving member boundary (the
  // final mark when nothing rolled back) and gather surviving enqueues.
  wave_splice_.clear();
  for (size_t r = 0; r < num_wave_regions_; ++r) {
    WaveRegionCtx& ctx = wave_regions_[r];
    const WaveMemberMark* last = nullptr;
    for (const WaveMemberMark& mark : ctx.marks) {
      if (mark.pos >= p_min) break;
      last = &mark;
    }
    if (last != nullptr) {
      stats_->num_score_hits += last->hits;
      stats_->num_serial_rescores += last->rescores;
      stats_->num_score_discards += last->discards;
      stats_->num_inedge_scans += last->scans;
      stats_->num_inedge_scans_avoided += last->avoided;
      stats_->num_cache_rebuilds += last->rebuilds;
      stats_->num_delta_pushes += last->delta_pushes;
      stats_->num_recomputations += last->recomputations;
    }
    for (const std::pair<uint32_t, NodeId>& enq : ctx.enqueues) {
      if (enq.first < p_min) wave_splice_.push_back(enq);
    }
  }
  ++stats_->num_commit_waves;
  stats_->num_commit_regions += static_cast<int64_t>(num_wave_regions_);
  stats_->num_wave_commits +=
      static_cast<int64_t>(p_min == UINT32_MAX ? n : p_min);

  // Splice: push surviving buffered enqueues exactly as the sequential
  // drain would have — ascending committing position, commit-internal
  // order preserved (a position names one commit, so the stable sort never
  // interleaves two commits' pushes).
  std::stable_sort(
      wave_splice_.begin(), wave_splice_.end(),
      [](const std::pair<uint32_t, NodeId>& a,
         const std::pair<uint32_t, NodeId>& b) { return a.first < b.first; });
  for (const std::pair<uint32_t, NodeId>& push : wave_splice_) {
    Node& node = graph_.mutable_node(push.second);
    if (node.state == NodeState::kInactive) node.state = NodeState::kActive;
    queue_.push_back(push.second);
  }

  // Stash rolled-back members for the caller to re-inject at the queue
  // front in canonical order — after any pop of its own it must re-queue
  // behind them. On a crossing, they replay serially (their regions turn
  // heavy): the crossing merge commits at its exact canonical position,
  // everything after it re-executes against post-merge state, and each
  // replayed pop probes and counts at its re-pop — the join never probed
  // it. On a frozen stop they simply stay queued for a resumed drain.
  if (p_min != UINT32_MAX) {
    wave_reinject_.assign(wave_.begin() + p_min, wave_.end());
    if (!frozen) {
      stats_->num_commit_deferrals += static_cast<int64_t>(n - p_min);
    }
  }
  wave_.clear();
  return !frozen;
}

void FixedPointSolver::ReinjectWave() {
  for (size_t j = wave_reinject_.size(); j-- > 0;) {
    const WaveEntry& entry = wave_reinject_[j];
    queue_.push_front(entry.id);
    record_round_[entry.id] = round_id_;
    record_index_[entry.id] = entry.rec;
    region_heavy_[region_parent_[entry.rec]] = 1;
  }
  wave_reinject_.clear();
}

void FixedPointSolver::ExecuteWaveRegion(WaveRegionCtx& ctx) {
  for (size_t k = 0; k < ctx.members.size(); ++k) {
    const uint32_t pos = ctx.members[k];
    const WaveEntry& entry = wave_[pos];
    Node& node = graph_.mutable_node(entry.id);
    const ScoreRecord& rec = records_[entry.rec];

    // A member's inputs can only have changed through earlier same-region
    // commits, so a stale generation stamp means a re-score is needed; run
    // it side-effect free first — if the fresh score crosses the merge
    // threshold the light prediction was wrong, execution stops with this
    // member bitwise untouched, and the join rolls the wave back to the
    // crossing position for an exact serial replay.
    const bool discard = node.dead || node.state == NodeState::kNonMerge;
    const bool hit = node.gen == rec.gen;
    EvidenceCache fresh;
    bool rebuilt = false;
    int64_t scans = 0;
    int64_t avoided = 0;
    double computed = 0;
    if (!discard && !hit) {
      computed =
          WaveRescore(entry.id, node, &fresh, &rebuilt, &scans, &avoided);
      const double threshold = node.IsRefPair()
                                   ? options_.params.merge_threshold
                                   : options_.params.value_merge_threshold;
      // Same float cast Commit applies before its threshold test: a double
      // score one ulp under the threshold can round up across it.
      float predicted = node.sim;
      if (computed > predicted) predicted = static_cast<float>(computed);
      if (predicted >= threshold && node.state != NodeState::kMerged) {
        ctx.deferred_from = static_cast<uint32_t>(k);
        return;
      }
    }

    // All writes from here on are undone via the snapshot if a later
    // member of any region crosses at an earlier position.
    ctx.undo.push_back({pos, entry.id, node});
    node.queued = false;
    if (discard) {
      ++ctx.discards;
    } else if (hit) {
      // Fresh score. A hit cannot cross the merge threshold: its inputs —
      // and therefore its score and snapshot sim — are unchanged, and the
      // region would have been classified heavy.
      if (node.state == NodeState::kActive) node.state = NodeState::kInactive;
      ++ctx.hits;
      ctx.scans += rec.scans;
      ctx.avoided += rec.avoided;
      if (rec.rebuilt) {
        ++ctx.rebuilds;
        node.cache = rec.cache;
      }
      WaveCommitLight(entry.id, node, rec.score, ctx, pos);
    } else {
      if (node.state == NodeState::kActive) node.state = NodeState::kInactive;
      if (rebuilt) {
        node.cache = fresh;
        ++ctx.rebuilds;
      }
      ctx.scans += scans;
      ctx.avoided += avoided;
      ++ctx.rescores;
      WaveCommitLight(entry.id, node, computed, ctx, pos);
    }
    ctx.marks.push_back({pos, ctx.hits, ctx.rescores, ctx.discards, ctx.scans,
                         ctx.avoided, ctx.rebuilds, ctx.delta_pushes,
                         ctx.recomputations});
  }
}

void FixedPointSolver::WaveCommitLight(NodeId id, Node& node, double computed,
                                       WaveRegionCtx& ctx, uint32_t pos) {
  ++ctx.recomputations;
  const double old_sim = node.sim;
  if (computed > node.sim) node.sim = static_cast<float>(computed);
  const bool increased = node.sim > old_sim + options_.params.epsilon;
  if (node.sim > old_sim) {
    // Dependents' generation stamps and caches are about to change;
    // snapshot them first so a wave rollback can restore their pre-images
    // (every one is claimed by this region, so no other region logs them).
    for (const Edge& e : graph_.out_edges(id)) {
      if (e.kind == DependencyKind::kRealValued) {
        ctx.undo.push_back({pos, e.node, graph_.node(e.node)});
      }
    }
    for (const Edge& e : graph_.out_edges(id)) {
      if (e.kind == DependencyKind::kRealValued) {
        ++graph_.mutable_node(e.node).gen;
      }
    }
    if (options_.evidence_cache) {
      // PushSimDelta with the context's counter.
      for (const Edge& e : graph_.out_edges(id)) {
        if (e.kind != DependencyKind::kRealValued) continue;
        EvidenceCache& cache = graph_.mutable_node(e.node).cache;
        if (!cache.valid) continue;
        cache.Offer(e.evidence, node.sim);
        ++ctx.delta_pushes;
      }
    }
  }
  if (increased && options_.propagation) {
    for (const Edge& e : graph_.out_edges(id)) {
      if (e.kind == DependencyKind::kRealValued) {
        WaveEnqueue(e.node, ctx, pos);
      }
    }
  }
}

double FixedPointSolver::WaveRescore(NodeId id, const Node& node,
                                     EvidenceCache* fresh, bool* rebuilt,
                                     int64_t* scans, int64_t* avoided) const {
  if (!options_.evidence_cache) return ComputeSimilarity(id, scans);
  if (node.forced_merge) return 1.0;
  if (!node.cache.valid) {
    BuildCacheSummary(id, fresh, scans);
    *rebuilt = true;
    return ScoreFromCache(node, *fresh);
  }
  *avoided += graph_.in_degree(id);
  return ScoreFromCache(node, node.cache);
}

void FixedPointSolver::WaveEnqueue(NodeId id, WaveRegionCtx& ctx,
                                   uint32_t pos) {
  Node& node = graph_.mutable_node(id);
  if (node.dead || node.queued || node.state == NodeState::kNonMerge) {
    return;
  }
  if (node.sim >= 1.0f) return;
  // The queued flag is the global dedup and is safe to set here — the
  // target is claimed by this region. The kInactive -> kActive flip waits
  // for the serial splice: scoring never distinguishes the two states, and
  // deferring it keeps every cross-region access during a wave on disjoint
  // fields.
  node.queued = true;
  ctx.enqueues.emplace_back(pos, id);
}

void FixedPointSolver::ScoreNode(NodeId id, ScoreRecord* rec) const {
  const Node& node = graph_.node(id);
  rec->gen = node.gen;
  rec->scans = 0;
  rec->avoided = 0;
  rec->rebuilt = false;
  rec->score = node.sim;
  // Dead and demoted nodes are skipped at commit before the score is read.
  if (node.dead || node.state == NodeState::kNonMerge) return;
  if (node.forced_merge) {
    rec->score = 1.0;  // Matches both serial paths: no scans, no rebuild.
    return;
  }
  if (options_.evidence_cache) {
    if (!node.cache.valid) {
      rec->rebuilt = true;
      BuildCacheSummary(id, &rec->cache, &rec->scans);
      rec->score = ScoreFromCache(node, rec->cache);
    } else {
      rec->avoided = graph_.in_degree(id);
      rec->score = ScoreFromCache(node, node.cache);
    }
    return;
  }
  rec->score = ComputeSimilarity(id, &rec->scans);
}

void FixedPointSolver::Step(NodeId id) {
  Node& node = graph_.mutable_node(id);
  node.queued = false;
  if (node.dead || node.state == NodeState::kNonMerge) return;
  if (node.state == NodeState::kActive) node.state = NodeState::kInactive;
  const double computed =
      options_.evidence_cache
          ? CachedSimilarity(id, node)
          : ComputeSimilarity(id, &stats_->num_inedge_scans);
  Commit(id, node, computed);
}

void FixedPointSolver::StepWithRecord(NodeId id, const ScoreRecord& rec) {
  Node& node = graph_.mutable_node(id);
  node.queued = false;
  if (node.dead || node.state == NodeState::kNonMerge) {
    ++stats_->num_score_discards;  // Folded or demoted since the snapshot.
    return;
  }
  if (node.state == NodeState::kActive) node.state = NodeState::kInactive;
  double computed;
  if (node.gen == rec.gen) {
    // No input changed since the parallel score: the recorded value and
    // stat deltas are exactly what the serial computation would produce.
    ++stats_->num_score_hits;
    computed = rec.score;
    stats_->num_inedge_scans += rec.scans;
    stats_->num_inedge_scans_avoided += rec.avoided;
    if (rec.rebuilt) {
      ++stats_->num_cache_rebuilds;
      node.cache = rec.cache;
    }
  } else {
    // An earlier commit of this round mutated an input; the parallel
    // score is stale. Re-score serially against current state.
    ++stats_->num_serial_rescores;
    computed = options_.evidence_cache
                   ? CachedSimilarity(id, node)
                   : ComputeSimilarity(id, &stats_->num_inedge_scans);
  }
  Commit(id, node, computed);
}

void FixedPointSolver::Commit(NodeId id, Node& node, double computed) {
  ++stats_->num_recomputations;
  const double old_sim = node.sim;
  // Similarities are monotone non-decreasing (§3.2 termination).
  if (computed > node.sim) node.sim = static_cast<float>(computed);
  const bool increased = node.sim > old_sim + options_.params.epsilon;

  // Any raise — even one below epsilon, which re-activates nobody — must
  // reach dependents' caches and generation stamps: a full rescan reads
  // current sims, so both have to as well.
  if (node.sim > old_sim) {
    for (const Edge& e : graph_.out_edges(id)) {
      if (e.kind == DependencyKind::kRealValued) {
        ++graph_.mutable_node(e.node).gen;
      }
    }
    if (options_.evidence_cache) PushSimDelta(id, node);
  }

  if (increased && options_.propagation) {
    for (const Edge& e : graph_.out_edges(id)) {
      if (e.kind == DependencyKind::kRealValued) Enqueue(e.node, false);
    }
  }

  const double threshold = node.IsRefPair()
                               ? options_.params.merge_threshold
                               : options_.params.value_merge_threshold;
  if (node.sim >= threshold && node.state != NodeState::kMerged) {
    node.state = NodeState::kMerged;
    ++stats_->num_merges;
    ++merges_this_run_;
    if (merge_cap_ > 0 && merges_this_run_ >= merge_cap_) {
      // The budget is spent, but this commit — deltas, propagation
      // pushes, enrichment — still completes: it is one deterministic
      // unit. The drain freezes before the next pop.
      budget_->ForceStop(StopReason::kMergeBudget);
    }
    for (const Edge& e : graph_.out_edges(id)) {
      if (e.kind != DependencyKind::kRealValued) {
        ++graph_.mutable_node(e.node).gen;  // Boolean counts changed.
      }
    }
    if (options_.evidence_cache) PushMergeDelta(id);
    if (options_.propagation) {
      // Strong-boolean dependents jump the queue (§3.2 heuristics).
      for (const Edge& e : graph_.out_edges(id)) {
        if (e.kind == DependencyKind::kStrongBoolean) {
          Enqueue(e.node, options_.strong_neighbors_jump_queue);
        }
      }
      for (const Edge& e : graph_.out_edges(id)) {
        if (e.kind == DependencyKind::kWeakBoolean) Enqueue(e.node, false);
      }
    }
    if (node.IsRefPair() && options_.enrichment) {
      EnrichReferences(id);
    }
  }
}

void FixedPointSolver::EnrichReferences(NodeId id) {
  // Capture the pair first; MergeReferences does not add nodes but the
  // node reference would alias mutable graph state.
  const RefId a = static_cast<RefId>(graph_.node(id).a);
  const RefId b = static_cast<RefId>(graph_.node(id).b);
  const int keep = refs_.Union(a, b);
  const RefId gone = (keep == a) ? b : a;
  MergeRefsResult result = graph_.MergeReferences(keep, gone);
  stats_->num_folds += static_cast<int64_t>(result.folded.size());
  for (const NodeId m : result.gained_inputs) Enqueue(m, false);
}

void FixedPointSolver::Enqueue(NodeId id, bool front) {
  Node& node = graph_.mutable_node(id);
  if (node.dead || node.queued || node.state == NodeState::kNonMerge) {
    return;
  }
  if (node.sim >= 1.0f) return;  // Cannot increase further (§3.2).
  node.queued = true;
  if (node.state == NodeState::kInactive) node.state = NodeState::kActive;
  if (front) {
    queue_.push_front(id);
  } else {
    queue_.push_back(id);
  }
}

double FixedPointSolver::ComputeSimilarity(NodeId id,
                                           int64_t* scans) const {
  const Node& node = graph_.node(id);
  if (node.forced_merge) return 1.0;  // User-confirmed match.
  if (!node.IsRefPair()) {
    // Value pairs: initial string similarity, lifted to 1 when a merged
    // strong-boolean neighbor certifies the values denote one entity
    // (Fig. 2's n6 after the venues merge).
    double sim = node.sim;
    for (const Edge& e : graph_.in_edges(id)) {
      ++*scans;
      if (e.kind == DependencyKind::kStrongBoolean &&
          graph_.node(e.node).state == NodeState::kMerged) {
        sim = 1.0;
        break;
      }
    }
    return sim;
  }

  EvidenceSummary evidence;
  for (const StaticReal& entry : graph_.static_real(id)) {
    evidence.Offer(entry.type, entry.sim);
  }
  evidence.strong_merged = node.static_strong;
  evidence.weak_merged = node.static_weak;
  *scans += graph_.in_degree(id);
  for (const Edge& e : graph_.in_edges(id)) {
    const Node& src = graph_.node(e.node);
    if (src.dead) continue;
    switch (e.kind) {
      case DependencyKind::kRealValued:
        if (src.state != NodeState::kNonMerge) {
          evidence.Offer(e.evidence, src.sim);
        }
        break;
      case DependencyKind::kStrongBoolean:
        if (src.state == NodeState::kMerged) ++evidence.strong_merged;
        break;
      case DependencyKind::kWeakBoolean:
        if (src.state == NodeState::kMerged) ++evidence.weak_merged;
        break;
    }
  }
  const ClassSimilarity* sim_fn = built_.class_sims[node.class_id].get();
  RECON_CHECK(sim_fn != nullptr)
      << "No similarity function for class " << node.class_id;
  return sim_fn->Compute(evidence);
}

double FixedPointSolver::CachedSimilarity(NodeId id, Node& node) {
  if (node.forced_merge) return 1.0;  // User-confirmed match.
  if (!node.cache.valid) {
    BuildCacheSummary(id, &node.cache, &stats_->num_inedge_scans);
    ++stats_->num_cache_rebuilds;
  } else {
    stats_->num_inedge_scans_avoided += graph_.in_degree(id);
  }
  return ScoreFromCache(node, node.cache);
}

double FixedPointSolver::ScoreFromCache(const Node& node,
                                        const EvidenceCache& cache) const {
  if (!node.IsRefPair()) {
    return cache.strong_merged > 0 ? 1.0 : node.sim;
  }
  EvidenceSummary evidence;
  for (int e = 0; e < kNumEvidence; ++e) {
    evidence.best[e] = cache.best[e];
  }
  evidence.strong_merged = cache.strong_merged;
  evidence.weak_merged = cache.weak_merged;
  const ClassSimilarity* sim_fn = built_.class_sims[node.class_id].get();
  RECON_CHECK(sim_fn != nullptr)
      << "No similarity function for class " << node.class_id;
  return sim_fn->Compute(evidence);
}

void FixedPointSolver::BuildCacheSummary(NodeId id, EvidenceCache* cache,
                                         int64_t* scans) const {
  const Node& node = graph_.node(id);
  cache->Reset();
  if (!node.IsRefPair()) {
    // Value pairs only care whether *any* strong-boolean neighbor merged;
    // stop at the first, like the uncached path does.
    for (const Edge& e : graph_.in_edges(id)) {
      ++*scans;
      if (e.kind == DependencyKind::kStrongBoolean &&
          graph_.node(e.node).state == NodeState::kMerged) {
        cache->strong_merged = 1;
        break;
      }
    }
    cache->valid = true;
    return;
  }
  for (const StaticReal& entry : graph_.static_real(id)) {
    cache->Offer(entry.type, entry.sim);
  }
  cache->strong_merged = node.static_strong;
  cache->weak_merged = node.static_weak;
  *scans += graph_.in_degree(id);
  for (const Edge& e : graph_.in_edges(id)) {
    const Node& src = graph_.node(e.node);
    if (src.dead) continue;
    switch (e.kind) {
      case DependencyKind::kRealValued:
        if (src.state != NodeState::kNonMerge) {
          cache->Offer(e.evidence, src.sim);
        }
        break;
      case DependencyKind::kStrongBoolean:
        if (src.state == NodeState::kMerged) ++cache->strong_merged;
        break;
      case DependencyKind::kWeakBoolean:
        if (src.state == NodeState::kMerged) ++cache->weak_merged;
        break;
    }
  }
  cache->valid = true;
}

void FixedPointSolver::PushSimDelta(NodeId id, const Node& node) {
  for (const Edge& e : graph_.out_edges(id)) {
    if (e.kind != DependencyKind::kRealValued) continue;
    EvidenceCache& cache = graph_.mutable_node(e.node).cache;
    if (!cache.valid) continue;  // The eventual rebuild reads node.sim.
    cache.Offer(e.evidence, node.sim);
    ++stats_->num_delta_pushes;
  }
}

void FixedPointSolver::PushMergeDelta(NodeId id) {
  for (const Edge& e : graph_.out_edges(id)) {
    if (e.kind == DependencyKind::kRealValued) continue;
    EvidenceCache& cache = graph_.mutable_node(e.node).cache;
    if (!cache.valid) continue;
    if (e.kind == DependencyKind::kStrongBoolean) {
      ++cache.strong_merged;
    } else {
      ++cache.weak_merged;
    }
    ++stats_->num_delta_pushes;
  }
}

void FixedPointSolver::PropagateNegativeEvidence(bool closure_only) {
  // Only triangles that contain a node changed since the previous pass are
  // examined. Any other triangle was examined by the previous pass with
  // the same nodes and can only repeat a demotion, so the outcome is
  // exactly the full pass's (DESIGN.md §17). Demotions made here are
  // recorded in the next epoch: the next pass examines them as sources,
  // just as a full pass would pick them up one pass later.
  DependencyGraph::ChangeSet changes = graph_.CloseChangeEpoch();
  std::vector<NodeId>& sources = changes.sources;
  if (closure_only) {
    // A demotion changes the closure only when the demoted node is merged.
    // Both demotion candidates for source (r1, r2) are adjacent to r1 or
    // r2, so when neither reference touches any merged pair the source can
    // be skipped outright.
    std::vector<char> touches_merge(dataset_.num_references(), 0);
    for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
      const Node& node = graph_.node(id);
      if (!node.dead && node.IsRefPair() &&
          node.state == NodeState::kMerged) {
        touches_merge[node.a] = 1;
        touches_merge[node.b] = 1;
      }
    }
    std::erase_if(sources, [&](NodeId id) {
      const Node& node = graph_.node(id);
      return !touches_merge[node.a] && !touches_merge[node.b];
    });
  }
  stats_->negprop_sources = static_cast<int64_t>(sources.size());
  last_demoted_.clear();

  // The changed pairs by endpoint: an unchanged source (r1, r2) meets its
  // new triangles (r1, r2, r3) through a changed (r1, r3) or (r2, r3).
  std::vector<std::pair<RefId, NodeId>> changed_at;
  for (const NodeId cid : changes.nodes) {
    const Node& c = graph_.node(cid);
    if (c.dead) continue;
    changed_at.emplace_back(c.a, cid);
    changed_at.emplace_back(c.b, cid);
  }
  std::sort(changed_at.begin(), changed_at.end());
  auto changed_pairs_at = [&changed_at](RefId r) {
    const auto first = std::lower_bound(changed_at.begin(), changed_at.end(),
                                        std::pair<RefId, NodeId>{r, 0});
    auto last = first;
    while (last != changed_at.end() && last->first == r) ++last;
    return std::span(first, last);
  };
  for (const NodeId lid : sources) {
    if (changes.all_nodes || graph_.IsNodeDirty(lid)) {
      // A changed source forms new triangles with all its neighbors.
      DemoteAcrossTriangles(lid, &last_demoted_);
      continue;
    }
    const RefId r1 = static_cast<RefId>(graph_.node(lid).a);
    const RefId r2 = static_cast<RefId>(graph_.node(lid).b);
    // The walked side (r1, r3) changed; the full pass walks it only if
    // r1's list holds it.
    for (const auto& [r, mid] : changed_pairs_at(r1)) {
      if (graph_.InRefList(r1, mid)) DemoteInTriangle(lid, mid, &last_demoted_);
    }
    // The looked-up side (r2, r3) changed; its walked partner (r1, r3)
    // must be in r1's list.
    for (const auto& [r, nid] : changed_pairs_at(r2)) {
      const RefId r3 = static_cast<RefId>(graph_.node(nid).Other(r2));
      const NodeId mid = graph_.FindRefPair(r1, r3);
      if (mid == kInvalidNode || graph_.node(mid).dead ||
          !graph_.InRefList(r1, mid)) {
        continue;
      }
      DemoteInTriangle(lid, mid, &last_demoted_);
    }
  }
}

int64_t FixedPointSolver::RecheckNegativeEvidence() {
  // Every source the latest pass started from: all non-merge pairs except
  // the ones that pass demoted itself (the next pass's sources).
  std::vector<char> excluded(static_cast<size_t>(graph_.num_nodes()), 0);
  for (const NodeId id : last_demoted_) excluded[id] = 1;
  std::vector<NodeId> demoted;
  for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
    const Node& node = graph_.node(id);
    if (!node.dead && node.IsRefPair() &&
        node.state == NodeState::kNonMerge && !excluded[id]) {
      DemoteAcrossTriangles(id, &demoted);
    }
  }
  return static_cast<int64_t>(demoted.size());
}

void FixedPointSolver::DemoteAcrossTriangles(NodeId lid,
                                             std::vector<NodeId>* demoted) {
  // Demotions leave the reference lists alone, so the span stays valid.
  for (const NodeId mid : graph_.NodesOfRef(graph_.node(lid).a)) {
    DemoteInTriangle(lid, mid, demoted);
  }
}

void FixedPointSolver::DemoteInTriangle(NodeId lid, NodeId mid,
                                        std::vector<NodeId>* demoted) {
  if (mid == lid) return;
  const Node& l = graph_.node(lid);
  const Node& m = graph_.node(mid);
  if (m.dead || !m.IsRefPair()) return;
  const RefId r1 = static_cast<RefId>(l.a);
  const RefId r2 = static_cast<RefId>(l.b);
  const RefId r3 = static_cast<RefId>(m.Other(r1));
  if (r3 == r2) return;
  const NodeId nid = graph_.FindRefPair(r2, r3);
  if (nid == kInvalidNode) return;
  const Node& n = graph_.node(nid);
  if (n.dead) return;
  // Demote the weaker side so r1 and r2 cannot be glued through r3
  // (deterministic tie-break on node id). SetNodeState invalidates
  // dependent caches: a non-merge source no longer contributes
  // real-valued evidence, which matters if the solver is re-entered.
  const NodeId lower =
      (m.sim > n.sim || (m.sim == n.sim && mid < nid)) ? nid : mid;
  if (graph_.SetNodeState(lower, NodeState::kNonMerge)) {
    demoted->push_back(lower);
  }
}

std::vector<int> FixedPointSolver::Closure(
    std::vector<std::pair<RefId, RefId>>* merged_pairs) const {
  UnionFind closure(dataset_.num_references());
  for (NodeId id = 0; id < graph_.num_nodes(); ++id) {
    const Node& node = graph_.node(id);
    if (node.dead || !node.IsRefPair()) continue;
    if (node.state == NodeState::kMerged) {
      closure.Union(node.a, node.b);
      if (merged_pairs != nullptr) {
        merged_pairs->emplace_back(static_cast<RefId>(node.a),
                                   static_cast<RefId>(node.b));
      }
    }
  }
  // Canonicalize every cluster to its smallest member. Raw union-find
  // representatives depend on union order (union by size), so equivalent
  // merge sequences could label the same partition differently; the
  // minimum member is a stable, order-independent id that byte-identity
  // contracts (src/shard/, incremental flushes) can compare directly.
  std::vector<int> cluster(dataset_.num_references());
  std::vector<int> canonical(dataset_.num_references(), -1);
  for (int i = 0; i < dataset_.num_references(); ++i) {
    const int root = closure.Find(i);
    if (canonical[root] < 0) canonical[root] = i;  // Ascending i: minimum.
    cluster[i] = canonical[root];
  }
  return cluster;
}

}  // namespace recon
