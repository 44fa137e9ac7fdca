// Tests for the parallel execution runtime (src/runtime/) and for the
// end-to-end guarantee it must uphold: reconciliation output is identical
// for every thread count. Registered with the ctest label `tsan` so the
// whole file can run under ThreadSanitizer (-DRECON_SANITIZE=thread).

#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/candidates.h"
#include "core/reconciler.h"
#include "core/schema_binding.h"
#include "datagen/pim_generator.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace recon {
namespace {

// ---- Thread pool -----------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  runtime::ThreadPool pool(4);
  std::atomic<int> ran{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  // The destructor drains the queues before joining; nothing to wait on
  // here beyond scope exit.
  while (ran.load() < 1000) {
    if (!pool.RunOneTask()) std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 1000);
}

TEST(ThreadPoolTest, ShutdownDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    runtime::ThreadPool pool(2);
    for (int i = 0; i < 500; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
  }  // Destructor must run all 500 before joining.
  EXPECT_EQ(ran.load(), 500);
}

TEST(ThreadPoolTest, StartupShutdownUnderContention) {
  // Many short-lived pools, each bombarded from several submitter threads,
  // exercise the sleep/wake and shutdown paths.
  for (int round = 0; round < 10; ++round) {
    std::atomic<int> ran{0};
    {
      runtime::ThreadPool pool(3);
      std::vector<std::thread> submitters;
      for (int s = 0; s < 3; ++s) {
        submitters.emplace_back([&pool, &ran] {
          for (int i = 0; i < 50; ++i) {
            pool.Submit([&ran] { ran.fetch_add(1); });
          }
        });
      }
      for (std::thread& submitter : submitters) submitter.join();
    }
    EXPECT_EQ(ran.load(), 150);
  }
}

TEST(ThreadPoolTest, ExternalRunOneTaskRunsQueuedTasks) {
  runtime::ThreadPool pool(1);
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&ran] { ran.fetch_add(1); });
  }
  // The external caller competes with the single worker for the tasks.
  while (ran.load() < 100) {
    if (!pool.RunOneTask()) std::this_thread::yield();
  }
  EXPECT_EQ(ran.load(), 100);
}

// ---- ParallelFor -----------------------------------------------------------

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  for (const int threads : {1, 2, 4, 8}) {
    for (const int64_t grain : {0, 1, 3, 1000}) {
      std::vector<std::atomic<int>> hits(257);
      for (auto& hit : hits) hit.store(0);
      runtime::ParallelFor(threads, 0, 257, grain,
                           [&](int64_t i) { hits[i].fetch_add(1); });
      for (size_t i = 0; i < hits.size(); ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " threads "
                                     << threads << " grain " << grain;
      }
    }
  }
}

TEST(ParallelForTest, EmptyAndTinyRanges) {
  std::atomic<int> hits{0};
  runtime::ParallelFor(4, 0, 0, 8, [&](int64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 0);
  runtime::ParallelFor(4, 5, 5, 8, [&](int64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 0);
  runtime::ParallelFor(4, 7, 3, 8, [&](int64_t) { hits.fetch_add(1); });
  EXPECT_EQ(hits.load(), 0) << "reversed range must be empty";
  // Range smaller than one grain: everything lands in block 0, lane 0.
  std::vector<int> lanes;
  runtime::ParallelForBlocked(8, 0, 3, 100,
                              [&](const runtime::Block& block) {
                                lanes.push_back(static_cast<int>(block.lane));
                              });
  ASSERT_EQ(lanes.size(), 1u);
  EXPECT_EQ(lanes[0], 0);
}

TEST(ParallelForTest, NonZeroBeginAndUnevenGrain) {
  std::vector<std::atomic<int>> hits(100);
  for (auto& hit : hits) hit.store(0);
  runtime::ParallelFor(3, 10, 100, 7,
                       [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(hits[i].load(), i >= 10 ? 1 : 0) << "index " << i;
  }
}

TEST(ParallelForTest, ExceptionPropagatesAndPoolSurvives) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        runtime::ParallelFor(threads, 0, 1000, 1,
                             [](int64_t i) {
                               if (i == 417) {
                                 throw std::runtime_error("boom");
                               }
                             }),
        std::runtime_error)
        << "threads " << threads;
  }
  // The shared pool must still work after a cancelled loop.
  std::atomic<int64_t> sum{0};
  runtime::ParallelFor(4, 0, 100, 1, [&](int64_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ParallelForTest, NestedLoopsDoNotDeadlock) {
  // More lanes than pool workers at every level; the waiting threads must
  // help drain instead of blocking.
  std::atomic<int> hits{0};
  runtime::ParallelFor(8, 0, 8, 1, [&](int64_t) {
    runtime::ParallelFor(8, 0, 16, 1, [&](int64_t) {
      runtime::ParallelFor(4, 0, 4, 1, [&](int64_t) { hits.fetch_add(1); });
    });
  });
  EXPECT_EQ(hits.load(), 8 * 16 * 4);
}

// ---- End-to-end determinism ------------------------------------------------

Dataset SmallPim() {
  datagen::PimConfig config = datagen::PimConfigA();
  config = datagen::ScaleConfig(config, 0.05);
  return datagen::GeneratePim(config);
}

TEST(RuntimeIntegrationTest, CandidatesIdenticalAcrossThreadCounts) {
  const Dataset dataset = SmallPim();
  const SchemaBinding binding = SchemaBinding::Resolve(dataset.schema());
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.num_threads = 1;
  const CandidateList serial = GenerateCandidates(dataset, binding, options);
  EXPECT_FALSE(serial.empty());
  for (const int threads : {2, 8}) {
    options.num_threads = threads;
    EXPECT_EQ(GenerateCandidates(dataset, binding, options), serial)
        << "threads " << threads;
  }
}

TEST(RuntimeIntegrationTest, ReconcilerOutputIdenticalAcrossThreadCounts) {
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.num_threads = 1;
  const ReconcileResult serial = Reconciler(options).Run(dataset);

  for (const int threads : {2, 8}) {
    options.num_threads = threads;
    const ReconcileResult parallel = Reconciler(options).Run(dataset);
    // Byte-identical partitions and identical merge bookkeeping.
    EXPECT_EQ(parallel.cluster, serial.cluster) << "threads " << threads;
    EXPECT_EQ(parallel.merged_pairs, serial.merged_pairs)
        << "threads " << threads;
    EXPECT_EQ(parallel.stats.num_merges, serial.stats.num_merges);
    EXPECT_EQ(parallel.stats.num_candidates, serial.stats.num_candidates);
    EXPECT_EQ(parallel.stats.num_nodes, serial.stats.num_nodes);
    EXPECT_EQ(parallel.stats.num_edges, serial.stats.num_edges);
    for (int c = 0; c < dataset.schema().num_classes(); ++c) {
      EXPECT_EQ(parallel.PartitionsOfClass(dataset, c),
                serial.PartitionsOfClass(dataset, c))
          << "class " << c << " threads " << threads;
    }
  }
}

TEST(RuntimeIntegrationTest, ZeroMeansHardwareConcurrency) {
  const Dataset dataset = SmallPim();
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.num_threads = 1;
  const std::vector<int> serial = Reconciler(options).Run(dataset).cluster;
  options.num_threads = 0;  // All hardware threads.
  EXPECT_EQ(Reconciler(options).Run(dataset).cluster, serial);
}

}  // namespace
}  // namespace recon
