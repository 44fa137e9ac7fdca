// Snapshot publish from the previous generation (DESIGN.md §12): after
// every flush of an incremental ingest, the snapshot built from the
// previous one — sharing the entities the flush left alone — must equal a
// snapshot built from scratch from the same state: entities, profiles,
// links, the candidate index, and the bytes of a fixed set of /reconcile
// answers. The PIM B ingest includes a flush that splits a published
// cluster, and in a run at max_block_size=8 blocks grow past the cap. A
// hand-made sequence moves one block across the cap both ways.
//
// Under TSan (`ctest -L tsan`) a reader thread queries each snapshot while
// the next one is built from it.

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/incremental.h"
#include "core/schema_binding.h"
#include "ingest_replay.h"
#include "service/handlers.h"
#include "service/snapshot.h"

namespace recon::service {
namespace {

using replay::ReplayIngest;
using replay::ShuffledCora;
using replay::ShuffledPimB;

int NameAttribute(const SchemaBinding& b, int class_id) {
  if (class_id == b.person) return b.person_name;
  if (class_id == b.article) return b.article_title;
  if (class_id == b.venue) return b.venue_name;
  return -1;
}

/// Queries drawn from every 23rd reference of `full`: its name-like value
/// under its class, an atomic property where the class has one, and every
/// fifth one untyped.
QueryBatch FixedQueries(const Dataset& full) {
  const Schema& schema = full.schema();
  const SchemaBinding binding = SchemaBinding::Resolve(schema);
  QueryBatch batch;
  for (RefId id = 0; id < full.num_references(); id += 23) {
    const Reference& ref = full.reference(id);
    const int name_attr = NameAttribute(binding, ref.class_id());
    if (name_attr < 0 || ref.atomic_values(name_attr).empty()) continue;
    const ClassDef& cls = schema.class_def(ref.class_id());
    ReconQuery query;
    query.text = ref.atomic_values(name_attr).front();
    if (batch.size() % 5 != 4) query.type = cls.name;
    for (int attr = 0; attr < cls.num_attributes(); ++attr) {
      if (attr == name_attr || cls.attributes[attr].kind != AttrKind::kAtomic ||
          ref.atomic_values(attr).empty()) {
        continue;
      }
      query.properties.emplace_back(cls.attributes[attr].name,
                                    ref.atomic_values(attr).front());
      break;
    }
    batch.emplace_back("q" + std::to_string(id), std::move(query));
  }
  return batch;
}

std::string Answer(const std::shared_ptr<const Snapshot>& snapshot,
                   const QueryBatch& batch) {
  BatchAnswer answer;
  answer.snapshot = snapshot;
  for (const auto& [id, query] : batch) {
    answer.results.push_back(snapshot->Query(query));
  }
  return RenderReconcileBody(batch, answer);
}

void ExpectSameSnapshot(const Snapshot& got, const Snapshot& want) {
  ASSERT_EQ(got.num_entities(), want.num_entities());
  ASSERT_EQ(got.num_references(), want.num_references());
  EXPECT_EQ(got.num_blocking_keys(), want.num_blocking_keys());
  for (RefId r = 0; r < want.num_references(); ++r) {
    ASSERT_EQ(got.EntityOfRef(r), want.EntityOfRef(r)) << "ref " << r;
  }
  const Schema& schema = want.schema();
  for (EntityId e = 0; e < want.num_entities(); ++e) {
    const EntityInfo& a = got.entity(e);
    const EntityInfo& b = want.entity(e);
    ASSERT_EQ(a.class_id, b.class_id) << "entity " << e;
    EXPECT_EQ(a.members, b.members) << "entity " << e;
    EXPECT_EQ(a.display_name, b.display_name) << "entity " << e;
    for (int attr = 0; attr < schema.class_def(b.class_id).num_attributes();
         ++attr) {
      EXPECT_EQ(got.profile(e).atomic_values(attr),
                want.profile(e).atomic_values(attr))
          << "entity " << e << " attr " << attr;
      EXPECT_EQ(got.linked(e, attr), want.linked(e, attr))
          << "entity " << e << " attr " << attr;
    }
  }
  EXPECT_EQ(got.Blocks(), want.Blocks());
}

/// True when some entity of `before` has its members in more than one
/// entity of `after`.
bool SplitsAnEntity(const Snapshot& before, const Snapshot& after) {
  for (EntityId e = 0; e < before.num_entities(); ++e) {
    const std::vector<RefId>& members = before.entity(e).members;
    for (const RefId r : members) {
      if (after.EntityOfRef(r) != after.EntityOfRef(members.front())) {
        return true;
      }
    }
  }
  return false;
}

void ExpectPublishEqualsRebuild(const Dataset& full, const std::string& name,
                                int max_block_size, bool expect_split) {
  const QueryBatch queries = FixedQueries(full);
  ASSERT_GT(queries.size(), 10u);
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(name + " threads=" + std::to_string(threads) +
                 " max_block_size=" + std::to_string(max_block_size));
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.premerge_equal_emails = false;
    options.num_threads = threads;
    options.max_block_size = max_block_size;
    std::shared_ptr<const Snapshot> previous;
    int splitting_flushes = 0;
    int shared_flushes = 0;
    ReplayIngest(
        full, options, 16, [&](IncrementalReconciler& reconciler, int flush) {
          SCOPED_TRACE("flush " + std::to_string(flush));
          const std::vector<int>& clusters = reconciler.clusters();
          // A reader keeps querying the previous generation while the next
          // one is built from it.
          std::string reader_answer;
          std::thread reader;
          if (previous != nullptr) {
            reader = std::thread(
                [&] { reader_answer = Answer(previous, queries); });
          }
          const std::shared_ptr<const Snapshot> published =
              BuildSnapshot(reconciler.dataset(), clusters, options,
                            static_cast<uint64_t>(flush), previous.get());
          if (reader.joinable()) reader.join();
          const std::shared_ptr<const Snapshot> fresh =
              BuildSnapshot(reconciler.dataset(), clusters, options,
                            static_cast<uint64_t>(flush));
          ExpectSameSnapshot(*published, *fresh);
          EXPECT_EQ(Answer(published, queries), Answer(fresh, queries));
          EXPECT_EQ(fresh->entities_rebuilt(), fresh->num_entities());
          if (previous != nullptr) {
            EXPECT_EQ(reader_answer, Answer(previous, queries));
            if (SplitsAnEntity(*previous, *published)) ++splitting_flushes;
            if (published->entities_rebuilt() <
                published->num_entities() / 4) {
              ++shared_flushes;
            }
          }
          previous = published;
        });
    // A 16-reference flush rebuilds a small share of the entities.
    EXPECT_EQ(shared_flushes, 16);
    if (expect_split) {
      EXPECT_GT(splitting_flushes, 0);
    }
  }
}

// Shuffle 10 of PIM B 0.025x splits a published cluster within 16 flushes
// (see IncrementalClosureTest).
TEST(SnapshotIncrementalTest, PimBPublishEqualsRebuild) {
  ExpectPublishEqualsRebuild(ShuffledPimB(/*seed=*/10), "PIM-B", 1000,
                             /*expect_split=*/true);
}

TEST(SnapshotIncrementalTest, PimBPublishEqualsRebuildAtBlockCap8) {
  ExpectPublishEqualsRebuild(ShuffledPimB(/*seed=*/4), "PIM-B", 8,
                             /*expect_split=*/false);
}

TEST(SnapshotIncrementalTest, CoraPublishEqualsRebuild) {
  ExpectPublishEqualsRebuild(ShuffledCora(), "Cora", 1000,
                             /*expect_split=*/false);
}

// Three Smiths share the "smith" name block. Under a cap of two it is
// dropped while they are three entities, serves once two of them merge,
// and is dropped again when they split; a fourth reference joins on the
// way. Each generation is built from the previous one.
TEST(SnapshotIncrementalTest, BlocksCrossTheCapBothWays) {
  Dataset data(BuildPimSchema());
  const Schema& schema = data.schema();
  const int person = schema.RequireClass("Person");
  const int name = schema.RequireAttribute(person, "name");
  for (const char* n : {"Ann Smith", "A. Smith", "Bo Smith"}) {
    const RefId r = data.NewReference(person, 0);
    data.mutable_reference(r).AddAtomicValue(name, n);
  }
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  options.max_block_size = 2;
  auto smiths = [](const Snapshot& snapshot) {
    const auto blocks = snapshot.Blocks();
    const auto it = blocks.find(std::to_string(snapshot.entity(0).class_id) +
                                "|n:smith");
    return it == blocks.end() ? std::vector<EntityId>{} : it->second;
  };
  std::shared_ptr<const Snapshot> previous;
  auto publish = [&](const std::vector<int>& clusters) {
    SCOPED_TRACE("generation " + std::to_string(clusters.size()));
    auto published = BuildSnapshot(data, clusters, options, 0, previous.get());
    ExpectSameSnapshot(*published, *BuildSnapshot(data, clusters, options, 0));
    previous = published;
  };
  publish({0, 1, 2});
  EXPECT_TRUE(smiths(*previous).empty());
  publish({0, 0, 2});
  EXPECT_EQ(smiths(*previous), (std::vector<EntityId>{0, 1}));
  EXPECT_EQ(previous->entities_rebuilt(), 1);
  publish({0, 1, 2});
  EXPECT_TRUE(smiths(*previous).empty());
  const RefId late = data.NewReference(person, 1);
  data.mutable_reference(late).AddAtomicValue(name, "Cy Smith");
  publish({0, 0, 0, 3});
  EXPECT_EQ(smiths(*previous), (std::vector<EntityId>{0, 1}));
  EXPECT_EQ(previous->entities_rebuilt(), 2);
}

}  // namespace
}  // namespace recon::service
