// Tests for the reconciliation service layer (DESIGN.md §12): snapshot
// construction, OpenRefine-shaped query scoring, ingest under snapshot
// isolation, and — the part worth running under TSan (`ctest -L tsan`) —
// concurrent query threads racing a live ingest/flush loop.

#include <stdlib.h>

#include <atomic>
#include <bit>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/graph_builder.h"
#include "core/reconciler.h"
#include "core/schema_binding.h"
#include "datagen/pim_generator.h"
#include "service/handlers.h"
#include "service/service.h"
#include "service/snapshot.h"
#include "sim/params.h"
#include "util/json.h"

namespace recon::service {
namespace {

/// Three persons: two spellings of Alice sharing an email (they must
/// reconcile), plus an unrelated Bob.
Dataset SmallPersonDataset() {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const int name = data.schema().RequireAttribute(person, "name");
  const int email = data.schema().RequireAttribute(person, "email");
  const RefId a = data.NewReference(person, 0);
  data.mutable_reference(a).AddAtomicValue(name, "Alice Smith");
  data.mutable_reference(a).AddAtomicValue(email, "alice@x.edu");
  const RefId b = data.NewReference(person, 0);
  data.mutable_reference(b).AddAtomicValue(name, "A. Smith");
  data.mutable_reference(b).AddAtomicValue(email, "alice@x.edu");
  const RefId c = data.NewReference(person, 1);
  data.mutable_reference(c).AddAtomicValue(name, "Bob Jones");
  data.mutable_reference(c).AddAtomicValue(email, "bob@y.edu");
  return data;
}

ServiceOptions DefaultOptions() {
  ServiceOptions options;
  options.reconciler = ReconcilerOptions::DepGraph();
  return options;
}

Reference MakePerson(const Schema& schema, const std::string& name,
                     const std::string& email) {
  const int person = schema.RequireClass("Person");
  Reference ref(person, schema.class_def(person).num_attributes());
  ref.AddAtomicValue(schema.RequireAttribute(person, "name"), name);
  if (!email.empty()) {
    ref.AddAtomicValue(schema.RequireAttribute(person, "email"), email);
  }
  return ref;
}

// ---- Snapshot construction -------------------------------------------------

TEST(ServiceTest, InitialSnapshotReconcilesAndProfiles) {
  ReconService service(SmallPersonDataset(), DefaultOptions());
  const auto snapshot = service.snapshot();
  EXPECT_EQ(snapshot->generation(), 0u);
  EXPECT_EQ(snapshot->num_references(), 3);
  ASSERT_EQ(snapshot->num_entities(), 2);  // {Alice, A. Smith} and {Bob}.

  // Entities are ordered by smallest member RefId: e0 = Alice.
  const EntityInfo& alice = snapshot->entity(0);
  EXPECT_EQ(alice.members, (std::vector<RefId>{0, 1}));
  EXPECT_EQ(alice.display_name, "Alice Smith");
  EXPECT_EQ(snapshot->EntityOfRef(0), 0);
  EXPECT_EQ(snapshot->EntityOfRef(1), 0);
  EXPECT_EQ(snapshot->EntityOfRef(2), 1);
  EXPECT_EQ(snapshot->EntityOfRef(99), -1);

  // The profile merges member values (both name spellings, one email).
  const Reference& profile = snapshot->profile(0);
  const int person = snapshot->schema().RequireClass("Person");
  const int name = snapshot->schema().RequireAttribute(person, "name");
  EXPECT_EQ(profile.atomic_values(name).size(), 2u);
}

// ---- Query scoring ---------------------------------------------------------

TEST(ServiceTest, QueryFindsEntityByNameAndEmail) {
  ReconService service(SmallPersonDataset(), DefaultOptions());
  ReconQuery query;
  query.text = "Alice Smith";
  query.type = "Person";
  query.properties.emplace_back("email", "alice@x.edu");
  const BatchAnswer answer = service.Reconcile({query});
  ASSERT_EQ(answer.results.size(), 1u);
  const QueryResult& result = answer.results[0];
  ASSERT_FALSE(result.candidates.empty());
  EXPECT_EQ(result.candidates[0].entity, 0);
  // Exact name + exact email: S_rv saturates and the match is confident.
  EXPECT_DOUBLE_EQ(result.candidates[0].score, 1.0);
  EXPECT_TRUE(result.candidates[0].match);
  EXPECT_FALSE(result.degraded);
}

TEST(ServiceTest, QueryUnknownTypeAndNoTextAreEmpty) {
  ReconService service(SmallPersonDataset(), DefaultOptions());
  ReconQuery unknown;
  unknown.text = "Alice Smith";
  unknown.type = "Spaceship";
  EXPECT_TRUE(service.Reconcile({unknown}).results[0].candidates.empty());
  ReconQuery empty;
  empty.type = "Person";
  EXPECT_TRUE(service.Reconcile({empty}).results[0].candidates.empty());
}

TEST(ServiceTest, QueryHonorsLimit) {
  ReconService service(SmallPersonDataset(), DefaultOptions());
  ReconQuery query;
  query.text = "Smith Jones";  // Blocks against both entities.
  query.type = "Person";
  query.limit = 1;
  const BatchAnswer answer = service.Reconcile({query});
  EXPECT_LE(answer.results[0].candidates.size(), 1u);
}

TEST(ServiceTest, ExpiredDeadlineDegradesInsteadOfStalling) {
  ServiceOptions options = DefaultOptions();
  options.query_deadline_ms = 1e-9;  // Already expired when scoring starts.
  ReconService service(SmallPersonDataset(), options);
  ReconQuery query;
  query.text = "Alice Smith";
  query.type = "Person";
  const BatchAnswer answer = service.Reconcile({query});
  EXPECT_TRUE(answer.degraded);
  EXPECT_TRUE(answer.results[0].degraded);
  // Degraded, not failed: whatever was scored before the stop is returned.
  EXPECT_GE(answer.results[0].num_scored, 0);
}

// ---- Query scoring ---------------------------------------------------------

/// Queries over every 11th person and every 3rd article and venue
/// reference of `data`: person names alone and
/// emails alone, article titles with their atomic properties and, in a
/// second query, with an author's and the venue's names, venue names with
/// their atomic properties, and every fifth name query untyped.
std::vector<ReconQuery> GoldenQueries(const Dataset& data) {
  const Schema& schema = data.schema();
  const SchemaBinding b = SchemaBinding::Resolve(schema);
  std::vector<ReconQuery> out;
  auto query = [&](const std::string& text, int class_id) {
    ReconQuery q;
    q.text = text;
    if (out.size() % 5 != 4) q.type = schema.class_def(class_id).name;
    return q;
  };
  auto add_property = [&](ReconQuery* q, int class_id, int attr,
                          const std::string& value) {
    if (attr < 0 || value.empty()) return;
    q->properties.emplace_back(schema.class_def(class_id).attributes[attr].name,
                               value);
  };
  std::vector<int> seen(schema.num_classes());
  for (RefId id = 0; id < data.num_references(); ++id) {
    const Reference& ref = data.reference(id);
    const int c = ref.class_id();
    if (seen[c]++ % (c == b.person ? 11 : 3) != 0) continue;
    if (c == b.person) {
      if (!ref.FirstValue(b.person_name).empty()) {
        out.push_back(query(ref.FirstValue(b.person_name), c));
      }
      if (!ref.FirstValue(b.person_email).empty()) {
        ReconQuery q = query("", c);
        add_property(&q, c, b.person_email, ref.FirstValue(b.person_email));
        out.push_back(q);
      }
    } else if (c == b.article) {
      ReconQuery q = query(ref.FirstValue(b.article_title), c);
      add_property(&q, c, b.article_year, ref.FirstValue(b.article_year));
      add_property(&q, c, b.article_pages, ref.FirstValue(b.article_pages));
      out.push_back(q);
      ReconQuery linked = query(ref.FirstValue(b.article_title), c);
      for (const RefId author : ref.associations(b.article_authors)) {
        add_property(&linked, c, b.article_authors,
                     data.reference(author).FirstValue(b.person_name));
        break;
      }
      for (const RefId venue : ref.associations(b.article_venue)) {
        add_property(&linked, c, b.article_venue,
                     data.reference(venue).FirstValue(b.venue_name));
      }
      out.push_back(linked);
    } else if (c == b.venue) {
      ReconQuery q = query(ref.FirstValue(b.venue_name), c);
      add_property(&q, c, b.venue_year, ref.FirstValue(b.venue_year));
      add_property(&q, c, b.venue_location, ref.FirstValue(b.venue_location));
      out.push_back(q);
    }
  }
  return out;
}

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Pins Snapshot::Query's scoring on a small PIM B snapshot: per result the
// candidate entity ids, the score bits, match and num_scored.
TEST(ServiceTest, QueryScoringGolden) {
  const Dataset data = datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigB(), 0.025));
  const ReconcilerOptions options = ReconcilerOptions::DepGraph();
  const std::shared_ptr<const Snapshot> snapshot = BuildSnapshot(
      data, Reconciler(options).Run(data).cluster, options, 0);
  const std::vector<ReconQuery> queries = GoldenQueries(data);
  int linked_authors = 0;
  int linked_venues = 0;
  for (const ReconQuery& query : queries) {
    for (const auto& [attr, value] : query.properties) {
      linked_authors += attr == "authoredBy" ? 1 : 0;
      linked_venues += attr == "publishedIn" ? 1 : 0;
    }
  }
  EXPECT_GT(linked_authors, 0);
  EXPECT_GT(linked_venues, 0);
  uint64_t h = 0xcbf29ce484222325ull;
  int64_t scored = 0;
  int matches = 0;
  for (const ReconQuery& query : queries) {
    const QueryResult result = snapshot->Query(query);
    h = Fnv1a(h, static_cast<uint64_t>(result.num_scored));
    h = Fnv1a(h, result.candidates.size());
    for (const ScoredCandidate& c : result.candidates) {
      h = Fnv1a(h, static_cast<uint64_t>(c.entity));
      h = Fnv1a(h, std::bit_cast<uint64_t>(c.score));
      h = Fnv1a(h, c.match ? 1 : 0);
      matches += c.match ? 1 : 0;
    }
    scored += result.num_scored;
  }
  EXPECT_EQ(queries.size(), 175u);
  EXPECT_EQ(scored, 525);
  EXPECT_EQ(matches, 160);
  EXPECT_EQ(h, 0x4c331b8ea244bd0bull);
}

// Queries score at the graph's precision. An equal value is one graph
// element, whose comparator score the graph holds as a float static: for
// two references with one name, the query's score for either entity
// equals what the graph computes from the pair node's evidence summary,
// bit for bit ("Wong, E." merges, the two "Eugene"s stay apart).
TEST(ServiceTest, QueryScoresAtTheGraphsPrecision) {
  const struct {
    const char* name;
    double graph_score;
  } kCases[] = {
      {"Wong, E.", 0.87999999523162842},
      {"Eugene", 0.69999998807907104},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.name);
    Dataset data(BuildPimSchema());
    const int person = data.schema().RequireClass("Person");
    const int name = data.schema().RequireAttribute(person, "name");
    for (int entity = 0; entity < 2; ++entity) {
      const RefId r = data.NewReference(person, entity);
      data.mutable_reference(r).AddAtomicValue(name, c.name);
    }
    const ReconcilerOptions options = ReconcilerOptions::DepGraph();
    BuiltGraph built = BuildDependencyGraph(data, options);
    const ReconcileResult run = Reconciler(options).RunOnGraph(data, built);
    const NodeId pair = built.graph->FindRefPair(0, 1);
    ASSERT_NE(pair, kInvalidNode);
    const Node& node = built.graph->node(pair);
    ASSERT_TRUE(node.cache_valid);
    const double graph_score = built.class_sims[person]->Compute(node.cache);
    EXPECT_EQ(graph_score, c.graph_score);

    ReconQuery query;
    query.text = c.name;
    query.type = "Person";
    const QueryResult result =
        BuildSnapshot(data, run.cluster, options, 0)->Query(query);
    ASSERT_EQ(result.candidates.size(),
              run.cluster[0] == run.cluster[1] ? 1u : 2u);
    for (const ScoredCandidate& candidate : result.candidates) {
      EXPECT_EQ(candidate.score, graph_score);
      EXPECT_EQ(candidate.match, graph_score >= kSimParams.merge_threshold);
    }
  }

  // Titles scoring 11/14 with equal years reach the merge threshold only
  // in double; the graph's float keeps the pair apart (see
  // StagingTest.IndepDecScoresTitlesThroughTheMemoFloat), and so does a
  // query.
  Dataset data(BuildPimSchema());
  const int article = data.schema().RequireClass("Article");
  const RefId r = data.NewReference(article, 0);
  data.mutable_reference(r).AddAtomicValue(
      data.schema().RequireAttribute(article, "title"),
      "Scalable with indexing views");
  data.mutable_reference(r).AddAtomicValue(
      data.schema().RequireAttribute(article, "year"), "2000");
  ReconQuery query;
  query.text = "Scalable with indexing";
  query.type = "Article";
  query.properties.emplace_back("year", "2000");
  const ReconcilerOptions options = ReconcilerOptions::DepGraph();
  const QueryResult result = BuildSnapshot(data, {0}, options, 0)->Query(query);
  ASSERT_EQ(result.candidates.size(), 1u);
  EXPECT_LT(result.candidates[0].score, kSimParams.merge_threshold);
  EXPECT_FALSE(result.candidates[0].match);
}

// Name~email evidence is a kNameEmail channel: a kAttrWise service must not
// score a name query against an entity that only has a matching email.
TEST(ServiceTest, QueryHonorsEvidenceLevel) {
  Dataset data(BuildPimSchema());
  const int person = data.schema().RequireClass("Person");
  const RefId r = data.NewReference(person, 0);
  data.mutable_reference(r).AddAtomicValue(
      data.schema().RequireAttribute(person, "email"),
      "robert.epstein@cs.example.edu");
  ReconQuery query;
  query.text = "Robert Epstein";
  query.type = "Person";
  auto score = [&](EvidenceLevel level) {
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.evidence_level = level;
    const QueryResult result =
        BuildSnapshot(data, {0}, options, 0)->Query(query);
    EXPECT_EQ(result.candidates.size(), 1u);
    return result.candidates.empty() ? -1.0 : result.candidates[0].score;
  };
  // The account pattern alone: person_ne_only_scale * 0.95, through float.
  const double contact = score(EvidenceLevel::kContact);
  EXPECT_EQ(contact, 0.89299998879432674);
  EXPECT_LT(score(EvidenceLevel::kAttrWise), contact);
}

// Article <-> person evidence is wired from kArticle up: below it, an
// authoredBy property must not change an article's score.
TEST(ServiceTest, QueryScoresAssociationsFromArticleLevel) {
  Dataset data(BuildPimSchema());
  const Schema& schema = data.schema();
  const int person = schema.RequireClass("Person");
  const int article = schema.RequireClass("Article");
  const RefId p = data.NewReference(person, 0);
  data.mutable_reference(p).AddAtomicValue(
      schema.RequireAttribute(person, "name"), "Michael Stonebraker");
  const RefId a = data.NewReference(article, 1);
  data.mutable_reference(a).AddAtomicValue(
      schema.RequireAttribute(article, "title"), "The design of Postgres");
  data.mutable_reference(a).AddAssociation(
      schema.RequireAttribute(article, "authoredBy"), p);
  auto score = [&](EvidenceLevel level, bool with_author) {
    ReconQuery query;
    query.text = "The design of Postgres";
    query.type = "Article";
    if (with_author) query.properties = {{"authoredBy", "Michael Stonebraker"}};
    ReconcilerOptions options = ReconcilerOptions::DepGraph();
    options.evidence_level = level;
    const QueryResult result =
        BuildSnapshot(data, {0, 1}, options, 0)->Query(query);
    EXPECT_EQ(result.candidates.size(), 1u);
    return result.candidates.empty() ? -1.0 : result.candidates[0].score;
  };
  for (const EvidenceLevel level :
       {EvidenceLevel::kAttrWise, EvidenceLevel::kNameEmail}) {
    EXPECT_EQ(score(level, true), score(level, false));
  }
  EXPECT_GT(score(EvidenceLevel::kArticle, true),
            score(EvidenceLevel::kArticle, false));
}

// ---- Ingest / snapshot isolation -------------------------------------------

TEST(ServiceTest, IngestWithoutFlushStagesOnly) {
  ReconService service(SmallPersonDataset(), DefaultOptions());
  const auto before = service.snapshot();
  std::vector<Reference> refs;
  refs.push_back(MakePerson(service.schema(), "Carol White", "carol@z.org"));
  const auto report = service.Ingest(std::move(refs), {}, /*flush=*/false);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().added, 1);
  EXPECT_EQ(report.value().staged_total, 1);
  EXPECT_FALSE(report.value().flushed);
  EXPECT_EQ(report.value().generation, 0u);
  EXPECT_EQ(service.staged_references(), 1);
  // The published snapshot is untouched until a flush.
  EXPECT_EQ(service.snapshot().get(), before.get());

  EXPECT_EQ(service.Flush().value(), 1u);
  EXPECT_EQ(service.staged_references(), 0);
  EXPECT_EQ(service.snapshot()->generation(), 1u);
  EXPECT_EQ(service.snapshot()->num_references(), 4);
}

TEST(ServiceTest, IngestFlushMakesNewEntityQueryable) {
  ReconService service(SmallPersonDataset(), DefaultOptions());
  std::vector<Reference> refs;
  refs.push_back(MakePerson(service.schema(), "Dora Black", "dora@w.net"));
  const auto report = service.Ingest(std::move(refs), {7}, /*flush=*/true);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().flushed);
  EXPECT_EQ(report.value().generation, 1u);

  ReconQuery query;
  query.text = "Dora Black";
  query.type = "Person";
  const BatchAnswer answer = service.Reconcile({query});
  EXPECT_EQ(answer.snapshot->generation(), 1u);
  ASSERT_FALSE(answer.results[0].candidates.empty());
  const EntityId hit = answer.results[0].candidates[0].entity;
  EXPECT_EQ(answer.snapshot->entity(hit).display_name, "Dora Black");
}

TEST(ServiceTest, FlushCountsDroppedBlocks) {
  // A third Smith overflows the "smith" name block and its prefix block.
  ServiceOptions options = DefaultOptions();
  options.reconciler.max_block_size = 2;
  ReconService service(SmallPersonDataset(), options);
  std::vector<Reference> refs;
  refs.push_back(MakePerson(service.schema(), "Carl Smith", ""));
  ASSERT_TRUE(service.Ingest(std::move(refs), {}, /*flush=*/true).ok());
  EXPECT_EQ(service.counters().dropped_blocks.load(), 2);
}

TEST(ServiceTest, IngestRejectsBadAssociationTargets) {
  ReconService service(SmallPersonDataset(), DefaultOptions());
  const Schema& schema = service.schema();
  const int person = schema.RequireClass("Person");
  Reference bad(person, schema.class_def(person).num_attributes());
  bad.AddAssociation(schema.RequireAttribute(person, "coAuthor"), 999);
  std::vector<Reference> refs;
  refs.push_back(std::move(bad));
  const auto report = service.Ingest(std::move(refs), {}, /*flush=*/true);
  EXPECT_FALSE(report.ok());
  // Nothing was staged or published by the failed call.
  EXPECT_EQ(service.staged_references(), 0);
  EXPECT_EQ(service.snapshot()->generation(), 0u);
  EXPECT_EQ(service.snapshot()->num_references(), 3);
}

TEST(ServiceTest, GoldsLengthMismatchRejected) {
  ReconService service(SmallPersonDataset(), DefaultOptions());
  std::vector<Reference> refs;
  refs.push_back(MakePerson(service.schema(), "Eve Gray", ""));
  EXPECT_FALSE(service.Ingest(std::move(refs), {1, 2}, true).ok());
}

// ---- Handler-level parsing / rendering -------------------------------------

TEST(ServiceTest, ParseQueryBatchShapes) {
  const auto batch = ParseQueryBatch(
      R"({"a": "shorthand text",
          "b": {"query": "Bob", "type": {"id": "Person"}, "limit": 3,
                "properties": [{"pid": "email", "v": "bob@y.edu"},
                               {"p": "name", "v": ["X", "Y"]}]}})");
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch.value().size(), 2u);
  EXPECT_EQ(batch.value()[0].first, "a");
  EXPECT_EQ(batch.value()[0].second.text, "shorthand text");
  const ReconQuery& b = batch.value()[1].second;
  EXPECT_EQ(b.type, "Person");
  EXPECT_EQ(b.limit, 3);
  ASSERT_EQ(b.properties.size(), 3u);
  EXPECT_EQ(b.properties[0].first, "email");
  EXPECT_EQ(b.properties[1].second, "X");
  EXPECT_EQ(b.properties[2].second, "Y");

  EXPECT_FALSE(ParseQueryBatch("[1,2]").ok());
  EXPECT_FALSE(ParseQueryBatch("{\"q\": 42}").ok());
  EXPECT_FALSE(ParseQueryBatch("not json").ok());
}

TEST(ServiceTest, UrlDecodeHandlesEscapes) {
  EXPECT_EQ(UrlDecode("a+b%20c%7B%7d"), "a b c{}");
  EXPECT_EQ(UrlDecode("100%"), "100%");  // Dangling '%' passes through.
  EXPECT_EQ(UrlDecode("%zz"), "%zz");    // Non-hex passes through.
}

TEST(ServiceTest, RenderReconcileBodyShape) {
  ReconService service(SmallPersonDataset(), DefaultOptions());
  ReconQuery query;
  query.text = "Alice Smith";
  query.type = "Person";
  QueryBatch batch;
  batch.emplace_back("q0", query);
  const BatchAnswer answer = service.Reconcile({query});
  const std::string body = RenderReconcileBody(batch, answer);
  EXPECT_NE(body.find("\"q0\":{\"result\":[{\"id\":\"e0\""), std::string::npos);
  EXPECT_NE(body.find("\"_snapshot\":0"), std::string::npos);
}

// ---- Concurrency: readers race a live ingest/flush loop (TSan target) ------

TEST(ServiceTest, ConcurrentQueriesVsIngestFlushLoop) {
  ReconService service(SmallPersonDataset(), DefaultOptions());
  constexpr int kQueryThreads = 3;
  constexpr int kIngestBatches = 12;

  std::atomic<bool> done{false};
  std::atomic<int> torn_reads{0};
  std::atomic<int> generation_regressions{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < kQueryThreads; ++t) {
    readers.emplace_back([&] {
      ReconQuery query;
      query.text = "Alice Smith";
      query.type = "Person";
      uint64_t last_generation = 0;
      while (!done.load(std::memory_order_acquire)) {
        const BatchAnswer answer = service.Reconcile({query, query});
        // Monotone generations per reader: an older snapshot must never
        // be published after a newer one was observed.
        const uint64_t generation = answer.snapshot->generation();
        if (generation < last_generation) ++generation_regressions;
        last_generation = generation;
        // Internal consistency: every candidate resolves against the
        // batch's own snapshot — a torn read (results from one snapshot,
        // pointer from another) would surface as an out-of-range entity.
        for (const QueryResult& result : answer.results) {
          for (const ScoredCandidate& candidate : result.candidates) {
            if (!answer.snapshot->ValidEntity(candidate.entity) ||
                answer.snapshot->entity(candidate.entity).class_id < 0) {
              ++torn_reads;
            }
          }
        }
      }
    });
  }

  uint64_t generation = 0;
  for (int i = 0; i < kIngestBatches; ++i) {
    std::vector<Reference> refs;
    refs.push_back(MakePerson(service.schema(),
                              "Person " + std::to_string(i),
                              "p" + std::to_string(i) + "@load.test"));
    const auto report = service.Ingest(std::move(refs), {}, /*flush=*/true);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().generation, generation + 1);
    generation = report.value().generation;
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(generation_regressions.load(), 0);
  EXPECT_EQ(service.snapshot()->generation(),
            static_cast<uint64_t>(kIngestBatches));
  EXPECT_EQ(service.snapshot()->num_references(), 3 + kIngestBatches);
  // Reconciliation kept running under load: the final snapshot still
  // answers correctly.
  ReconQuery query;
  query.text = "Person 7";
  query.type = "Person";
  const BatchAnswer answer = service.Reconcile({query});
  ASSERT_FALSE(answer.results[0].candidates.empty());
}

// ---- Handler traffic: oracle and durability equivalence --------------------

HttpRequest PostJson(const std::string& path, std::string body) {
  HttpRequest req;
  req.method = "POST";
  req.path = path;
  req.body = std::move(body);
  return req;
}

/// The /reconcile body of a batch, its queries named q0, q1, ...
std::string ReconcileBody(const std::vector<ReconQuery>& queries) {
  json::Value doc = json::Value::Object();
  for (size_t q = 0; q < queries.size(); ++q) {
    json::Value entry = json::Value::Object();
    entry.Set("query", queries[q].text);
    entry.Set("type", queries[q].type);
    entry.Set("limit", queries[q].limit);
    if (!queries[q].properties.empty()) {
      json::Value props = json::Value::Array();
      for (const auto& [pid, v] : queries[q].properties) {
        json::Value prop = json::Value::Object();
        prop.Set("pid", pid);
        prop.Set("v", v);
        props.Append(std::move(prop));
      }
      entry.Set("properties", std::move(props));
    }
    doc.Set("q" + std::to_string(q), std::move(entry));
  }
  return doc.Dump();
}

/// The /ingest body (flush=true) for references [begin, end) of `full`.
std::string IngestBody(const Dataset& full, RefId begin, RefId end) {
  json::Value refs = json::Value::Array();
  for (RefId id = begin; id < end; ++id) {
    const Reference& src = full.reference(id);
    const ClassDef& class_def = full.schema().class_def(src.class_id());
    json::Value values = json::Value::Object();
    json::Value links = json::Value::Object();
    for (int attr = 0; attr < src.num_attributes(); ++attr) {
      json::Value list = json::Value::Array();
      if (class_def.attributes[attr].kind == AttrKind::kAtomic) {
        for (const std::string& v : src.atomic_values(attr)) list.Append(v);
        if (list.size() > 0) {
          values.Set(class_def.attributes[attr].name, std::move(list));
        }
      } else {
        for (const RefId target : src.associations(attr)) {
          list.Append(target);
        }
        if (list.size() > 0) {
          links.Set(class_def.attributes[attr].name, std::move(list));
        }
      }
    }
    json::Value ref = json::Value::Object();
    ref.Set("class", class_def.name);
    ref.Set("values", std::move(values));
    ref.Set("links", std::move(links));
    ref.Set("gold", full.gold_entity(id));
    refs.Append(std::move(ref));
  }
  json::Value doc = json::Value::Object();
  doc.Set("references", std::move(refs));
  doc.Set("flush", true);
  return doc.Dump();
}

// The service's machine-independent gates: on a small PIM A corpus whose
// last tenth arrives through /ingest (8 references per flush), every
// response is a 200, the handler renders exactly what Snapshot::Query plus
// RenderReconcileBody give on the same snapshot, and a durable service
// (WAL fsynced every flush, a checkpoint every 16) renders the same bytes
// as an in-memory one.
TEST(ServiceTest, HandlerTrafficMatchesOracleAndDurableService) {
  const Dataset generated = datagen::GeneratePim(
      datagen::ScaleConfig(datagen::PimConfigA(), 0.05));
  const SchemaBinding binding = SchemaBinding::Resolve(generated.schema());
  const RefId split = generated.num_references() * 9 / 10;
  // A reference cannot link to one that does not exist yet: links into
  // the held-out tail are dropped, from the initial and the held-out
  // references alike.
  Dataset full(generated.schema());
  for (RefId id = 0; id < generated.num_references(); ++id) {
    const Reference& src = generated.reference(id);
    Reference ref(src.class_id(), src.num_attributes());
    for (int attr = 0; attr < src.num_attributes(); ++attr) {
      for (const std::string& v : src.atomic_values(attr)) {
        ref.AddAtomicValue(attr, v);
      }
      for (const RefId target : src.associations(attr)) {
        if (target < split) ref.AddAssociation(attr, target);
      }
    }
    full.AddReference(std::move(ref), generated.gold_entity(id),
                      generated.provenance(id));
  }
  auto initial = [&] {
    Dataset data(full.schema());
    for (RefId id = 0; id < split; ++id) {
      data.AddReference(full.reference(id), full.gold_entity(id),
                        full.provenance(id));
    }
    return data;
  };

  // Two queries per batch over every 17th initial reference: its name or
  // title, plus the email of a person that has one.
  std::vector<std::string> batches;
  std::vector<ReconQuery> pending;
  for (RefId id = 0; id < split; id += 17) {
    const Reference& ref = full.reference(id);
    ReconQuery query;
    query.limit = 5;
    if (ref.class_id() == binding.person) {
      query.type = "Person";
      query.text = ref.FirstValue(binding.person_name);
      if (!ref.FirstValue(binding.person_email).empty()) {
        query.properties.emplace_back("email",
                                      ref.FirstValue(binding.person_email));
      }
    } else if (ref.class_id() == binding.article) {
      query.type = "Article";
      query.text = ref.FirstValue(binding.article_title);
    } else {
      query.type = "Venue";
      query.text = ref.FirstValue(binding.venue_name);
    }
    if (query.text.empty()) continue;
    pending.push_back(query);
    if (pending.size() == 2) {
      batches.push_back(ReconcileBody(pending));
      pending.clear();
    }
  }
  ASSERT_GT(batches.size(), 4u);

  constexpr RefId kIngestBatch = 8;
  auto ingest_all = [&](const ServiceHandler& handler) {
    int flushes = 0;
    for (RefId id = split; id < full.num_references(); id += kIngestBatch) {
      const RefId end = std::min<RefId>(id + kIngestBatch,
                                        full.num_references());
      const HttpResponse res =
          handler.Handle(PostJson("/ingest", IngestBody(full, id, end)));
      EXPECT_EQ(res.status, 200) << res.body;
      ++flushes;
    }
    return flushes;
  };

  ReconService service(initial(), DefaultOptions());
  const ServiceHandler handler(&service);
  const int flushes = ingest_all(handler);
  EXPECT_GT(flushes, 16);
  EXPECT_EQ(service.snapshot()->generation(),
            static_cast<uint64_t>(flushes));

  char dir_template[] = "/tmp/recon-service-test-XXXXXX";
  ASSERT_NE(::mkdtemp(dir_template), nullptr);
  const std::string data_dir = dir_template;
  {
    ServiceOptions durable_options = DefaultOptions();
    durable_options.durability.data_dir = data_dir;
    durable_options.durability.fsync = FsyncPolicy::kEveryFlush;
    durable_options.durability.checkpoint_every = 16;
    auto opened = ReconService::Open(initial(), durable_options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ReconService& durable = *opened.value();
    const ServiceHandler durable_handler(&durable);
    EXPECT_EQ(ingest_all(durable_handler), flushes);
    EXPECT_GT(durable.durability_stats().checkpoints_written, 0);

    for (const std::string& body : batches) {
      SCOPED_TRACE(body);
      const HttpResponse served = handler.Handle(PostJson("/reconcile", body));
      EXPECT_EQ(served.status, 200);
      const StatusOr<QueryBatch> batch = ParseQueryBatch(body);
      ASSERT_TRUE(batch.ok());
      BatchAnswer direct;
      direct.snapshot = service.snapshot();
      for (const auto& [id, query] : batch.value()) {
        direct.results.push_back(direct.snapshot->Query(query));
      }
      EXPECT_EQ(served.body, RenderReconcileBody(batch.value(), direct));
      const HttpResponse durable_served =
          durable_handler.Handle(PostJson("/reconcile", body));
      EXPECT_EQ(durable_served.status, 200);
      EXPECT_EQ(durable_served.body, served.body);
    }
  }
  std::filesystem::remove_all(data_dir);
}

}  // namespace
}  // namespace recon::service
