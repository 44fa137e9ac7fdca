#include "service/handlers.h"

#include <cctype>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/json.h"
#include "util/version.h"

namespace recon::service {
namespace {

HttpResponse JsonResponse(int status, const json::Value& doc) {
  HttpResponse res;
  res.status = status;
  res.body = doc.Dump();
  return res;
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  json::Value doc = json::Value::Object();
  doc.Set("error", message);
  return JsonResponse(status, doc);
}

/// The value of `name` in a urlencoded "a=1&b=2" string, decoded; "" when
/// absent.
std::string FormParam(std::string_view form, std::string_view name) {
  size_t pos = 0;
  while (pos <= form.size()) {
    size_t amp = form.find('&', pos);
    if (amp == std::string_view::npos) amp = form.size();
    const std::string_view pair = form.substr(pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == name) {
      return UrlDecode(pair.substr(eq + 1));
    }
    pos = amp + 1;
  }
  return "";
}

/// One scalar JSON value as query-property text (strings verbatim, numbers
/// via the shared writer formatting, bools as true/false).
std::string ScalarText(const json::Value& v) {
  switch (v.kind()) {
    case json::Value::Kind::kString:
      return v.AsString();
    case json::Value::Kind::kInt:
      return std::to_string(v.AsInt());
    case json::Value::Kind::kDouble:
      return json::NumberToString(v.AsDouble());
    case json::Value::Kind::kBool:
      return v.AsBool() ? "true" : "false";
    default:
      return "";
  }
}

/// OpenRefine types appear as "Person", {"id": "Person"}, or arrays of
/// either; the first usable id wins.
std::string TypeName(const json::Value& v) {
  if (v.is_string()) return v.AsString();
  if (v.is_object()) return v.at("id").AsString();
  if (v.is_array() && !v.items().empty()) return TypeName(v.items().front());
  return "";
}

StatusOr<ReconQuery> ParseOneQuery(const json::Value& doc) {
  ReconQuery query;
  if (doc.is_string()) {  // Shorthand: "q0": "some text".
    query.text = doc.AsString();
    return query;
  }
  if (!doc.is_object()) {
    return Status::InvalidArgument("query must be a string or an object");
  }
  query.text = doc.at("query").AsString();
  query.type = TypeName(doc.at("type"));
  if (const json::Value* limit = doc.Find("limit"); limit != nullptr) {
    query.limit = static_cast<int>(limit->AsInt(query.limit));
  }
  if (const json::Value* props = doc.Find("properties"); props != nullptr) {
    if (!props->is_array()) {
      return Status::InvalidArgument("properties must be an array");
    }
    for (const json::Value& prop : props->items()) {
      // "pid" per the spec; accept "p" (older clients use it) too.
      std::string pid = prop.at("pid").AsString();
      if (pid.empty()) pid = prop.at("p").AsString();
      if (pid.empty()) {
        return Status::InvalidArgument("property without pid");
      }
      const json::Value& v = prop.at("v");
      if (v.is_array()) {
        for (const json::Value& item : v.items()) {
          std::string text =
              item.is_object() ? item.at("id").AsString() : ScalarText(item);
          if (!text.empty()) query.properties.emplace_back(pid, std::move(text));
        }
      } else {
        std::string text =
            v.is_object() ? v.at("id").AsString() : ScalarText(v);
        if (!text.empty()) query.properties.emplace_back(pid, std::move(text));
      }
    }
  }
  return query;
}

/// "e12" or "12" -> 12; -1 on anything else.
EntityId ParseEntityId(const std::string& text) {
  size_t pos = text.size() > 1 && text[0] == 'e' ? 1 : 0;
  if (pos >= text.size()) return -1;
  EntityId id = 0;
  for (; pos < text.size(); ++pos) {
    if (!std::isdigit(static_cast<unsigned char>(text[pos]))) return -1;
    if (id > (INT32_MAX - 9) / 10) return -1;
    id = id * 10 + (text[pos] - '0');
  }
  return id;
}

json::Value EntityTypeJson(const Schema& schema, int class_id) {
  json::Value types = json::Value::Array();
  json::Value type = json::Value::Object();
  const std::string& name = schema.class_def(class_id).name;
  type.Set("id", name);
  type.Set("name", name);
  types.Append(std::move(type));
  return types;
}

}  // namespace

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out += ' ';
    } else if (s[i] == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      const char hex[3] = {s[i + 1], s[i + 2], '\0'};
      out += static_cast<char>(std::strtol(hex, nullptr, 16));
      i += 2;
    } else {
      out += s[i];
    }
  }
  return out;
}

StatusOr<QueryBatch> ParseQueryBatch(std::string_view json_text) {
  StatusOr<json::Value> doc = json::Parse(json_text);
  if (!doc.ok()) return doc.status();
  if (!doc.value().is_object()) {
    return Status::InvalidArgument("query batch must be a JSON object");
  }
  QueryBatch batch;
  for (const auto& [id, query_doc] : doc.value().members()) {
    StatusOr<ReconQuery> query = ParseOneQuery(query_doc);
    if (!query.ok()) {
      return Status::InvalidArgument("query \"" + id +
                                     "\": " + query.status().message());
    }
    batch.emplace_back(id, std::move(query).value());
  }
  return batch;
}

std::string RenderReconcileBody(const QueryBatch& batch,
                                const BatchAnswer& answer) {
  const Snapshot& snapshot = *answer.snapshot;
  json::Value doc = json::Value::Object();
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryResult& result = answer.results[i];
    json::Value entry = json::Value::Object();
    json::Value list = json::Value::Array();
    for (const ScoredCandidate& candidate : result.candidates) {
      const EntityInfo& info = snapshot.entity(candidate.entity);
      json::Value row = json::Value::Object();
      row.Set("id", "e" + std::to_string(candidate.entity));
      row.Set("name", info.display_name);
      row.Set("type", EntityTypeJson(snapshot.schema(), info.class_id));
      row.Set("score", candidate.score);
      row.Set("match", candidate.match);
      list.Append(std::move(row));
    }
    entry.Set("result", std::move(list));
    if (result.degraded) entry.Set("degraded", true);
    doc.Set(batch[i].first, std::move(entry));
  }
  doc.Set("_snapshot", snapshot.generation());
  return doc.Dump();
}

HttpResponse ServiceHandler::Handle(const HttpRequest& req) const {
  if (req.path == "/healthz") return Healthz();
  if (req.path == "/stats") return Stats();
  if (req.path == "/reconcile") return Reconcile(req);
  if (req.path == "/ingest") {
    if (req.method != "POST") return ErrorResponse(405, "POST required");
    return Ingest(req);
  }
  if (req.path.rfind("/entity/", 0) == 0) {
    return Entity(req.path.substr(8));
  }
  if (req.path == "/") {
    // OpenRefine posts query batches to the manifest URL itself.
    if (!req.body.empty() || !req.query.empty()) {
      HttpResponse res = Reconcile(req);
      if (res.status == 200 || req.method == "POST") return res;
    }
    return Manifest();
  }
  return ErrorResponse(404, "no such route: " + req.path);
}

HttpResponse ServiceHandler::Manifest() const {
  const Schema& schema = service_->schema();
  json::Value doc = json::Value::Object();
  doc.Set("name", "recon reference reconciliation");
  doc.Set("identifierSpace", "urn:recon:entity");
  doc.Set("schemaSpace", "urn:recon:schema");
  json::Value versions = json::Value::Array();
  versions.Append("0.2");
  doc.Set("versions", std::move(versions));
  json::Value types = json::Value::Array();
  for (int c = 0; c < schema.num_classes(); ++c) {
    json::Value type = json::Value::Object();
    type.Set("id", schema.class_def(c).name);
    type.Set("name", schema.class_def(c).name);
    types.Append(std::move(type));
  }
  doc.Set("defaultTypes", std::move(types));
  return JsonResponse(200, doc);
}

HttpResponse ServiceHandler::Reconcile(const HttpRequest& req) const {
  // Three transports for the same batch document: raw JSON body,
  // urlencoded `queries=` form body (what OpenRefine sends), or the
  // `?queries=` URL parameter.
  std::string batch_text;
  if (!req.body.empty()) {
    const size_t first = req.body.find_first_not_of(" \t\r\n");
    if (first != std::string::npos && req.body[first] == '{') {
      batch_text = req.body;
    } else {
      batch_text = FormParam(req.body, "queries");
    }
  }
  if (batch_text.empty()) batch_text = FormParam(req.query, "queries");
  if (batch_text.empty()) {
    return ErrorResponse(400, "no queries given (body or ?queries=)");
  }

  StatusOr<QueryBatch> batch = ParseQueryBatch(batch_text);
  if (!batch.ok()) return ErrorResponse(400, batch.status().message());

  std::vector<ReconQuery> queries;
  queries.reserve(batch.value().size());
  for (const auto& [id, query] : batch.value()) queries.push_back(query);
  const BatchAnswer answer = service_->Reconcile(queries);

  HttpResponse res;
  res.body = RenderReconcileBody(batch.value(), answer);
  res.extra_headers.emplace_back(
      "X-Snapshot-Generation", std::to_string(answer.snapshot->generation()));
  return res;
}

HttpResponse ServiceHandler::Ingest(const HttpRequest& req) const {
  StatusOr<json::Value> doc = json::Parse(req.body);
  if (!doc.ok()) return ErrorResponse(400, doc.status().message());
  const json::Value* refs_doc = doc.value().Find("references");
  if (refs_doc == nullptr || !refs_doc->is_array()) {
    return ErrorResponse(400, "ingest body needs a \"references\" array");
  }

  const Schema& schema = service_->schema();
  std::vector<Reference> refs;
  std::vector<int> golds;
  refs.reserve(refs_doc->items().size());
  for (const json::Value& ref_doc : refs_doc->items()) {
    const std::string& class_name = ref_doc.at("class").AsString();
    const int class_id = schema.FindClass(class_name);
    if (class_id < 0) {
      return ErrorResponse(400, "unknown class \"" + class_name + "\"");
    }
    const ClassDef& class_def = schema.class_def(class_id);
    Reference ref(class_id, class_def.num_attributes());

    if (const json::Value* values = ref_doc.Find("values"); values != nullptr) {
      for (const auto& [attr_name, attr_values] : values->members()) {
        const int attr = class_def.FindAttribute(attr_name);
        if (attr < 0 || class_def.attributes[attr].kind != AttrKind::kAtomic) {
          return ErrorResponse(400, "unknown atomic attribute \"" +
                                        class_name + "." + attr_name + "\"");
        }
        if (attr_values.is_array()) {
          for (const json::Value& v : attr_values.items()) {
            ref.AddAtomicValue(attr, ScalarText(v));
          }
        } else {
          ref.AddAtomicValue(attr, ScalarText(attr_values));
        }
      }
    }
    if (const json::Value* links = ref_doc.Find("links"); links != nullptr) {
      for (const auto& [attr_name, targets] : links->members()) {
        const int attr = class_def.FindAttribute(attr_name);
        if (attr < 0 ||
            class_def.attributes[attr].kind != AttrKind::kAssociation) {
          return ErrorResponse(400, "unknown association attribute \"" +
                                        class_name + "." + attr_name + "\"");
        }
        if (!targets.is_array()) {
          return ErrorResponse(400, "links must map attributes to arrays");
        }
        for (const json::Value& target : targets.items()) {
          ref.AddAssociation(attr, static_cast<RefId>(target.AsInt(-1)));
        }
      }
    }
    golds.push_back(static_cast<int>(ref_doc.at("gold").AsInt(-1)));
    refs.push_back(std::move(ref));
  }

  const bool flush = doc.value().at("flush").AsBool(true);
  StatusOr<IngestReport> report =
      service_->Ingest(std::move(refs), std::move(golds), flush);
  if (!report.ok()) {
    // Durability failures (WAL unusable, service read-only) are a server
    // condition, not a client error: 503 with a retry hint. Bad input
    // stays 400.
    if (report.status().code() == StatusCode::kFailedPrecondition) {
      HttpResponse res = ErrorResponse(503, report.status().message());
      res.extra_headers.emplace_back("Retry-After", "1");
      return res;
    }
    return ErrorResponse(400, report.status().message());
  }

  json::Value out = json::Value::Object();
  out.Set("added", report.value().added);
  out.Set("staged", report.value().staged_total);
  out.Set("flushed", report.value().flushed);
  out.Set("generation", report.value().generation);
  HttpResponse res = JsonResponse(200, out);
  res.extra_headers.emplace_back("X-Snapshot-Generation",
                                 std::to_string(report.value().generation));
  return res;
}

HttpResponse ServiceHandler::Entity(const std::string& id_text) const {
  const EntityId id = ParseEntityId(id_text);
  const std::shared_ptr<const Snapshot> snapshot = service_->snapshot();
  if (!snapshot->ValidEntity(id)) {
    return ErrorResponse(404, "no entity \"" + id_text + "\"");
  }
  const EntityInfo& info = snapshot->entity(id);
  const Schema& schema = snapshot->schema();
  const ClassDef& class_def = schema.class_def(info.class_id);

  json::Value doc = json::Value::Object();
  doc.Set("id", "e" + std::to_string(id));
  doc.Set("name", info.display_name);
  doc.Set("type", EntityTypeJson(schema, info.class_id));
  json::Value members = json::Value::Array();
  for (const RefId ref : info.members) members.Append(ref);
  doc.Set("members", std::move(members));

  const Reference& profile = snapshot->profile(id);
  json::Value values = json::Value::Object();
  json::Value links = json::Value::Object();
  for (int attr = 0; attr < class_def.num_attributes(); ++attr) {
    if (class_def.attributes[attr].kind == AttrKind::kAtomic) {
      if (profile.atomic_values(attr).empty()) continue;
      json::Value list = json::Value::Array();
      for (const std::string& v : profile.atomic_values(attr)) list.Append(v);
      values.Set(class_def.attributes[attr].name, std::move(list));
    } else {
      const std::vector<EntityId> linked = snapshot->linked(id, attr);
      if (linked.empty()) continue;
      json::Value list = json::Value::Array();
      for (const EntityId target : linked) {
        list.Append("e" + std::to_string(target));
      }
      links.Set(class_def.attributes[attr].name, std::move(list));
    }
  }
  doc.Set("values", std::move(values));
  doc.Set("links", std::move(links));
  doc.Set("_snapshot", snapshot->generation());

  HttpResponse res = JsonResponse(200, doc);
  res.extra_headers.emplace_back("X-Snapshot-Generation",
                                 std::to_string(snapshot->generation()));
  return res;
}

HttpResponse ServiceHandler::Healthz() const {
  const std::shared_ptr<const Snapshot> snapshot = service_->snapshot();
  json::Value doc = json::Value::Object();
  doc.Set("status", "ok");
  doc.Set("version", kReconVersion);
  doc.Set("build", ReconBuildInfo());
  doc.Set("generation", snapshot->generation());
  doc.Set("entities", snapshot->num_entities());
  doc.Set("references", snapshot->num_references());
  HttpResponse res = JsonResponse(200, doc);
  res.extra_headers.emplace_back("X-Snapshot-Generation",
                                 std::to_string(snapshot->generation()));
  return res;
}

HttpResponse ServiceHandler::Stats() const {
  const std::shared_ptr<const Snapshot> snapshot = service_->snapshot();
  const ServiceCounters& counters = service_->counters();
  json::Value doc = json::Value::Object();
  json::Value snap = json::Value::Object();
  snap.Set("generation", snapshot->generation());
  snap.Set("entities", snapshot->num_entities());
  snap.Set("references", snapshot->num_references());
  snap.Set("blocking_keys", snapshot->num_blocking_keys());
  snap.Set("approximate_bytes", snapshot->approximate_bytes());
  doc.Set("snapshot", std::move(snap));
  doc.Set("staged_references", service_->staged_references());
  json::Value c = json::Value::Object();
  c.Set("query_batches", counters.query_batches.load());
  c.Set("queries", counters.queries.load());
  c.Set("degraded_queries", counters.degraded_queries.load());
  c.Set("candidates_scored", counters.candidates_scored.load());
  c.Set("ingested_references", counters.ingested_references.load());
  c.Set("flushes", counters.flushes.load());
  c.Set("negprop_sources", counters.negprop_sources.load());
  c.Set("graph_compactions", counters.graph_compactions.load());
  c.Set("unmerged_pairs", counters.unmerged_pairs.load());
  c.Set("derived_non_merge_pairs", counters.derived_non_merge_pairs.load());
  c.Set("dropped_blocks", counters.dropped_blocks.load());
  c.Set("publish_ms", counters.publish_ms.load());
  c.Set("snapshot_entities_rebuilt", counters.snapshot_entities_rebuilt.load());
  doc.Set("counters", std::move(c));
  const DurabilityStats durability = service_->durability_stats();
  json::Value d = json::Value::Object();
  d.Set("enabled", durability.enabled);
  if (durability.enabled) {
    d.Set("durable_generation", durability.durable_generation);
    d.Set("wal_records", durability.wal_records);
    d.Set("wal_bytes", durability.wal_bytes);
    d.Set("checkpoints_written", durability.checkpoints_written);
    d.Set("checkpoint_generation", durability.checkpoint_generation);
    d.Set("checkpoint_failures", durability.checkpoint_failures);
    d.Set("recovered", durability.recovered);
    d.Set("recovered_clean", durability.recovered_clean);
    d.Set("replayed_epochs", durability.replayed_epochs);
    d.Set("replayed_references", durability.replayed_references);
    d.Set("wal_truncated_bytes", durability.wal_truncated_bytes);
    d.Set("write_failed", durability.write_failed);
  }
  doc.Set("durability", std::move(d));
  HttpResponse res = JsonResponse(200, doc);
  res.extra_headers.emplace_back("X-Snapshot-Generation",
                                 std::to_string(snapshot->generation()));
  return res;
}

}  // namespace recon::service
