// Command-line reconciler: load a dataset file (see model/text_io.h for
// the format, or produce one with --demo) or import raw sources
// (CSV / BibTeX / mbox), run DepGraph, IndepDec or Fellegi-Sunter, and
// print the resulting partitions (plus accuracy when gold labels exist).
//
// Usage: see PrintUsage() below (reconcile_cli --help).
//
// Exit codes — each failure family gets its own, so scripts can branch
// without parsing stderr:
//   0  success
//   2  usage error (unknown flag, bad flag value, missing input)
//   3  file I/O failure (input unreadable, --demo output unwritable)
//   4  dataset file parse failure
//   5  CSV import failure
//   6  BibTeX parse failure
//   7  email (mbox) parse failure
// Every failure prints a one-line diagnostic to stderr.

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "baseline/fellegi_sunter.h"
#include "core/reconciler.h"
#include "core/schema_binding.h"
#include "datagen/pim_generator.h"
#include "eval/metrics.h"
#include "extract/csv_import.h"
#include "extract/extractor.h"
#include "model/text_io.h"
#include "util/string_util.h"
#include "util/version.h"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitFileIo = 3;
constexpr int kExitDatasetParse = 4;
constexpr int kExitCsvImport = 5;
constexpr int kExitBibtexParse = 6;
constexpr int kExitEmailParse = 7;

constexpr int64_t kMaxThreads = 1024;
constexpr int64_t kMaxCount = std::numeric_limits<int64_t>::max();

void PrintUsage(std::ostream& out) {
  out << "usage: reconcile_cli [options] <input file>\n"
         "       reconcile_cli --demo <out file>\n"
         "\n"
         "input:\n"
         "  <input file>            dataset in the text format of "
         "model/text_io.h\n"
         "  --import csv|bibtex|mbox  treat <input file> as raw sources:\n"
         "                          csv    person rows: name,email[,gold]\n"
         "                          bibtex article/venue/author references\n"
         "                          mbox   person references per "
         "participant\n"
         "  --demo <out file>       write a small synthetic PIM dataset and "
         "exit\n"
         "  --scale X               size multiplier for the --demo generator\n"
         "                          (default 0.03; 1 = the paper's PIM "
         "corpus,\n"
         "                          larger values scale past it)\n"
         "\n"
         "algorithm:\n"
         "  --algo depgraph|indepdec|fs   (default depgraph)\n"
         "                          indepdec: attribute-wise evidence, one "
         "pass,\n"
         "                          no enrichment or constraints; it "
         "ignores\n"
         "                          --evidence and --no-constraints\n"
         "                          fs: Fellegi-Sunter; it takes no budget "
         "flags\n"
         "  --no-constraints        disable constraint enforcement (ablation)\n"
         "  --evidence attr|ne|article|contact   evidence level (ablation)\n"
         "  --threads N             graph-build worker threads, 0..1024\n"
         "                          (0 = all hardware threads); the solve\n"
         "                          runs on one thread. Partitions and\n"
         "                          graph counters are identical for every\n"
         "                          N; an evicting memo may split its\n"
         "                          lookups into hits and misses\n"
         "                          differently\n"
         "\n"
         "execution budget (DESIGN.md §10) — on exhaustion the run "
         "never aborts;\n"
         "it degrades to a valid partial result and reports the stop "
         "reason:\n"
         "  --deadline-ms MS        wall-clock deadline for the whole run\n"
         "  --max-solver-iterations N   cap on fixed-point iterations\n"
         "  --max-merges N          cap on merges\n"
         "\n"
         "  --help                  this text\n"
         "  --version               print version and exit\n";
}

int Demo(const std::string& path, double scale) {
  recon::datagen::PimConfig config = recon::datagen::PimConfigA();
  config = recon::datagen::ScaleConfig(config, scale);
  const recon::Dataset data = recon::datagen::GeneratePim(config);
  const recon::Status status = recon::SaveDatasetToFile(data, path);
  if (!status.ok()) {
    std::cerr << "cannot write " << path << ": " << status.ToString()
              << "\n";
    return kExitFileIo;
  }
  std::cout << "Wrote " << data.num_references() << " references to "
            << path << "\n";
  return kExitOk;
}

/// Reads a whole file; false (with a one-line stderr diagnostic) on I/O
/// failure.
bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "cannot read " << path << "\n";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    std::cerr << "read error on " << path << "\n";
    return false;
  }
  *out = buffer.str();
  return true;
}

/// Imports person rows (name,email[,gold]) from CSV text into a fresh PIM
/// dataset. Returns kExitOk or kExitCsvImport.
int ImportCsvFile(const std::string& text, recon::Dataset* out) {
  using recon::extract::CsvImportSpec;
  const recon::SchemaBinding binding =
      recon::SchemaBinding::Resolve(out->schema());
  CsvImportSpec spec;
  spec.class_id = binding.person;
  spec.column_to_attribute = {binding.person_name, binding.person_email};
  // A third header column carries integer gold labels.
  const auto rows = recon::extract::ParseCsv(text);
  if (!rows.empty() && rows.front().size() >= 3) spec.gold_column = 2;
  const recon::StatusOr<int> added =
      recon::extract::ImportCsv(text, spec, out);
  if (!added.ok()) {
    std::cerr << "csv import failed: " << added.status().ToString() << "\n";
    return kExitCsvImport;
  }
  std::cout << "Imported " << added.value() << " person references from "
            << "CSV.\n";
  return kExitOk;
}

/// Imports every BibTeX entry strictly: any malformed entry fails the run
/// (unlike ParseBibtexFile, which skips them) so corrupt inputs are
/// surfaced instead of silently shrinking the dataset.
int ImportBibtexFile(const std::string& text,
                     recon::extract::Extractor* extractor) {
  size_t pos = 0;
  int entries = 0;
  for (;;) {
    recon::StatusOr<recon::extract::BibtexEntry> entry =
        recon::extract::ParseNextBibtexEntry(text, &pos);
    if (!entry.ok()) {
      if (entry.status().code() == recon::StatusCode::kNotFound) break;
      std::cerr << "bibtex parse failed: " << entry.status().ToString()
                << "\n";
      return kExitBibtexParse;
    }
    extractor->AddBibtexEntry(entry.value());
    ++entries;
  }
  std::cout << "Imported " << entries << " BibTeX entries.\n";
  return kExitOk;
}

/// Imports an mbox strictly: any unparseable message fails the run
/// (unlike ParseMbox, which skips them).
int ImportMboxFile(const std::string& text,
                   recon::extract::Extractor* extractor) {
  std::vector<std::string> chunks;
  std::string current;
  for (const std::string& line : recon::Split(text, '\n')) {
    if (line.starts_with("From ")) {
      if (!current.empty()) chunks.push_back(current);
      current.clear();
      continue;
    }
    current += line;
    current += '\n';
  }
  if (!recon::TrimView(current).empty()) chunks.push_back(current);

  int messages = 0;
  for (const std::string& chunk : chunks) {
    recon::StatusOr<recon::extract::EmailMessage> parsed =
        recon::extract::ParseEmailMessage(chunk);
    if (!parsed.ok()) {
      std::cerr << "email parse failed (message " << (messages + 1)
                << "): " << parsed.status().ToString() << "\n";
      return kExitEmailParse;
    }
    extractor->AddMessage(parsed.value());
    ++messages;
  }
  std::cout << "Imported " << messages << " messages.\n";
  return kExitOk;
}

/// Parses a positive number flag value; false prints the diagnostic.
bool ParsePositive(const char* flag, const char* value, double* out) {
  char* end = nullptr;
  *out = std::strtod(value, &end);
  if (end == value || *end != '\0' || *out <= 0) {
    std::cerr << flag << " needs a positive number, got \"" << value
              << "\"\n";
    return false;
  }
  return true;
}

/// Parses an integer flag value in [min, max]; false prints the
/// diagnostic. Fractions, exponents and out-of-range values are rejected
/// rather than truncated or wrapped.
bool ParseInt(const char* flag, const char* value, int64_t min, int64_t max,
              int64_t* out) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < min ||
      parsed > max) {
    std::cerr << flag << " needs an integer in [" << min << ", " << max
              << "], got \"" << value << "\"\n";
    return false;
  }
  *out = parsed;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace recon;

  std::string path;
  std::string algo = "depgraph";
  std::string import_kind;
  std::string demo_path;
  double demo_scale = 0.03;
  ReconcilerOptions options = ReconcilerOptions::DepGraph();
  // The last budget flag given, or null: Fellegi-Sunter has no budget.
  const char* budget_flag = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return kExitOk;
    }
    if (arg == "--version") {
      std::cout << recon::ReconBuildInfo() << "\n";
      return kExitOk;
    }
    if (arg == "--demo" && i + 1 < argc) {
      demo_path = argv[++i];
    } else if (arg == "--scale" && i + 1 < argc) {
      if (!ParsePositive("--scale", argv[++i], &demo_scale)) {
        return kExitUsage;
      }
    } else if (arg == "--algo" && i + 1 < argc) {
      algo = argv[++i];
    } else if (arg == "--no-constraints") {
      options.constraints = false;
    } else if (arg == "--import" && i + 1 < argc) {
      import_kind = argv[++i];
      if (import_kind != "csv" && import_kind != "bibtex" &&
          import_kind != "mbox") {
        std::cerr << "--import needs csv, bibtex, or mbox, got \""
                  << import_kind << "\"\n";
        return kExitUsage;
      }
    } else if (arg == "--threads" && i + 1 < argc) {
      int64_t threads = 0;
      if (!ParseInt("--threads", argv[++i], 0, kMaxThreads, &threads)) {
        return kExitUsage;
      }
      options.num_threads = static_cast<int>(threads);
    } else if (arg == "--deadline-ms" && i + 1 < argc) {
      budget_flag = argv[i];
      if (!ParsePositive("--deadline-ms", argv[++i],
                         &options.budget.deadline_ms)) {
        return kExitUsage;
      }
    } else if (arg == "--max-solver-iterations" && i + 1 < argc) {
      budget_flag = argv[i];
      if (!ParseInt("--max-solver-iterations", argv[++i], 1, kMaxCount,
                    &options.budget.max_solver_iterations)) {
        return kExitUsage;
      }
    } else if (arg == "--max-merges" && i + 1 < argc) {
      budget_flag = argv[i];
      if (!ParseInt("--max-merges", argv[++i], 1, kMaxCount,
                    &options.budget.max_merges)) {
        return kExitUsage;
      }
    } else if (arg == "--evidence" && i + 1 < argc) {
      const std::string level = argv[++i];
      if (level == "attr") options.evidence_level = EvidenceLevel::kAttrWise;
      else if (level == "ne") options.evidence_level = EvidenceLevel::kNameEmail;
      else if (level == "article") options.evidence_level = EvidenceLevel::kArticle;
      else if (level == "contact") options.evidence_level = EvidenceLevel::kContact;
      else {
        std::cerr << "unknown evidence level " << level << "\n";
        return kExitUsage;
      }
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::cerr << "unknown flag " << arg << " (see --help)\n";
      return kExitUsage;
    }
  }
  if (algo == "fs" && budget_flag != nullptr) {
    std::cerr << budget_flag << " does not apply to --algo fs\n";
    return kExitUsage;
  }
  if (!demo_path.empty()) return Demo(demo_path, demo_scale);
  if (path.empty()) {
    PrintUsage(std::cerr);
    return kExitUsage;
  }

  // Placeholder over a finalized schema; every path below replaces it.
  Dataset data(BuildPimSchema());
  if (import_kind.empty()) {
    StatusOr<Dataset> loaded = LoadDatasetFromFile(path);
    if (!loaded.ok()) {
      // The loader distinguishes unreadable files from malformed content.
      std::cerr << "cannot load " << path << ": "
                << loaded.status().ToString() << "\n";
      return loaded.status().code() == StatusCode::kNotFound
                 ? kExitFileIo
                 : kExitDatasetParse;
    }
    data = std::move(loaded).value();
  } else {
    std::string text;
    if (!ReadFile(path, &text)) return kExitFileIo;
    extract::Extractor extractor;
    if (import_kind == "csv") {
      Dataset imported(BuildPimSchema());
      const int rc = ImportCsvFile(text, &imported);
      if (rc != kExitOk) return rc;
      data = std::move(imported);
    } else {
      const int rc = import_kind == "bibtex"
                         ? ImportBibtexFile(text, &extractor)
                         : ImportMboxFile(text, &extractor);
      if (rc != kExitOk) return rc;
      data = extractor.TakeDataset();
    }
  }
  std::cout << "Loaded " << data.num_references() << " references, "
            << data.schema().num_classes() << " classes.\n";

  ReconcileResult result;
  if (algo == "indepdec") {
    ReconcilerOptions indep_options = ReconcilerOptions::IndepDec();
    indep_options.num_threads = options.num_threads;
    indep_options.budget = options.budget;
    const Reconciler reconciler(indep_options);
    result = reconciler.Run(data);
  } else if (algo == "depgraph") {
    const Reconciler reconciler(options);
    result = reconciler.Run(data);
  } else if (algo == "fs") {
    const FellegiSunter reconciler(options);
    result = reconciler.Run(data);
  } else {
    std::cerr << "unknown algorithm " << algo << "\n";
    return kExitUsage;
  }

  for (int c = 0; c < data.schema().num_classes(); ++c) {
    const int refs = static_cast<int>(data.ReferencesOfClass(c).size());
    if (refs == 0) continue;
    std::cout << data.schema().class_def(c).name << ": " << refs
              << " references -> " << result.NumPartitionsOfClass(data, c)
              << " partitions";
    if (data.NumEntitiesOfClass(c) > 0) {
      const PairMetrics m = EvaluateClass(data, result.cluster, c);
      std::cout << "  (gold: " << m.num_entities << " entities, P="
                << m.precision << " R=" << m.recall << " F=" << m.f1 << ")";
    }
    std::cout << "\n";
  }
  std::cout << "Graph: " << result.stats.num_nodes << " nodes, "
            << result.stats.num_merges << " merges; build "
            << result.stats.build_seconds << "s solve "
            << result.stats.solve_seconds << "s\n";
  if (result.stats.graph_bytes > 0) {
    std::cout << "Graph memory: " << result.stats.graph_bytes
              << " B (nodes " << result.stats.graph_node_bytes
              << " B, edges " << result.stats.graph_edge_bytes
              << " B, indices " << result.stats.graph_index_bytes << " B)\n";
    std::cout << "Graph upkeep: negative propagation examined "
              << result.stats.negprop_sources << " of "
              << result.stats.num_non_merge_pairs << " non-merge pairs ("
              << result.stats.num_derived_non_merge_pairs << " derived); "
              << result.stats.num_unmerged_pairs << " merged pairs unmerged; "
              << result.stats.graph_compactions << " pool compactions\n";
  }
  if (result.stats.num_pair_comparisons > 0) {
    std::cout << "Scoring: " << result.stats.num_pair_comparisons
              << " pair comparisons, " << result.stats.num_value_analyses
              << " value analyses; memo " << result.stats.num_sim_memo_hits
              << " hits / " << result.stats.num_sim_memo_misses
              << " misses, " << result.stats.num_sim_memo_evictions
              << " evictions (" << result.stats.sim_memo_bytes
              << " B, store " << result.stats.value_store_bytes << " B); "
              << result.stats.num_dropped_blocks
              << " blocks over the cap dropped\n";
  }
  if (algo != "fs") {
    std::cout << "Stop: " << StopReasonToString(result.stats.stop_reason)
              << " after " << result.stats.solver_iterations
              << " iterations (" << result.stats.num_budget_probes
              << " budget probes)\n";
  }
  return kExitOk;
}
