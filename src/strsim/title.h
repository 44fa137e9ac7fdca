// Article-title normalization and similarity, plus page-range comparison.

#ifndef RECON_STRSIM_TITLE_H_
#define RECON_STRSIM_TITLE_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace recon::strsim {

/// Lowercases, strips punctuation, and collapses whitespace.
std::string NormalizeTitle(std::string_view title);

/// Precomputed title analysis: the normalized form plus its tokens. Building
/// this once per distinct title and comparing features avoids re-normalizing
/// and re-tokenizing per pair.
struct TitleFeatures {
  std::string normalized;           ///< NormalizeTitle(title).
  std::vector<std::string> tokens;  ///< Tokenize(title) == Tokenize(normalized).
};

/// Analyzes `title` once for repeated comparison.
TitleFeatures AnalyzeTitle(std::string_view title);

/// Title similarity in [0, 1]: the max of normalized edit similarity and
/// token-set Jaccard similarity.
double TitleSimilarity(std::string_view a, std::string_view b);

/// Feature-level overload; identical result to the raw-string form.
double TitleSimilarity(const TitleFeatures& a, const TitleFeatures& b);

/// A parsed page range.
struct PageRange {
  int first = 0;
  int last = 0;
};

/// Parses "169-180", "169--180", "pp. 169-180", or a single page "169".
std::optional<PageRange> ParsePages(std::string_view pages);

/// Precomputed page analysis: the parsed range (when parseable) plus the
/// trimmed raw form used for the exact-string fallback.
struct PagesFeatures {
  std::optional<PageRange> range;
  std::string trimmed;  ///< Trim(pages).
};

/// Analyzes `pages` once for repeated comparison.
PagesFeatures AnalyzePages(std::string_view pages);

/// Page similarity: 1.0 for equal ranges, 0.8 for equal first page, 0.5 for
/// overlapping ranges, else 0. Unparseable inputs compare as exact strings.
double PagesSimilarity(std::string_view a, std::string_view b);

/// Feature-level overload; identical result to the raw-string form.
double PagesSimilarity(const PagesFeatures& a, const PagesFeatures& b);

}  // namespace recon::strsim

#endif  // RECON_STRSIM_TITLE_H_
