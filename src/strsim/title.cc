#include "strsim/title.h"

#include <algorithm>

#include "strsim/edit_distance.h"
#include "strsim/tokens.h"
#include "util/string_util.h"

namespace recon::strsim {

std::string NormalizeTitle(std::string_view title) {
  return Join(Tokenize(title), " ");
}

TitleFeatures AnalyzeTitle(std::string_view title) {
  TitleFeatures features;
  // Tokenize(title) == Tokenize(NormalizeTitle(title)) since normalization
  // is Join(Tokenize(title), " "), so one tokenize pass serves both fields.
  features.tokens = Tokenize(title);
  features.normalized = Join(features.tokens, " ");
  return features;
}

double TitleSimilarity(std::string_view a, std::string_view b) {
  return TitleSimilarity(AnalyzeTitle(a), AnalyzeTitle(b));
}

double TitleSimilarity(const TitleFeatures& a, const TitleFeatures& b) {
  if (a.normalized.empty() || b.normalized.empty()) return 0.0;
  if (a.normalized == b.normalized) return 1.0;

  const double edit = EditSimilarity(a.normalized, b.normalized);
  const double token_sim = JaccardSimilarity(a.tokens, b.tokens);
  return std::clamp(std::max(edit, token_sim), 0.0, 1.0);
}

std::optional<PageRange> ParsePages(std::string_view pages) {
  // Extract the first one or two integer runs.
  int values[2] = {0, 0};
  int count = 0;
  size_t i = 0;
  while (i < pages.size() && count < 2) {
    while (i < pages.size() && (pages[i] < '0' || pages[i] > '9')) ++i;
    if (i >= pages.size()) break;
    long value = 0;
    while (i < pages.size() && pages[i] >= '0' && pages[i] <= '9') {
      value = value * 10 + (pages[i] - '0');
      if (value > 1000000) value = 1000000;
      ++i;
    }
    values[count++] = static_cast<int>(value);
  }
  if (count == 0) return std::nullopt;
  PageRange range;
  range.first = values[0];
  range.last = (count == 2) ? values[1] : values[0];
  if (range.last < range.first) std::swap(range.first, range.last);
  return range;
}

PagesFeatures AnalyzePages(std::string_view pages) {
  PagesFeatures features;
  features.range = ParsePages(pages);
  features.trimmed = std::string(Trim(pages));
  return features;
}

double PagesSimilarity(std::string_view a, std::string_view b) {
  return PagesSimilarity(AnalyzePages(a), AnalyzePages(b));
}

double PagesSimilarity(const PagesFeatures& a, const PagesFeatures& b) {
  const auto& ra = a.range;
  const auto& rb = b.range;
  if (!ra.has_value() || !rb.has_value()) {
    if (a.trimmed.empty() || b.trimmed.empty()) return 0.0;
    return a.trimmed == b.trimmed ? 1.0 : 0.0;
  }
  if (ra->first == rb->first && ra->last == rb->last) return 1.0;
  if (ra->first == rb->first) return 0.8;
  if (ra->first <= rb->last && rb->first <= ra->last) return 0.5;
  return 0.0;
}

}  // namespace recon::strsim
