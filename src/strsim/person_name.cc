#include "strsim/person_name.h"

#include <algorithm>
#include <unordered_map>

#include "strsim/jaro_winkler.h"
#include "util/string_util.h"

namespace recon::strsim {

namespace {

// Similarity credit for given-name component matches that are compatible
// but not literally equal full names.
constexpr double kFullVsInitialMatch = 0.95;
constexpr double kInitialVsInitialMatch = 0.85;

// Thresholds used by the compatibility / contradiction predicates.
constexpr double kSameNameThreshold = 0.95;
constexpr double kDifferentNameThreshold = 0.70;
constexpr double kCompatibleLastThreshold = 0.75;
constexpr double kCompatibleGivenThreshold = 0.70;

const std::unordered_map<std::string, std::string>& NicknameMap() {
  static const auto* map = new std::unordered_map<std::string, std::string>{
      {"mike", "michael"},    {"mick", "michael"},
      {"bob", "robert"},      {"rob", "robert"},
      {"bobby", "robert"},    {"bill", "william"},
      {"will", "william"},    {"billy", "william"},
      {"dick", "richard"},    {"rick", "richard"},
      {"rich", "richard"},    {"jim", "james"},
      {"jimmy", "james"},     {"tom", "thomas"},
      {"tommy", "thomas"},    {"dave", "david"},
      {"dan", "daniel"},      {"danny", "daniel"},
      {"joe", "joseph"},      {"joey", "joseph"},
      {"chris", "christopher"}, {"kate", "katherine"},
      {"katie", "katherine"}, {"kathy", "katherine"},
      {"liz", "elizabeth"},   {"beth", "elizabeth"},
      {"betty", "elizabeth"}, {"sue", "susan"},
      {"andy", "andrew"},     {"drew", "andrew"},
      {"tony", "anthony"},    {"steve", "steven"},
      {"ed", "edward"},       {"eddie", "edward"},
      {"ted", "theodore"},    {"fred", "frederick"},
      {"sam", "samuel"},      {"alex", "alexander"},
      {"ben", "benjamin"},    {"matt", "matthew"},
      {"nick", "nicholas"},   {"pete", "peter"},
      {"ron", "ronald"},      {"ken", "kenneth"},
      {"greg", "gregory"},    {"jeff", "jeffrey"},
      {"jen", "jennifer"},    {"jenny", "jennifer"},
      {"peggy", "margaret"},  {"meg", "margaret"},
      {"maggie", "margaret"}, {"gene", "eugene"},
      {"larry", "lawrence"},  {"harry", "harold"},
      {"jack", "john"},       {"johnny", "john"},
      {"don", "donald"},      {"ray", "raymond"},
      {"vicky", "victoria"},  {"trish", "patricia"},
  };
  return *map;
}

// Appends the given-name components encoded by one raw token.
// "Robert" -> full "robert"; "S." -> initial "s"; "R.S." -> initials "r","s".
void AppendGivenToken(std::string_view token,
                      std::vector<GivenName>& out) {
  const bool had_dot = token.find('.') != std::string_view::npos;
  std::string letters;
  for (char c : token) {
    if (c != '.' && c != ',') letters.push_back(c);
  }
  letters = ToLower(letters);
  if (letters.empty()) return;
  if (had_dot && letters.size() >= 2 && letters.size() <= 3) {
    // Packed initials such as "R.S." or "J.E.B".
    for (char c : letters) out.push_back({std::string(1, c), true});
  } else if (letters.size() == 1) {
    out.push_back({letters, true});
  } else {
    out.push_back({letters, false});
  }
}

std::string StripTrailingPunct(std::string_view s) {
  while (!s.empty() && (s.back() == '.' || s.back() == ',')) {
    s.remove_suffix(1);
  }
  return std::string(s);
}

// Two complete name components (full given names, or last names) either
// agree up to a typo or they are different names: "Meixia" is not "Mei",
// "Romero" is not "Compton", no matter how charitable Jaro-Winkler feels
// about short strings or shared letters. Scores below the typo band are
// crushed.
double CompleteComponentSimilarity(const std::string& a,
                                   const std::string& b) {
  if (a == b) return 1.0;
  const double jw = JaroWinklerSimilarity(a, b);
  constexpr double kTypoBand = 0.93;
  return jw >= kTypoBand ? jw : 0.5 * jw;
}

// Similarity of two aligned given-name components.
double GivenComponentSimilarity(const GivenName& a, const GivenName& b) {
  if (!a.is_initial && !b.is_initial) {
    return CompleteComponentSimilarity(CanonicalGivenName(a.text),
                                       CanonicalGivenName(b.text));
  }
  if (a.is_initial && b.is_initial) {
    return a.text == b.text ? kInitialVsInitialMatch : 0.0;
  }
  const GivenName& initial = a.is_initial ? a : b;
  const GivenName& full = a.is_initial ? b : a;
  // Match the initial against both the literal and the canonical full name
  // ("B." matches "Bob" directly; "R." matches "Bob" via "robert").
  if (!full.text.empty() && full.text[0] == initial.text[0]) {
    return kFullVsInitialMatch;
  }
  const std::string canonical = CanonicalGivenName(full.text);
  if (!canonical.empty() && canonical[0] == initial.text[0]) {
    return kFullVsInitialMatch;
  }
  return 0.0;
}

// Mean similarity of positionally aligned given-name lists. Extra trailing
// components on one side (e.g. a middle initial the other reference lacks)
// are treated as missing information, not as disagreement.
double AlignedGivenSimilarity(const std::vector<GivenName>& a,
                              const std::vector<GivenName>& b) {
  const size_t aligned = std::min(a.size(), b.size());
  if (aligned == 0) return -1.0;  // Signals "no comparable given names".
  double total = 0;
  for (size_t i = 0; i < aligned; ++i) {
    total += GivenComponentSimilarity(a[i], b[i]);
  }
  return total / static_cast<double>(aligned);
}

}  // namespace

bool PersonName::HasFullGivenName() const {
  return std::any_of(given.begin(), given.end(),
                     [](const GivenName& g) { return !g.is_initial; });
}

bool PersonName::IsFullName() const {
  return !last.empty() && HasFullGivenName();
}

PersonName ParsePersonName(std::string_view raw) {
  PersonName name;
  const std::string_view trimmed = TrimView(raw);
  if (trimmed.empty()) return name;

  const size_t comma = trimmed.find(',');
  if (comma != std::string_view::npos) {
    // "Last, First [Middle...]" or "Last, F.M."
    const std::vector<std::string> last_tokens =
        SplitWhitespace(trimmed.substr(0, comma));
    std::vector<std::string> cleaned;
    for (const auto& t : last_tokens) {
      std::string c = ToLower(StripTrailingPunct(t));
      if (!c.empty()) cleaned.push_back(std::move(c));
    }
    name.last = Join(cleaned, " ");
    for (const auto& token : SplitWhitespace(trimmed.substr(comma + 1))) {
      AppendGivenToken(token, name.given);
    }
    return name;
  }

  const std::vector<std::string> tokens = SplitWhitespace(trimmed);
  if (tokens.size() == 1) {
    name.single_token = true;
    AppendGivenToken(tokens[0], name.given);
    return name;
  }
  // "First [Middle...] Last".
  name.last = ToLower(StripTrailingPunct(tokens.back()));
  for (size_t i = 0; i + 1 < tokens.size(); ++i) {
    AppendGivenToken(tokens[i], name.given);
  }
  return name;
}

std::string CanonicalGivenName(std::string_view name) {
  const std::string lower = ToLower(name);
  auto it = NicknameMap().find(lower);
  return it != NicknameMap().end() ? it->second : lower;
}

double PersonNameSimilarity(const PersonName& a, const PersonName& b) {
  const bool a_empty = a.given.empty() && a.last.empty();
  const bool b_empty = b.given.empty() && b.last.empty();
  if (a_empty || b_empty) return 0.0;

  // Single ambiguous tokens: try the token as a first name and as a last
  // name against the structured side; apply an ambiguity discount.
  if (a.single_token || b.single_token) {
    const PersonName& single = a.single_token ? a : b;
    const PersonName& other = a.single_token ? b : a;
    if (single.given.empty()) return 0.0;
    const std::string token = CanonicalGivenName(single.given[0].text);
    double best = 0;
    if (other.single_token) {
      if (!other.given.empty()) {
        best = JaroWinklerSimilarity(
            token, CanonicalGivenName(other.given[0].text));
      }
    } else {
      for (const auto& g : other.given) {
        if (g.is_initial) {
          if (!token.empty() && token[0] == g.text[0]) {
            best = std::max(best, 0.7);
          }
        } else {
          best = std::max(
              best, JaroWinklerSimilarity(token, CanonicalGivenName(g.text)));
        }
      }
      if (!other.last.empty()) {
        best = std::max(best, JaroWinklerSimilarity(token, other.last));
      }
    }
    return 0.8 * best;
  }

  const double last_sim = CompleteComponentSimilarity(a.last, b.last);
  const double given_sim = AlignedGivenSimilarity(a.given, b.given);
  if (given_sim < 0) {
    // One side has no given names at all: rely on last names alone, at
    // reduced confidence.
    return 0.75 * last_sim;
  }
  // Given names carry more weight than last names: a shared surname with
  // clearly different given names — and equally a shared given name with a
  // different surname — must score below the range where corroborating
  // evidence could tip the pair over the merge threshold.
  return 0.45 * last_sim + 0.55 * given_sim;
}

double PersonNameSimilarity(std::string_view a, std::string_view b) {
  return PersonNameSimilarity(ParsePersonName(a), ParsePersonName(b));
}

bool NamesContradict(const PersonName& a, const PersonName& b) {
  if (a.single_token || b.single_token) return false;
  const bool both_have_last = !a.last.empty() && !b.last.empty();
  const bool both_have_full_first = !a.given.empty() && !b.given.empty() &&
                                    !a.given[0].is_initial &&
                                    !b.given[0].is_initial;
  if (!both_have_last || !both_have_full_first) return false;

  const double last_sim = JaroWinklerSimilarity(a.last, b.last);
  const double first_sim =
      JaroWinklerSimilarity(CanonicalGivenName(a.given[0].text),
                            CanonicalGivenName(b.given[0].text));
  const bool same_last = last_sim >= kSameNameThreshold;
  const bool same_first = first_sim >= kSameNameThreshold;
  const bool different_last = last_sim < kDifferentNameThreshold;
  const bool different_first = first_sim < kDifferentNameThreshold;
  return (same_first && different_last) || (same_last && different_first);
}

bool NamesCompatible(const PersonName& a, const PersonName& b) {
  if (a.single_token || b.single_token) return true;
  if (!a.last.empty() && !b.last.empty()) {
    if (JaroWinklerSimilarity(a.last, b.last) < kCompatibleLastThreshold) {
      return false;
    }
  }
  const size_t aligned = std::min(a.given.size(), b.given.size());
  for (size_t i = 0; i < aligned; ++i) {
    const GivenName& ga = a.given[i];
    const GivenName& gb = b.given[i];
    if (!ga.is_initial && !gb.is_initial) {
      if (JaroWinklerSimilarity(CanonicalGivenName(ga.text),
                                CanonicalGivenName(gb.text)) <
          kCompatibleGivenThreshold) {
        return false;
      }
    } else if (GivenComponentSimilarity(ga, gb) == 0.0) {
      return false;
    }
  }
  return true;
}

}  // namespace recon::strsim
