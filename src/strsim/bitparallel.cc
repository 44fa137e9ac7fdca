#include "strsim/bitparallel.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

namespace recon::strsim {

namespace {

constexpr uint64_t kHighBit = 1ULL << 63;

// One Myers column step over one 64-row word. `eq` is the PEQ match mask
// for the current text character, `hin` the horizontal delta entering the
// word's top row (-1/0/+1), `out_mask` selects the row whose horizontal
// delta is returned (bit 63 to chain words; bit (m-1)%64 in the last word
// to maintain the row-m score). pv/mv are the word's vertical +1/-1 delta
// vectors. Formulation follows Hyyrö's block variant as used by edlib.
inline int ColumnStep(uint64_t eq, int hin, uint64_t* pv, uint64_t* mv,
                      uint64_t out_mask) {
  const uint64_t xv = eq | *mv;
  if (hin < 0) eq |= 1ULL;
  const uint64_t xh = (((eq & *pv) + *pv) ^ *pv) | eq;
  uint64_t ph = *mv | ~(xh | *pv);
  uint64_t mh = *pv & xh;
  int hout = 0;
  if (ph & out_mask) hout = 1;
  if (mh & out_mask) hout = -1;
  ph <<= 1;
  mh <<= 1;
  if (hin < 0) mh |= 1ULL;
  if (hin > 0) ph |= 1ULL;
  *pv = mh | ~(xv | ph);
  *mv = ph & xv;
  return hout;
}

// Single-word core (pattern length 1..64).
int MyersOneWord(std::string_view pattern, std::string_view text) {
  uint64_t peq[256] = {};
  const int m = static_cast<int>(pattern.size());
  for (int i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pattern[i])] |= 1ULL << i;
  }
  uint64_t pv = ~0ULL;
  uint64_t mv = 0;
  int score = m;
  const uint64_t score_mask = 1ULL << (m - 1);
  const int n = static_cast<int>(text.size());
  for (int j = 0; j < n; ++j) {
    score += ColumnStep(peq[static_cast<unsigned char>(text[j])], 1, &pv,
                        &mv, score_mask);
  }
  return score;
}

// Multi-word core (pattern length > 64). Words chain horizontal deltas
// through bit 63; the last word tracks the score at row m via bit
// (m-1)%64 — bits above it hold rows past the pattern end and are inert
// (carries in the XH addition only propagate low-to-high). Thread-local
// scratch keeps the PEQ table and delta vectors allocation-free in
// steady state.
int MyersBlocked(std::string_view pattern, std::string_view text) {
  const int m = static_cast<int>(pattern.size());
  const int n = static_cast<int>(text.size());
  const int words = (m + 63) / 64;

  thread_local std::vector<uint64_t> peq;    // [char * words + word]
  thread_local std::vector<uint64_t> pv;
  thread_local std::vector<uint64_t> mv;
  if (static_cast<int>(pv.size()) < words) {
    pv.resize(words);
    mv.resize(words);
  }
  if (static_cast<int>(peq.size()) < 256 * words) peq.resize(256 * words);
  std::memset(peq.data(), 0, sizeof(uint64_t) * 256 * words);
  for (int i = 0; i < m; ++i) {
    peq[static_cast<unsigned char>(pattern[i]) * words + i / 64] |=
        1ULL << (i % 64);
  }
  for (int w = 0; w < words; ++w) {
    pv[w] = ~0ULL;
    mv[w] = 0;
  }

  int score = m;
  const uint64_t score_mask = 1ULL << ((m - 1) % 64);
  for (int j = 0; j < n; ++j) {
    const uint64_t* eq = &peq[static_cast<unsigned char>(text[j]) * words];
    int hin = 1;
    for (int w = 0; w + 1 < words; ++w) {
      hin = ColumnStep(eq[w], hin, &pv[w], &mv[w], kHighBit);
    }
    score += ColumnStep(eq[words - 1], hin, &pv[words - 1], &mv[words - 1],
                        score_mask);
  }
  return score;
}

}  // namespace

int MyersLevenshteinDistance(std::string_view a, std::string_view b) {
  if (a.size() > b.size()) std::swap(a, b);
  if (a.empty()) return static_cast<int>(b.size());
  if (a.size() <= 64) return MyersOneWord(a, b);
  return MyersBlocked(a, b);
}

}  // namespace recon::strsim
