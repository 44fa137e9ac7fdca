// Evidence types: tags on dependency edges naming which term of a class's
// similarity function a neighbor feeds (paper §4, the "types of real-valued
// neighbors" T_i of Equation 1, plus boolean evidence channels).

#ifndef RECON_SIM_EVIDENCE_H_
#define RECON_SIM_EVIDENCE_H_

#include <array>
#include <cstdint>

namespace recon {

/// All evidence channels across the PIM / Cora schemas.
enum Evidence : int {
  // Person-pair evidence.
  kEvPersonName = 0,   ///< name vs name (real-valued)
  kEvPersonEmail,      ///< email vs email (real-valued; equality is a key)
  kEvPersonNameEmail,  ///< name vs email account (real-valued, cross-attr)
  kEvPersonContact,    ///< common coAuthor/emailContact (weak-boolean)
  kEvPersonArticle,    ///< merged authored-article pair (strong-boolean)

  // Article-pair evidence.
  kEvArticleTitle,   ///< title vs title (real-valued)
  kEvArticleYear,    ///< year vs year (real-valued)
  kEvArticlePages,   ///< pages vs pages (real-valued)
  kEvArticleAuthors, ///< similarity of author pairs (real-valued, MAX)
  kEvArticleVenue,   ///< similarity of the venue pair (real-valued)

  // Venue-pair evidence.
  kEvVenueName,     ///< name vs name (real-valued)
  kEvVenueYear,     ///< year vs year (real-valued)
  kEvVenueLocation, ///< location vs location (real-valued)
  kEvVenueArticle,  ///< merged published-article pair (strong-boolean)

  kNumEvidence
};

/// Short printable name for diagnostics.
const char* EvidenceName(int evidence);

/// Inputs to a class similarity function (sim/class_sim.h): MAX per
/// evidence type over a pair's real-valued neighbors and static evidence,
/// per Eq. 1's multi-valued-attribute rule, plus the merged boolean
/// neighbor counts. The channel maxima are floats, the precision of every
/// value the graph holds (node similarities, statics, the similarity
/// memo). Each graph node caches one (graph/node.h), and queries build one
/// per candidate. Header-only: recon_graph cannot link recon_sim.
struct EvidenceSummary {
  EvidenceSummary() { best.fill(-1.0f); }

  /// Best similarity per real-valued evidence channel; -1 when the channel
  /// has no evidence at all (which is different from evidence of value 0).
  std::array<float, kNumEvidence> best;
  /// Number of merged strong-boolean incoming neighbors (statics included).
  int32_t strong_merged = 0;
  /// Number of merged weak-boolean incoming neighbors (statics included).
  int32_t weak_merged = 0;

  bool Has(Evidence e) const { return best[e] >= 0.0f; }
  double Get(Evidence e) const { return best[e]; }
  void Offer(int evidence, float sim) {
    if (sim > best[evidence]) best[evidence] = sim;
  }
};

}  // namespace recon

#endif  // RECON_SIM_EVIDENCE_H_
