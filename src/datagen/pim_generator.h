// Synthetic personal-information-space generator.
//
// Stands in for the paper's four private PIM datasets (§5.1): simulated
// email messages and BibTeX entries are "extracted" into Person / Article /
// Venue references with the association structure of Figure 1, with ground
// truth for free. Per-dataset scenario knobs reproduce the phenomena the
// paper reports: name-presentation variety (A), romanized-Chinese name
// overlap (C), the owner's simultaneous last-name and email-account change
// (D), mailing lists, and multi-account persons.

#ifndef RECON_DATAGEN_PIM_GENERATOR_H_
#define RECON_DATAGEN_PIM_GENERATOR_H_

#include <cstdint>
#include <string>

#include "datagen/entities.h"
#include "model/dataset.h"

namespace recon::datagen {

/// Configuration of one synthetic personal dataset.
struct PimConfig {
  uint64_t seed = 1;
  std::string name = "PIM";

  UniverseConfig universe;

  /// Simulated email messages; each yields 2-5 Person references with
  /// emailContact associations.
  int num_messages = 2000;
  /// Simulated BibTeX entries; each yields an Article reference, Person
  /// references for its authors (with coAuthor associations), and a Venue
  /// reference.
  int num_bibtex = 400;

  /// Zipf exponent for who participates in messages (person 0 = owner's
  /// most frequent correspondents first).
  double participant_zipf = 0.75;
  /// Social communities: recipients are drawn from the sender's community
  /// with this probability (else globally). Communities keep unrelated
  /// same-surname people from sharing contacts — without them every pair
  /// of strangers meets at the same handful of hubs.
  double p_recipient_in_community = 0.85;
  /// Average community size (#persons / this = #communities).
  int community_size = 45;
  /// Probability that a mailing list is among a message's recipients.
  double p_mailing_list_recipient = 0.04;

  /// Email extraction: probability a participant reference carries a name
  /// (the address is always present for senders; recipients may be
  /// address-only).
  double p_sender_name = 0.92;
  double p_recipient_name = 0.75;
  /// Recipients extracted from message bodies and quoted threads sometimes
  /// carry a display name but no address.
  double p_recipient_email = 0.88;

  /// BibTeX extraction noise.
  double title_noise = 0.04;
  double p_bib_year = 0.85;
  double p_bib_pages = 0.75;
  double p_venue_location = 0.35;
  /// Venue-string sloppiness in [0, 1]: curated BibTeX is fairly clean but
  /// still mixes acronyms, full names, and the occasional publisher tail.
  double venue_sloppiness = 0.4;

  /// Name-presentation diversity in [0, 1] (dataset A is high).
  double style_variety = 0.5;
  /// Probability a reference renders a person in their habitual style
  /// (people's address books and BibTeX files are fairly consistent).
  double p_habitual_style = 0.60;
  double typo_rate = 0.01;

  /// Zipf exponent for which articles get cited by bibtex entries
  /// (some papers recur across files).
  double citation_zipf = 0.6;
};

/// The paper's four datasets, calibrated to the shape of Table 1.
PimConfig PimConfigA();
PimConfig PimConfigB();
PimConfig PimConfigC();
PimConfig PimConfigD();

/// Returns `config` with every population count scaled by `factor`:
/// `factor` < 1 shrinks it for tests, `factor` > 1 grows it past the
/// paper's corpus (the 1M-reference benchmark workload is 26x PIM B).
PimConfig ScaleConfig(PimConfig config, double factor);

/// Generates the dataset (references + gold labels + provenance).
Dataset GeneratePim(const PimConfig& config);

/// Generates the dataset and also exposes the ground-truth universe.
Dataset GeneratePim(const PimConfig& config, Universe* universe_out);

}  // namespace recon::datagen

#endif  // RECON_DATAGEN_PIM_GENERATOR_H_
