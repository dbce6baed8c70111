#include "msa/mafft_like.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "kmer/kmer_rank.hpp"
#include "msa/guide_tree.hpp"
#include "msa/progressive.hpp"
#include "msa/refinement.hpp"
#include "util/fft.hpp"

namespace salign::msa {

namespace {

/// Base DP band half-width of an FFT-anchored merge; fft_band widens it by
/// the correlation peak's offset.
constexpr std::size_t kBaseBand = 24;

// Grantham (Science 1974) side-chain volume and polarity, indexed by the
// amino-acid alphabet order A R N D C Q E G H I L K M F P S T W Y V; the
// wildcard X gets the mean. Katoh et al. correlate exactly these two
// channels (normalized) to find homologous segments.
constexpr double kVolume[21] = {31,  124, 56,  54,   55, 85,  83,
                                3,   96,  111, 111,  119, 105, 132,
                                32.5, 32,  61,  170, 136, 84,  84.0};
constexpr double kPolarity[21] = {8.1, 10.5, 11.6, 13.0, 5.5, 10.5, 12.3,
                                  9.0, 10.4, 5.2,  4.9,  11.3, 5.7, 5.2,
                                  8.0, 9.2,  8.6,  5.4,  6.2,  5.9, 8.3};

/// Normalizes a channel to zero mean / unit variance so the correlation
/// peak reflects shape, not absolute magnitude.
void normalize(std::vector<double>& v) {
  if (v.empty()) return;
  double mean = 0.0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0.0;
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size());
  const double sd = std::sqrt(var);
  if (sd < 1e-12) {
    std::fill(v.begin(), v.end(), 0.0);
    return;
  }
  for (double& x : v) x = (x - mean) / sd;
}

/// Column-averaged property signal of an alignment (gap cells contribute 0).
std::vector<double> property_signal(const Alignment& aln,
                                    const double* table) {
  std::vector<double> sig(aln.num_cols(), 0.0);
  for (std::size_t c = 0; c < aln.num_cols(); ++c) {
    double sum = 0.0;
    std::size_t count = 0;
    for (std::size_t r = 0; r < aln.num_rows(); ++r) {
      const std::uint8_t code = aln.cell(r, c);
      if (code == Alignment::kGap) continue;
      sum += table[code];
      ++count;
    }
    sig[c] = count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  normalize(sig);
  return sig;
}

/// FFT anchor: correlation peak offset between the two groups' property
/// signals. Returns the band half-width to use for the merge.
std::size_t fft_band(const Alignment& a, const Alignment& b) {
  if (a.num_cols() < 8 || b.num_cols() < 8) return 0;  // full DP for tiny
  const std::vector<double> av = property_signal(a, kVolume);
  const std::vector<double> ap = property_signal(a, kPolarity);
  const std::vector<double> bv = property_signal(b, kVolume);
  const std::vector<double> bp = property_signal(b, kPolarity);

  const std::vector<double> cv = util::cross_correlation(av, bv);
  const std::vector<double> cp = util::cross_correlation(ap, bp);
  double best = -1e300;
  std::size_t arg = 0;
  for (std::size_t k = 0; k < cv.size(); ++k) {
    const double v = cv[k] + cp[k];
    if (v > best) {
      best = v;
      arg = k;
    }
  }
  // Lag (b_len - 1) is zero shift; the band must cover the peak offset.
  const auto zero = static_cast<long>(b.num_cols()) - 1;
  const long delta = static_cast<long>(arg) - zero;
  return kBaseBand + static_cast<std::size_t>(std::labs(delta));
}

}  // namespace

MafftAligner::MafftAligner(MafftOptions options,
                           const bio::SubstitutionMatrix& matrix)
    : options_(options), matrix_(&matrix) {}

std::string MafftAligner::name() const {
  std::string n = options_.use_fft ? "FFTNS" : "NWNS";
  if (options_.refine_passes > 0) n += "I";
  return n;
}

Alignment MafftAligner::align(std::span<const bio::Sequence> seqs) const {
  if (seqs.empty()) throw std::invalid_argument("MafftAligner: no sequences");
  if (seqs.size() == 1) return Alignment::from_sequence(seqs[0]);

  // MAFFT counts 6-mers; on our compressed alphabet the default k = 4 gives
  // a comparable space.
  const GuideTree tree = GuideTree::upgma(
      kmer::distance_matrix(seqs, kmer::KmerParams{}, options_.threads));

  ProgressiveOptions po;
  po.gaps = matrix_->default_gaps();
  po.weights = tree.leaf_weights();
  po.threads = options_.threads;
  if (options_.use_fft) {
    po.band_provider = [](const Alignment& a, const Alignment& b) {
      return fft_band(a, b);
    };
  }
  // Rows in input order: leaf i == sequence i == row i afterwards.
  Alignment aln =
      in_input_order(progressive_align(seqs, tree, *matrix_, po), seqs);

  if (options_.refine_passes > 0) {
    RefineOptions ro;
    ro.passes = options_.refine_passes;
    ro.gaps = matrix_->default_gaps();
    std::vector<std::size_t> rows(seqs.size());
    for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
    const std::vector<double> weights = tree.leaf_weights();
    refine(aln, tree, rows, *matrix_, ro, weights);
  }

  aln.validate();
  return aln;
}

}  // namespace salign::msa
