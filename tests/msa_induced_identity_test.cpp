#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "align/distance.hpp"
#include "bio/content_hash.hpp"
#include "msa/induced_identity.hpp"
#include "msa/msa_serialize.hpp"
#include "msa/muscle_like.hpp"
#include "par/serialize.hpp"
#include "util/artifact_cache.hpp"
#include "util/rng.hpp"
#include "util/stable_hash.hpp"
#include "util/string_util.hpp"
#include "workload/rose.hpp"

namespace salign::msa {
namespace {

// ---- scalar oracle -----------------------------------------------------------
//
// The per-column loop the bit-sliced kernel replaced: every count and every
// Kimura double of the kernel must equal these.

IdentityCounts oracle_counts(const Alignment& aln, std::size_t a,
                             std::size_t b) {
  const auto& x = aln.row(a).cells;
  const auto& y = aln.row(b).cells;
  IdentityCounts c;
  for (std::size_t col = 0; col < x.size(); ++col) {
    if (x[col] == Alignment::kGap || y[col] == Alignment::kGap) continue;
    ++c.cols;
    if (x[col] == y[col]) ++c.matches;
  }
  return c;
}

util::SymmetricMatrix<double> oracle_kimura(const Alignment& aln) {
  const std::size_t n = aln.num_rows();
  util::SymmetricMatrix<double> d(n);
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j) {
      const IdentityCounts c = oracle_counts(aln, i, j);
      d(i, j) = align::kimura_distance(
          c.cols == 0 ? 0.0
                      : static_cast<double>(c.matches) /
                            static_cast<double>(c.cols));
    }
  return d;
}

/// Lower triangle plus diagonal, row by row, for memcmp comparisons.
std::vector<double> flatten(const util::SymmetricMatrix<double>& d) {
  std::vector<double> out;
  for (std::size_t i = 0; i < d.size(); ++i)
    for (std::size_t j = 0; j <= i; ++j) out.push_back(d(i, j));
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// n seeded rows of `width` columns: mutated copies of one ancestor (so pair
// identities spread from ~0 to 1), with gaps and wildcards sprinkled in,
// one all-gap row, one wildcard-only row and one exact duplicate.
Alignment random_alignment(bio::AlphabetKind kind, std::size_t width,
                           std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  const bio::Alphabet& alpha = bio::Alphabet::get(kind);
  const auto letters = static_cast<std::uint64_t>(alpha.letters());
  std::vector<std::uint8_t> ancestor(width);
  for (auto& c : ancestor) c = static_cast<std::uint8_t>(rng.below(letters));
  std::vector<AlignedRow> rows;
  for (std::size_t r = 0; r < n; ++r) {
    AlignedRow row;
    row.id = util::indexed_name("r", r);
    if (r == 1) {
      row.cells.assign(width, Alignment::kGap);
    } else if (r == 3) {
      row.cells.assign(width, alpha.wildcard());
    } else if (r == 4 && !rows.empty()) {
      row.cells = rows[0].cells;
    } else {
      row.cells = ancestor;
      const std::uint64_t mutate = 5 + 10 * r;  // percent, grows with r
      for (auto& c : row.cells) {
        const std::uint64_t roll = rng.below(100);
        if (roll < 12) c = Alignment::kGap;
        else if (roll < 14) c = alpha.wildcard();
        else if (roll < 14 + mutate)
          c = static_cast<std::uint8_t>(rng.below(letters));
      }
    }
    rows.push_back(std::move(row));
  }
  return Alignment(std::move(rows), kind);
}

struct KindCase {
  const char* name;
  bio::AlphabetKind kind;
};

const KindCase kKinds[] = {
    {"amino", bio::AlphabetKind::AminoAcid},
    {"dna", bio::AlphabetKind::Dna},
    {"compressed14", bio::AlphabetKind::Compressed14},
};

const std::size_t kWidths[] = {1, 63, 64, 65, 300};

TEST(IdentityPlanes, CountsMatchScalarOracle) {
  for (const KindCase& k : kKinds)
    for (const std::size_t width : kWidths) {
      const Alignment aln = random_alignment(k.kind, width, 9, 17 + width);
      const IdentityPlanes sliced(aln);
      ASSERT_EQ(sliced.num_rows(), aln.num_rows());
      for (std::size_t a = 0; a < aln.num_rows(); ++a)
        for (std::size_t b = 0; b < aln.num_rows(); ++b) {
          const IdentityCounts want = oracle_counts(aln, a, b);
          const IdentityCounts got = sliced.count(a, b);
          EXPECT_EQ(got.cols, want.cols)
              << k.name << " width " << width << " pair " << a << "," << b;
          EXPECT_EQ(got.matches, want.matches)
              << k.name << " width " << width << " pair " << a << "," << b;
        }
    }
}

TEST(IdentityPlanes, WildcardMatchesOnlyItself) {
  const std::pair<std::string, std::string> texts[] = {
      {"a", "XXAX-"}, {"b", "XAAXX"}};
  const Alignment aln = Alignment::from_texts(texts);
  const IdentityCounts c = IdentityPlanes(aln).count(0, 1);
  EXPECT_EQ(c.cols, 4u);
  EXPECT_EQ(c.matches, 3u);
}

TEST(InducedKimura, MatrixMatchesOracleBitForBit) {
  for (const KindCase& k : kKinds)
    for (const std::size_t width : kWidths) {
      const Alignment aln = random_alignment(k.kind, width, 12, 5 + width);
      const std::vector<double> want = flatten(oracle_kimura(aln));
      for (const unsigned threads : {1U, 2U, 4U, 7U})
        EXPECT_TRUE(
            same_bits(flatten(induced_kimura_distances(aln, threads)), want))
            << k.name << " width " << width << " threads " << threads;
    }
}

TEST(InducedKimura, AllGapRowsHitTheCap) {
  const Alignment aln = random_alignment(bio::AlphabetKind::AminoAcid, 65, 6, 3);
  const IdentityPlanes sliced(aln);
  const auto d = induced_kimura_distances(aln);
  for (std::size_t r = 0; r < aln.num_rows(); ++r) {
    if (r == 1) continue;  // row 1 is the all-gap row
    EXPECT_EQ(sliced.count(1, r).cols, 0u);
    EXPECT_EQ(sliced.count(1, r).matches, 0u);
    EXPECT_EQ(d(1, r), align::kMaxGuideTreeDistance) << "row " << r;
  }
  EXPECT_EQ(sliced.count(1, 1).cols, 0u);
}

TEST(InducedKimura, TinyInputs) {
  for (const std::size_t n : {0U, 1U, 2U}) {
    const Alignment aln =
        n == 0 ? Alignment()
               : random_alignment(bio::AlphabetKind::Dna, 70, n, 11);
    for (const unsigned threads : {1U, 4U}) {
      const auto d = induced_kimura_distances(aln, threads);
      ASSERT_EQ(d.size(), n);
      EXPECT_TRUE(same_bits(flatten(d), flatten(oracle_kimura(aln))))
          << "n " << n << " threads " << threads;
    }
  }
}

// Enough pairs (61 rows, 1830 pairs) that chunk boundaries fall mid-row at
// every thread count.
TEST(InducedKimura, ThreadCountNeverChangesBits) {
  for (const KindCase& k : kKinds) {
    const Alignment aln = random_alignment(k.kind, 130, 61, 23);
    const std::vector<double> serial = flatten(induced_kimura_distances(aln, 1));
    EXPECT_TRUE(same_bits(serial, flatten(oracle_kimura(aln)))) << k.name;
    for (const unsigned threads : {2U, 4U, 7U})
      EXPECT_TRUE(
          same_bits(flatten(induced_kimura_distances(aln, threads)), serial))
          << k.name << " threads " << threads;
  }
}

// MiniMuscle's stage 2 consumes exactly the oracle's matrix. The stage-1
// alignment in input order is what MuscleAligner without re-estimation
// returns; the stage-2 matrix a cached run stored is read back under the
// aligner's phase key (base digest of config + input set, then the tag).
TEST(InducedKimura, MiniMuscleStage2MatrixEqualsOracle) {
  workload::RoseParams rp;
  rp.num_sequences = 24;
  rp.average_length = 90;
  rp.seed = 7;
  const auto seqs = workload::rose_sequences(rp);

  MuscleOptions stage1_only;
  stage1_only.reestimate_tree = false;
  const Alignment stage1 = MuscleAligner(stage1_only).align(seqs);

  util::ArtifactCache& cache = util::ArtifactCache::process_cache();
  cache.clear();
  MuscleOptions opts;
  opts.reestimate_tree = true;
  opts.use_artifact_cache = true;
  opts.threads = 3;
  const MuscleAligner aligner(opts);
  (void)aligner.align(seqs);

  util::StableHash base;
  aligner.hash_config(base);
  const util::Digest128 in = bio::sequence_set_hash(seqs);
  base.u64(in.hi);
  base.u64(in.lo);
  const util::Digest128 b = base.digest128();
  util::StableHash key;
  key.u64(b.hi);
  key.u64(b.lo);
  key.str("stage2 distance matrix");
  const util::ArtifactCache::Blob blob = cache.get(key.digest128());
  ASSERT_TRUE(blob) << "stage-2 matrix not found under its phase key";
  par::ByteReader r{std::span<const std::uint8_t>(*blob)};
  const auto stored = read_distance_matrix(r);
  cache.clear();

  EXPECT_TRUE(same_bits(flatten(stored), flatten(oracle_kimura(stage1))));
}

}  // namespace
}  // namespace salign::msa
