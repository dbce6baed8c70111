// Golden outputs: pinned digests of SampleAlignD::align over a matrix of
// local aligner x p x rank mode x ancestor/polish, plus the exact per-stage
// byte accounting of every run. Any change that moves an output byte or a
// reported wire byte fails here. The input family is small (N=40, L=120) so
// the matrix also runs under the sanitizer presets.
//
// When a change is *meant* to alter outputs, each failure prints the
// replacement table row.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "core/sample_align_d.hpp"
#include "msa/alignment.hpp"
#include "util/stable_hash.hpp"
#include "workload/rose.hpp"

namespace salign::core {
namespace {

const std::vector<bio::Sequence>& family() {
  static const std::vector<bio::Sequence> seqs = workload::rose_sequences(
      {.num_sequences = 40, .average_length = 120, .relatedness = 3000,
       .seed = 2008});
  return seqs;
}

struct GoldenRow {
  const char* name;
  /// "" selects the pipeline's default MiniMuscle; otherwise a
  /// cli::make_aligner name.
  const char* aligner;
  int p;
  RankMode mode;
  bool ancestor;
  bool polish;
  /// StableHash of the aligned-FASTA text, hex.
  const char* digest;
  /// Nonzero communication legs only, space-separated
  /// "<stage>/<pattern>:<total_bytes>/<max_bytes_per_rank>".
  const char* bytes;
};

std::string aligned_fasta(const msa::Alignment& aln) {
  std::ostringstream os;
  msa::write_aligned_fasta(os, aln);
  return os.str();
}

std::string digest_of(const std::string& text) {
  util::StableHash h;
  h.update(text.data(), text.size());
  return h.digest128().hex();
}

std::string byte_table(const PipelineStats& stats) {
  std::string out;
  for (const StageStats& st : stats.stages) {
    for (const CommLeg& leg : st.legs) {
      if (leg.total_bytes == 0 && leg.max_bytes_per_rank == 0) continue;
      if (!out.empty()) out += ' ';
      out += st.name + '/' + pattern_name(leg.pattern) + ':' +
             std::to_string(leg.total_bytes) + '/' +
             std::to_string(leg.max_bytes_per_rank);
    }
  }
  return out;
}

constexpr RankMode kG = RankMode::Globalized;
constexpr RankMode kL = RankMode::LocalOnly;

// clang-format off
const GoldenRow kGolden[] = {
    {"muscle_p1", "muscle", 1, kG, true, false,
     "c275311687041d408b5ea2071927804d", ""},
    {"muscle_p4", "muscle", 4, kG, true, false,
     "db7b3d783cc9e90cb6dbd76f1b8307f1", "sample-exchange/allgather:4998/1302 pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:4804/1584 ancestor/gather:421/142 ancestor/broadcast:453/453 glue/gather:4322/1659"},
    {"muscle_refine_p1", "muscle-refine", 1, kG, true, false,
     "3bd2b480b0268de08d39e09c751486f6", ""},
    {"muscle_refine_p4", "muscle-refine", 4, kG, true, false,
     "499203078ce79c4dea9e6c6306c98de3", "sample-exchange/allgather:4998/1302 pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:4804/1584 ancestor/gather:421/142 ancestor/broadcast:447/447 glue/gather:4285/1635"},
    {"muscle_fast_p1", "muscle-fast", 1, kG, true, false,
     "c275311687041d408b5ea2071927804d", ""},
    {"muscle_fast_p4", "muscle-fast", 4, kG, true, false,
     "5025aea1ecaee5e995341491e46cb6a7", "sample-exchange/allgather:4998/1302 pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:4804/1584 ancestor/gather:423/143 ancestor/broadcast:450/450 glue/gather:4301/1647"},
    {"clustalw_p1", "clustalw", 1, kG, true, false,
     "201f96346ee34e0bd621552b1ba363b2", ""},
    {"clustalw_p4", "clustalw", 4, kG, true, false,
     "166660e450297be2383bcf0766be15a9", "sample-exchange/allgather:4998/1302 pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:4804/1584 ancestor/gather:429/146 ancestor/broadcast:462/462 glue/gather:4521/1669"},
    {"tcoffee_p1", "tcoffee", 1, kG, true, false,
     "80da1bae52500c7e2a0ed153d2f686a9", ""},
    {"tcoffee_p4", "tcoffee", 4, kG, true, false,
     "a4668b77e6738ebad91265fc6065ccf9", "sample-exchange/allgather:4998/1302 pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:4804/1584 ancestor/gather:413/140 ancestor/broadcast:438/438 glue/gather:4326/1646"},
    {"nwnsi_p1", "nwnsi", 1, kG, true, false,
     "3cf7ca71d755effe8aa7fc787ba0796d", ""},
    {"nwnsi_p4", "nwnsi", 4, kG, true, false,
     "dedafa3b1db9beabc46b1517f66d33af", "sample-exchange/allgather:4998/1302 pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:4804/1584 ancestor/gather:418/142 ancestor/broadcast:450/450 glue/gather:4307/1657"},
    {"fftnsi_p1", "fftnsi", 1, kG, true, false,
     "3cf7ca71d755effe8aa7fc787ba0796d", ""},
    {"fftnsi_p4", "fftnsi", 4, kG, true, false,
     "dedafa3b1db9beabc46b1517f66d33af", "sample-exchange/allgather:4998/1302 pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:4804/1584 ancestor/gather:418/142 ancestor/broadcast:450/450 glue/gather:4307/1657"},
    {"minimuscle_p1", "", 1, kG, true, false,
     "c275311687041d408b5ea2071927804d", ""},
    {"minimuscle_p1_polish", "", 1, kG, true, true,
     "d4eca4c2b15b325145763f585101efc2", ""},
    {"minimuscle_p2_global_ancestor", "", 2, kG, true, false,
     "7d0e51968de598952b504e54d009e744", "sample-exchange/allgather:270/138 pivot-select/gather:12/12 pivot-select/broadcast:12/12 redistribute/alltoall:2156/1704 ancestor/gather:144/144 ancestor/broadcast:157/157 glue/gather:1966/1966"},
    {"minimuscle_p2_global_blockdiag", "", 2, kG, false, false,
     "70b6b205eda2152c4756bbdc49f2e80b", "sample-exchange/allgather:270/138 pivot-select/gather:12/12 pivot-select/broadcast:12/12 redistribute/alltoall:2156/1704 glue/gather:1814/1814"},
    {"minimuscle_p2_local_ancestor", "", 2, kL, true, false,
     "07ee8c1d8c448bc95cf23cfed2fb2e30", "pivot-select/gather:12/12 pivot-select/broadcast:12/12 redistribute/alltoall:4162/2798 ancestor/gather:147/147 ancestor/broadcast:156/156 glue/gather:1892/1892"},
    {"minimuscle_p2_local_blockdiag", "", 2, kL, false, false,
     "80be9b0bf7aa2488249cdd6bd9ea17a1", "pivot-select/gather:12/12 pivot-select/broadcast:12/12 redistribute/alltoall:4162/2798 glue/gather:1741/1741"},
    {"minimuscle_p3_global_ancestor", "", 3, kG, true, false,
     "06be992f4315a7d095ec1bd95ad55ac9", "sample-exchange/allgather:1654/570 pivot-select/gather:40/20 pivot-select/broadcast:40/40 redistribute/alltoall:4744/1721 ancestor/gather:281/144 ancestor/broadcast:294/294 glue/gather:4090/2093"},
    {"minimuscle_p3_global_blockdiag", "", 3, kG, false, false,
     "a0b50b5be009e025b9c13445c759fc2f", "sample-exchange/allgather:1654/570 pivot-select/gather:40/20 pivot-select/broadcast:40/40 redistribute/alltoall:4744/1721 glue/gather:3800/1950"},
    {"minimuscle_p3_local_ancestor", "", 3, kL, true, false,
     "23e3db2940c11314404a9d4be4bb36c9", "pivot-select/gather:40/20 pivot-select/broadcast:40/40 redistribute/alltoall:5380/2049 ancestor/gather:281/144 ancestor/broadcast:292/292 glue/gather:3489/1932"},
    {"minimuscle_p3_local_blockdiag", "", 3, kL, false, false,
     "1c3aec517f3879da1dccaa3f85a6e31b", "pivot-select/gather:40/20 pivot-select/broadcast:40/40 redistribute/alltoall:5380/2049 glue/gather:3212/1790"},
    {"minimuscle_p4_global_ancestor", "", 4, kG, true, false,
     "db7b3d783cc9e90cb6dbd76f1b8307f1", "sample-exchange/allgather:4998/1302 pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:4804/1584 ancestor/gather:421/142 ancestor/broadcast:453/453 glue/gather:4322/1659"},
    {"minimuscle_p4_global_blockdiag", "", 4, kG, false, false,
     "16a1b0d5a0f188e52072783a6ed059fd", "sample-exchange/allgather:4998/1302 pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:4804/1584 glue/gather:3885/1513"},
    {"minimuscle_p4_local_ancestor", "", 4, kL, true, false,
     "cbea2738e48ecc8865eb9fe43851378d", "pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:5415/1584 ancestor/gather:426/144 ancestor/broadcast:444/444 glue/gather:4863/1972"},
    {"minimuscle_p4_local_blockdiag", "", 4, kL, false, false,
     "4dbc5e3fa36e0909f25b914b054bd83c", "pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:5415/1584 glue/gather:4437/1826"},
    {"minimuscle_p4_global_ancestor_polish", "", 4, kG, true, true,
     "4fbf35dec40c1ec78b2d7864017799a7", "sample-exchange/allgather:4998/1302 pivot-select/gather:84/28 pivot-select/broadcast:84/84 redistribute/alltoall:4804/1584 ancestor/gather:421/142 ancestor/broadcast:453/453 glue/gather:4322/1659"},
};
// clang-format on

class GoldenOutputsTest : public ::testing::TestWithParam<GoldenRow> {};

TEST_P(GoldenOutputsTest, DigestAndWireBytesArePinned) {
  const GoldenRow& row = GetParam();
  SampleAlignDConfig cfg;
  cfg.num_procs = row.p;
  cfg.rank_mode = row.mode;
  cfg.ancestor_refinement = row.ancestor;
  cfg.polish_divergent = row.polish;
  if (*row.aligner != '\0')
    cfg.local_aligner = cli::make_aligner(row.aligner, 1);

  PipelineStats stats;
  const msa::Alignment aln = SampleAlignD(cfg).align(family(), &stats);
  const std::string digest = digest_of(aligned_fasta(aln));
  const std::string bytes = byte_table(stats);

  EXPECT_EQ(digest, row.digest);
  EXPECT_EQ(bytes, row.bytes);
  if (digest != row.digest || bytes != row.bytes) {
    ADD_FAILURE() << "actual row: {\"" << row.name << "\", \"" << row.aligner
                  << "\", " << row.p << ", "
                  << (row.mode == kG ? "kG" : "kL") << ", "
                  << (row.ancestor ? "true" : "false") << ", "
                  << (row.polish ? "true" : "false") << ",\n     \"" << digest
                  << "\", \"" << bytes << "\"},";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, GoldenOutputsTest, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenRow>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace salign::core
