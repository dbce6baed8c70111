#include <gtest/gtest.h>

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "msa/alignment.hpp"
#include "par/cost_model.hpp"
#include "par/serialize.hpp"

namespace salign::par {
namespace {

// ---- serialization ---------------------------------------------------------------

TEST(Serialize, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.u32(123456);
  w.u64(0xDEADBEEFCAFEBABEULL);
  w.f64(3.14159);
  w.str("hello");
  const Bytes b = [&] {
    ByteWriter copy = std::move(w);
    return copy.take();
  }();
  ByteReader r(b);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 0xDEADBEEFCAFEBABEULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Serialize, UnderrunThrows) {
  ByteWriter w;
  w.u8(1);
  const Bytes b = w.take();
  ByteReader r(b);
  (void)r.u8();
  EXPECT_THROW((void)r.u32(), std::runtime_error);
}

TEST(Serialize, SequenceRoundTrip) {
  const bio::Sequence s("seq-1", "MKVLATTWY");
  ByteWriter w;
  write_sequence(w, s);
  const Bytes b = w.take();
  ByteReader r(b);
  EXPECT_EQ(read_sequence(r), s);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, SequenceVectorRoundTrip) {
  std::vector<bio::Sequence> seqs{bio::Sequence("a", "ACD"),
                                  bio::Sequence("b", ""),
                                  bio::Sequence("c", "WWWW")};
  ByteWriter w;
  write_sequences(w, seqs);
  const Bytes b = w.take();
  ByteReader r(b);
  const auto back = read_sequences(r);
  ASSERT_EQ(back.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(back[i], seqs[i]);
}

TEST(Serialize, AlignmentRoundTrip) {
  const msa::Alignment a = msa::Alignment::from_texts(
      std::vector<std::pair<std::string, std::string>>{{"a", "AC-D"},
                                                       {"b", "-CWD"}});
  ByteWriter w;
  write_alignment(w, a);
  const Bytes b = w.take();
  ByteReader r(b);
  const msa::Alignment back = read_alignment(r);
  ASSERT_EQ(back.num_rows(), 2u);
  EXPECT_EQ(back.row_text(0), "AC-D");
  EXPECT_EQ(back.row_text(1), "-CWD");
}

TEST(Serialize, EmptyAlignmentRoundTrip) {
  ByteWriter w;
  write_alignment(w, msa::Alignment{});
  const Bytes b = w.take();
  ByteReader r(b);
  EXPECT_TRUE(read_alignment(r).empty());
}

TEST(Serialize, WireSizeMatchesWriters) {
  const auto encoded_size = [](auto write) {
    ByteWriter w;
    write(w);
    return w.size();
  };
  const std::vector<bio::Sequence> seqs{
      bio::Sequence("prot", "MKVLATTWY"),
      bio::Sequence("", "ACD"),
      bio::Sequence("empty", ""),
      bio::Sequence("dna", "ACGTNACGT", bio::AlphabetKind::Dna),
      bio::Sequence("", "", bio::AlphabetKind::Dna)};
  for (const bio::Sequence& s : seqs)
    EXPECT_EQ(wire_size(s),
              encoded_size([&](ByteWriter& w) { write_sequence(w, s); }))
        << "'" << s.id() << "'";
  for (std::size_t n = 0; n <= seqs.size(); ++n) {
    const std::span<const bio::Sequence> list(seqs.data(), n);
    EXPECT_EQ(wire_size(list),
              encoded_size([&](ByteWriter& w) { write_sequences(w, list); }))
        << n << " sequences";
  }

  const std::vector<msa::Alignment> alns{
      msa::Alignment{},
      msa::Alignment::from_texts(
          std::vector<std::pair<std::string, std::string>>{{"a", "AC-D"},
                                                           {"bb", "-CWD"}}),
      msa::Alignment::from_texts(
          std::vector<std::pair<std::string, std::string>>{{"x", "AC-GT"},
                                                           {"y", "A-TGT"}},
          bio::AlphabetKind::Dna)};
  for (const msa::Alignment& a : alns)
    EXPECT_EQ(wire_size(a),
              encoded_size([&](ByteWriter& w) { write_alignment(w, a); }))
        << a.num_rows() << " rows";
}

// ---- cost model -----------------------------------------------------------------------

TEST(CostModel, PointToPointLatencyPlusBandwidth) {
  ClusterCostModel m;
  m.latency_seconds = 1e-3;
  m.bytes_per_second = 1e6;
  EXPECT_DOUBLE_EQ(m.p2p(0), 1e-3);
  EXPECT_DOUBLE_EQ(m.p2p(1000000), 1e-3 + 1.0);
}

TEST(CostModel, CollectivesScaleWithP) {
  const ClusterCostModel m;
  EXPECT_GT(m.broadcast(1000, 16), m.broadcast(1000, 4));
  EXPECT_GT(m.gather(1000, 16), m.gather(1000, 4));
  EXPECT_DOUBLE_EQ(m.all_to_all(1000, 1), 0.0);
}

TEST(CostModel, AllToAllSplitsPayload) {
  ClusterCostModel m;
  m.latency_seconds = 0.0;
  m.bytes_per_second = 1e6;
  // p-1 rounds of (bytes / (p-1)) each => total = bytes / bandwidth.
  EXPECT_NEAR(m.all_to_all(1000000, 5), 1.0, 1e-9);
}

}  // namespace
}  // namespace salign::par
