#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numbers>
#include <thread>
#include <vector>

#include "util/fft.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace salign::util {
namespace {

// ---- RunningStats ----------------------------------------------------------

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(3.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 3.5);
  EXPECT_DOUBLE_EQ(s.max(), 3.5);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic population-variance example
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, SampleVarianceUsesNMinusOne) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0}) s.add(v);
  EXPECT_NEAR(s.sample_variance(), 1.0, 1e-12);
  EXPECT_NEAR(s.variance(), 2.0 / 3.0, 1e-12);
}

TEST(RunningStats, MergeMatchesSequential) {
  Rng rng(1);
  RunningStats whole;
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-5, 5);
    whole.add(v);
    (i % 3 == 0 ? a : b).add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), whole.min());
  EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  RunningStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(RunningStats, SummarizeSpan) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const RunningStats s = summarize(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

// ---- Histogram -------------------------------------------------------------

TEST(Histogram, BinningAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);   // bin 0
  h.add(0.999); // bin 0
  h.add(1.0);   // bin 1
  h.add(9.999); // bin 9
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(3), 4.0);
}

TEST(Histogram, OutOfRangeClamped) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(7.0);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.clamped(), 2u);
}

TEST(Histogram, UpperEdgeGoesToLastBin) {
  Histogram h(0.0, 1.0, 4);
  h.add(1.0);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.clamped(), 0u);  // exactly hi is not counted as clamped
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
}

TEST(Histogram, AsciiRendersOneLinePerBin) {
  Histogram h(0.0, 1.0, 5);
  for (int i = 0; i < 10; ++i) h.add(0.5);
  const std::string art = h.ascii(20);
  EXPECT_EQ(std::count(art.begin(), art.end(), '\n'), 5);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

// ---- Rng --------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(99);
  Rng b(99);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(5);
  std::vector<int> seen(7, 0);
  for (int i = 0; i < 7000; ++i) ++seen[rng.below(7)];
  for (int c : seen) EXPECT_GT(c, 700);  // within ~3x of uniform
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, GeometricMeanRoughlyCorrect) {
  Rng rng(13);
  double sum = 0.0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i)
    sum += static_cast<double>(rng.geometric(0.5));
  EXPECT_NEAR(sum / trials, 1.0, 0.1);  // mean failures = (1-p)/p = 1
}

TEST(Rng, SplitStreamsAreIndependentAndDeterministic) {
  Rng a(7);
  Rng b(7);
  Rng ca = a.split();
  Rng cb = b.split();
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ca.next(), cb.next());
  // Parent and child streams differ.
  Rng p(7);
  Rng c = p.split();
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (p.next() == c.next()) ++same;
  EXPECT_LT(same, 2);
}

// ---- FFT --------------------------------------------------------------------

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<std::complex<double>> v(6);
  EXPECT_THROW(fft(v, false), std::invalid_argument);
}

TEST(Fft, ForwardOfImpulseIsFlat) {
  std::vector<std::complex<double>> v(8, 0.0);
  v[0] = 1.0;
  fft(v, false);
  for (const auto& x : v) {
    EXPECT_NEAR(x.real(), 1.0, 1e-12);
    EXPECT_NEAR(x.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, RoundTripRestoresSignal) {
  Rng rng(3);
  std::vector<std::complex<double>> v(64);
  std::vector<std::complex<double>> orig(64);
  for (std::size_t i = 0; i < v.size(); ++i)
    orig[i] = v[i] = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  fft(v, false);
  fft(v, true);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(v[i].real() / 64.0, orig[i].real(), 1e-10);
    EXPECT_NEAR(v[i].imag() / 64.0, orig[i].imag(), 1e-10);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(4);
  std::vector<std::complex<double>> v(32);
  double time_energy = 0.0;
  for (auto& x : v) {
    x = {rng.uniform(-1, 1), 0.0};
    time_energy += std::norm(x);
  }
  fft(v, false);
  double freq_energy = 0.0;
  for (const auto& x : v) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / 32.0, time_energy, 1e-9);
}

TEST(CrossCorrelation, MatchesNaive) {
  Rng rng(5);
  std::vector<double> a(13);
  std::vector<double> b(7);
  for (auto& x : a) x = rng.uniform(-1, 1);
  for (auto& x : b) x = rng.uniform(-1, 1);
  const std::vector<double> fast = cross_correlation(a, b);
  ASSERT_EQ(fast.size(), a.size() + b.size() - 1);
  for (std::size_t k = 0; k < fast.size(); ++k) {
    double naive = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      const long j = static_cast<long>(i) - static_cast<long>(k) +
                     static_cast<long>(b.size()) - 1;
      if (j >= 0 && j < static_cast<long>(b.size()))
        naive += a[i] * b[static_cast<std::size_t>(j)];
    }
    EXPECT_NEAR(fast[k], naive, 1e-9) << "lag " << k;
  }
}

TEST(CrossCorrelation, PeakAtKnownShift) {
  // b is a shifted copy of a: the correlation peak must sit at that shift.
  std::vector<double> a(64, 0.0);
  for (int i = 20; i < 30; ++i) a[static_cast<std::size_t>(i)] = 1.0;
  std::vector<double> b(64, 0.0);
  for (int i = 28; i < 38; ++i) b[static_cast<std::size_t>(i)] = 1.0;  // +8
  const std::vector<double> c = cross_correlation(a, b);
  const std::size_t arg = static_cast<std::size_t>(
      std::max_element(c.begin(), c.end()) - c.begin());
  const long delta = static_cast<long>(arg) - (static_cast<long>(b.size()) - 1);
  EXPECT_EQ(delta, -8);
}

TEST(CrossCorrelation, EmptyInputsYieldEmpty) {
  EXPECT_TRUE(cross_correlation({}, {}).empty());
}

// ---- Matrix -----------------------------------------------------------------

TEST(MatrixTest, FillAndIndex) {
  Matrix<int> m(3, 4, 7);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m(2, 3), 7);
  m(1, 2) = 42;
  EXPECT_EQ(m.at(1, 2), 42);
}

TEST(MatrixTest, AtThrowsOutOfRange) {
  Matrix<int> m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix<double> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.rows(), 0u);
}

TEST(SymmetricMatrixTest, SymmetryByConstruction) {
  SymmetricMatrix<double> m(5);
  m(1, 3) = 2.5;
  EXPECT_DOUBLE_EQ(m(3, 1), 2.5);
  m(4, 4) = 1.0;
  EXPECT_DOUBLE_EQ(m(4, 4), 1.0);
}

TEST(SymmetricMatrixTest, AllPairsIndependent) {
  const std::size_t n = 6;
  SymmetricMatrix<int> m(n);
  int v = 1;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) m(i, j) = v++;
  v = 1;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) EXPECT_EQ(m(j, i), v++);
}

// ---- Table / fmt -----------------------------------------------------------

TEST(TableTest, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "2.5"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_NE(s.find("| longer"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,2\n");
}

TEST(TableTest, RowWidthMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(FmtTest, FormatsDoubles) {
  EXPECT_EQ(fmt("%.2f", 3.14159), "3.14");
  EXPECT_EQ(fmt("%.0f", 10.0), "10");
}

// ---- string_util -------------------------------------------------------------

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, SplitEmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("hello", "he"));
  EXPECT_TRUE(starts_with("hello", ""));
  EXPECT_FALSE(starts_with("he", "hello"));
}

TEST(StringUtil, ToUpper) {
  EXPECT_EQ(to_upper("aBc-12"), "ABC-12");
}

TEST(StringUtil, IndexedName) {
  EXPECT_EQ(indexed_name("s", 0), "s0");
  EXPECT_EQ(indexed_name("seq_", 123), "seq_123");
  EXPECT_EQ(indexed_name("", 7), "7");
}

// ---- Timers ------------------------------------------------------------------

TEST(Timers, StopwatchMonotone) {
  Stopwatch w;
  const double a = w.seconds();
  const double b = w.seconds();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(Timers, ThreadCpuTimerCountsWork) {
  ThreadCpuTimer t;
  Stopwatch wall;
  volatile double sink = 0.0;
  // Kernels with tick-based CPU accounting (10ms jiffies) only charge a
  // thread that is running when the tick lands, so a single short burst can
  // be charged zero ticks under scheduler contention. Keep working until the
  // CPU clock moves, with a generous wall cap as the failure condition.
  while (t.seconds() <= 0.0 && wall.seconds() < 5.0) {
    for (int i = 0; i < 2000000; ++i)
      sink = sink + std::sqrt(static_cast<double>(i));
  }
  EXPECT_GT(t.seconds(), 0.0);
}

TEST(Timers, ScopedTimerAccumulates) {
  double acc = 0.0;
  {
    ScopedTimer st(acc);
    volatile unsigned x = 0;  // unsigned: the running sum overflows an int
    for (unsigned i = 0; i < 100000; ++i) x = x + i;
  }
  EXPECT_GE(acc, 0.0);
}

TEST(DefaultThreads, NeverReturnsZero) {
  // std::thread::hardware_concurrency() may legally report 0 (and does on
  // some containers); the "auto" thread knobs must still mean one worker,
  // never a zero-thread pool. Pinned via the pure mapping so the 0 case is
  // reachable regardless of the host.
  static_assert(default_threads_for(0) == 1);
  static_assert(default_threads_for(1) == 1);
  static_assert(default_threads_for(kDefaultThreadCap - 1) ==
                kDefaultThreadCap - 1);
  static_assert(default_threads_for(kDefaultThreadCap + 8) ==
                kDefaultThreadCap);
  EXPECT_GE(default_threads(), 1U);
  EXPECT_LE(default_threads(), kDefaultThreadCap);
  EXPECT_EQ(default_threads(),
            default_threads_for(std::thread::hardware_concurrency()));
}

// ---- parallel_for ------------------------------------------------------------

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroItemsNoCall) {
  bool called = false;
  parallel_for(0, [&](std::size_t, std::size_t) { called = true; }, 4);
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleThreadRunsInline) {
  std::vector<int> hits(10, 0);
  parallel_for(10, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  }, 1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace salign::util
