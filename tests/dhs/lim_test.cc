#include "dhs/lim.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "common/random.h"

namespace dhs {
namespace {

TEST(ProbEmptyTest, Equation5SpotValues) {
  // ((N'-t)/N')^n'
  EXPECT_NEAR(ProbAllProbesEmpty(10, 5, 1), std::pow(0.9, 5), 1e-12);
  EXPECT_NEAR(ProbAllProbesEmpty(10, 5, 3), std::pow(0.7, 5), 1e-12);
}

TEST(ProbEmptyTest, EdgeCases) {
  EXPECT_EQ(ProbAllProbesEmpty(10, 0, 3), 1.0);   // nothing stored
  EXPECT_EQ(ProbAllProbesEmpty(10, 5, 0), 1.0);   // no probes yet
  EXPECT_EQ(ProbAllProbesEmpty(10, 5, 10), 0.0);  // probed every bin
  EXPECT_EQ(ProbAllProbesEmpty(10, 5, 15), 0.0);
}

TEST(ProbEmptyTest, MonotoneDecreasingInProbes) {
  for (int t = 1; t < 10; ++t) {
    EXPECT_LE(ProbAllProbesEmpty(10, 7, t + 1), ProbAllProbesEmpty(10, 7, t));
  }
}

TEST(ProbEmptyTest, MatchesSimulation) {
  // Empirical validation of eq. 5: throw n' balls into N' bins, probe t
  // distinct bins, check the all-empty frequency.
  Rng rng(99);
  constexpr uint64_t kBins = 20;
  constexpr uint64_t kItems = 15;
  constexpr int kProbes = 3;
  constexpr int kTrials = 40000;
  int all_empty = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    bool occupied[kBins] = {};
    for (uint64_t i = 0; i < kItems; ++i) {
      occupied[rng.UniformU64(kBins)] = true;
    }
    // Probe 3 distinct random bins.
    uint64_t probes[kProbes];
    int found = 0;
    for (int p = 0; p < kProbes; ++p) {
      uint64_t bin;
      bool fresh;
      do {
        bin = rng.UniformU64(kBins);
        fresh = true;
        for (int q = 0; q < p; ++q) fresh &= probes[q] != bin;
      } while (!fresh);
      probes[p] = bin;
      if (occupied[bin]) ++found;
    }
    if (found == 0) ++all_empty;
  }
  const double expected = ProbAllProbesEmpty(kBins, kItems, kProbes);
  EXPECT_NEAR(static_cast<double>(all_empty) / kTrials, expected, 0.01);
}

TEST(RequiredProbesTest, SolvesEquationFive) {
  // t = ceil(N' (1 - p_miss^(1/n'))), p_miss the residual all-empty
  // probability (see lim.h on the paper's inverted notation).
  EXPECT_EQ(RequiredProbes(100, 50, 0.01),
            static_cast<int>(
                std::ceil(100 * (1 - std::pow(0.01, 1.0 / 50)))));
}

TEST(RequiredProbesTest, MatchesThePapersLimFiveClaim) {
  // §4.1: lim = 5 guarantees >= 0.99 success when the items mapped to an
  // interval match its node count (alpha = 1) — the corrected inversion
  // reproduces that design point.
  for (uint64_t bins : {64u, 128u, 256u, 1024u}) {
    const int required = RequiredProbes(bins, bins, 0.01);
    EXPECT_GE(required, 4) << bins;
    EXPECT_LE(required, 5) << bins;
  }
}

TEST(RequiredProbesTest, AtLeastOne) {
  EXPECT_GE(RequiredProbes(10, 1000000, 0.99), 1);
}

TEST(RequiredProbesTest, EmptyIntervalNeedsFullScan) {
  EXPECT_EQ(RequiredProbes(64, 0, 0.01), 64);
}

TEST(RequiredProbesTest, DenserIntervalsNeedFewerProbes) {
  EXPECT_LE(RequiredProbes(100, 1000, 0.01), RequiredProbes(100, 10, 0.01));
}

TEST(RequiredProbesTest, TighterMissBoundNeedsMoreProbes) {
  EXPECT_LE(RequiredProbes(100, 50, 0.1), RequiredProbes(100, 50, 0.001));
}

TEST(RequiredProbesTest, InversionIsConsistentWithEquationFive) {
  // Probing the required number of bins indeed leaves at most p_miss
  // all-empty probability.
  for (double p_miss : {0.1, 0.01}) {
    for (uint64_t items : {20u, 50u, 200u}) {
      const int t = RequiredProbes(100, items, p_miss);
      EXPECT_LE(ProbAllProbesEmpty(100, items, t), p_miss + 1e-9)
          << items << " " << p_miss;
    }
  }
}

TEST(RequiredProbesReplicatedTest, Equation6) {
  // alpha = n'/N'; lim = ceil(N'(1 - p^(m/(R alpha N')))).
  const uint64_t bins = 128;
  const uint64_t items = 512;
  const int m = 4;
  const int r = 2;
  const double alpha = static_cast<double>(items) / bins;
  const double expected =
      std::ceil(bins * (1 - std::pow(0.01, m / (r * alpha * bins))));
  EXPECT_EQ(RequiredProbesReplicated(bins, items, m, r, 0.01),
            static_cast<int>(expected));
}

TEST(RequiredProbesReplicatedTest, ReplicationReducesProbes) {
  EXPECT_LE(RequiredProbesReplicated(100, 200, 8, 4, 0.01),
            RequiredProbesReplicated(100, 200, 8, 1, 0.01));
}

TEST(RequiredProbesReplicatedTest, MoreBitmapsNeedMoreProbes) {
  EXPECT_LE(RequiredProbesReplicated(100, 400, 1, 1, 0.01),
            RequiredProbesReplicated(100, 400, 64, 1, 0.01));
}

TEST(HitProbabilityTest, PaperDefaultLimGuarantee) {
  // §4.1: lim = 5 guarantees >= 0.99 hit probability when the items
  // mapped to an interval outnumber its nodes (alpha >= 1).
  for (uint64_t bins : {16u, 64u, 256u, 1024u}) {
    EXPECT_GE(HitProbability(bins, bins, 5), 0.99) << bins;
  }
}

TEST(HitProbabilityTest, SparseIntervalsBreakTheGuarantee) {
  // With far fewer items than nodes, 5 probes are not enough — the
  // regime behind the paper's m >= 4096 accuracy collapse.
  EXPECT_LT(HitProbability(1024, 64, 5), 0.99);
}

TEST(HitProbabilityTest, ComplementOfProbEmpty) {
  EXPECT_NEAR(HitProbability(50, 20, 3),
              1.0 - ProbAllProbesEmpty(50, 20, 3), 1e-12);
}

// Regression: for n_items == 0 both budget functions returned
// static_cast<int>(n_bins), which wraps negative once n_bins exceeds
// INT_MAX (Internet-scale N') — a negative lim means "probe nothing"
// where the math says "probe everything".
TEST(RequiredProbesTest, HugeEmptyIntervalSaturatesToIntMax) {
  const uint64_t huge = uint64_t{1} << 62;
  EXPECT_EQ(RequiredProbes(huge, 0, 0.01), std::numeric_limits<int>::max());
  EXPECT_EQ(RequiredProbesReplicated(huge, 0, 4, 2, 0.01),
            std::numeric_limits<int>::max());
  // Just past INT_MAX is the first wrapping width.
  const uint64_t past = static_cast<uint64_t>(
                            std::numeric_limits<int>::max()) + 1;
  EXPECT_EQ(RequiredProbes(past, 0, 0.01), std::numeric_limits<int>::max());
}

// The pinned result is always a usable probe budget: at least one,
// never more than there are bins, for both budget functions across
// extreme densities and miss bounds.
TEST(RequiredProbesTest, ResultAlwaysWithinOneToNBins) {
  for (uint64_t bins : {uint64_t{1}, uint64_t{4}, uint64_t{1000}}) {
    for (uint64_t items : {uint64_t{0}, uint64_t{1}, uint64_t{1} << 40}) {
      for (double p_miss : {0.9, 0.5, 1e-12}) {
        const int t = RequiredProbes(bins, items, p_miss);
        EXPECT_GE(t, 1) << bins << " " << items << " " << p_miss;
        EXPECT_LE(static_cast<uint64_t>(t), bins)
            << bins << " " << items << " " << p_miss;
        const int tr = RequiredProbesReplicated(bins, items, 8, 3, p_miss);
        EXPECT_GE(tr, 1) << bins << " " << items << " " << p_miss;
        EXPECT_LE(static_cast<uint64_t>(tr), bins)
            << bins << " " << items << " " << p_miss;
      }
    }
  }
}

// A sub-one requirement (dense interval, loose bound) pins to one
// probe, and an absurdly tight bound pins to a full scan rather than
// overshooting n_bins through ceil.
TEST(RequiredProbesTest, PinsTinyAndOversizedRequirements) {
  EXPECT_EQ(RequiredProbes(10, uint64_t{1} << 50, 0.99), 1);
  EXPECT_EQ(RequiredProbes(4, 1, 1e-300), 4);
}

}  // namespace
}  // namespace dhs
