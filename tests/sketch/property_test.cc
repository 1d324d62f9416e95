// Cross-cutting property tests over both sketch families:
// merge algebra (commutative, associative, idempotent) and union
// monotonicity.

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "sketch/loglog.h"
#include "sketch/pcsa.h"

namespace dhs {
namespace {

enum class Kind { kPcsa, kLogLog };

std::unique_ptr<CardinalityEstimator> Make(Kind kind, int m, int bits) {
  switch (kind) {
    case Kind::kPcsa:
      return std::make_unique<PcsaSketch>(m, bits);
    case Kind::kLogLog:
      return std::make_unique<LogLogSketch>(m, bits);
  }
  return nullptr;
}

class SketchPropertyTest : public ::testing::TestWithParam<Kind> {
 protected:
  static constexpr int kM = 64;
  static constexpr int kBits = 24;

  std::unique_ptr<CardinalityEstimator> Fresh() const {
    return Make(GetParam(), kM, kBits);
  }
};

TEST_P(SketchPropertyTest, MergeIsCommutative) {
  Rng rng(1);
  auto a1 = Fresh();
  auto b1 = Fresh();
  for (int i = 0; i < 3000; ++i) {
    const uint64_t h = rng.Next();
    (i % 3 == 0 ? *a1 : *b1).AddHash(h);
  }
  // Copy state by re-adding (interface-level test: merge both ways).
  Rng rng2(1);
  auto a2 = Fresh();
  auto b2 = Fresh();
  for (int i = 0; i < 3000; ++i) {
    const uint64_t h = rng2.Next();
    (i % 3 == 0 ? *a2 : *b2).AddHash(h);
  }
  ASSERT_TRUE(a1->Merge(*b1).ok());  // a1 = A u B
  ASSERT_TRUE(b2->Merge(*a2).ok());  // b2 = B u A
  EXPECT_EQ(a1->Estimate(), b2->Estimate());
}

TEST_P(SketchPropertyTest, MergeIsAssociative) {
  auto build = [&](int which) {
    Rng rng(7);
    auto sketch = Fresh();
    for (int i = 0; i < 3000; ++i) {
      const uint64_t h = rng.Next();
      if (i % 3 == which) sketch->AddHash(h);
    }
    return sketch;
  };
  // (A u B) u C
  auto left = build(0);
  {
    auto b = build(1);
    ASSERT_TRUE(left->Merge(*b).ok());
    auto c = build(2);
    ASSERT_TRUE(left->Merge(*c).ok());
  }
  // A u (B u C)
  auto right = build(0);
  {
    auto bc = build(1);
    auto c = build(2);
    ASSERT_TRUE(bc->Merge(*c).ok());
    ASSERT_TRUE(right->Merge(*bc).ok());
  }
  EXPECT_EQ(left->Estimate(), right->Estimate());
}

TEST_P(SketchPropertyTest, MergeIsIdempotent) {
  Rng rng(3);
  auto a = Fresh();
  auto same = Fresh();
  for (int i = 0; i < 2000; ++i) {
    const uint64_t h = rng.Next();
    a->AddHash(h);
    same->AddHash(h);
  }
  const double before = a->Estimate();
  ASSERT_TRUE(a->Merge(*same).ok());
  EXPECT_EQ(a->Estimate(), before);
}

TEST_P(SketchPropertyTest, UnionDominatesParts) {
  Rng rng(4);
  auto a = Fresh();
  auto b = Fresh();
  for (int i = 0; i < 5000; ++i) {
    const uint64_t h = rng.Next();
    (i % 2 == 0 ? *a : *b).AddHash(h);
  }
  const double ea = a->Estimate();
  const double eb = b->Estimate();
  ASSERT_TRUE(a->Merge(*b).ok());
  EXPECT_GE(a->Estimate(), std::max(ea, eb));
}

TEST_P(SketchPropertyTest, AddingNeverDecreasesEstimate) {
  Rng rng(5);
  auto sketch = Fresh();
  double previous = 0.0;
  for (int step = 0; step < 20; ++step) {
    for (int i = 0; i < 500; ++i) sketch->AddHash(rng.Next());
    const double estimate = sketch->Estimate();
    EXPECT_GE(estimate, previous - 1e-9) << step;
    previous = estimate;
  }
}

TEST_P(SketchPropertyTest, ClearRestoresEmptyState) {
  Rng rng(6);
  auto sketch = Fresh();
  for (int i = 0; i < 1000; ++i) sketch->AddHash(rng.Next());
  sketch->Clear();
  EXPECT_EQ(sketch->Estimate(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllSketches, SketchPropertyTest,
                         ::testing::Values(Kind::kPcsa, Kind::kLogLog),
                         [](const auto& param_info) {
                           return param_info.param == Kind::kPcsa ? "Pcsa"
                                                                  : "LogLog";
                         });

}  // namespace
}  // namespace dhs
