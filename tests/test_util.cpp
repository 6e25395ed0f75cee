// Unit tests for the util module: tables, RNG determinism.
#include <gtest/gtest.h>

#include "util/common.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace hemo {
namespace {

TEST(Require, ThrowsWithContext) {
  try {
    HEMO_REQUIRE(1 == 2, "math is broken");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken"),
              std::string::npos);
  }
}

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  SplitMix64 a(12345), b(12345);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
  SplitMix64 c(12346);
  EXPECT_NE(SplitMix64(12345).next(), c.next());
}

TEST(HashSeed, OrderSensitive) {
  EXPECT_NE(hash_seed(1, 2), hash_seed(2, 1));
  EXPECT_EQ(hash_seed(1, 2, 3), hash_seed(1, 2, 3));
}

TEST(Xoshiro256, UniformInRange) {
  Xoshiro256 rng(99);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Xoshiro256, GaussianMomentsRoughlyStandard) {
  Xoshiro256 rng(7);
  double sum = 0.0, sum2 = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Xoshiro256, BelowStaysInRange) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 100; ++i) {
    const index_t v = rng.below(7);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 7);
  }
}

TEST(TextTable, RendersAlignedColumns) {
  TextTable t;
  t.set_header({"System", "MFLUPS"});
  t.add_row({"TRC", TextTable::num(39.04, 2)});
  t.add_row({"CSP-2 EC", TextTable::num(127.99, 2)});
  const std::string out = t.to_string();
  EXPECT_NE(out.find("System"), std::string::npos);
  EXPECT_NE(out.find("39.04"), std::string::npos);
  EXPECT_NE(out.find("127.99"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TextTable, NumFormatsIntegers) {
  EXPECT_EQ(TextTable::num(static_cast<index_t>(2048)), "2048");
  EXPECT_EQ(TextTable::num(3.14159, 3), "3.142");
}

}  // namespace
}  // namespace hemo
