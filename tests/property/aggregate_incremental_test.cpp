// Differential test of incremental aggregates: GlobalState keeps a per-name
// sum/count summary that AggregateExpr::evaluate reads instead of scanning
// (DESIGN.md §11, "Incremental aggregates"). Over random set() sequences —
// overwrites, integers near ±2^53, -0.0, NaN, ±inf, fractions — every
// aggregate must equal the full pid-ordered scan bit for bit, whether the
// summary's exact fast path or the scan fallback answered.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "aggregate_reference.hpp"
#include "common/rng.hpp"
#include "core/predicate.hpp"

namespace psn::core {
namespace {

using test_support::kAllAggregateOps;
using test_support::scan_aggregate;

constexpr double kTwo53 = 9007199254740992.0;  // 2^53
const std::string kNames[] = {"a", "b", "c"};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Bit pattern for comparison. Every NaN maps to one pattern: when both
/// operands of an addition are NaN, IEEE 754 leaves the result's payload
/// unspecified and the compiler may commute the add, so the scan compiled
/// here and the one in the library can pick different operands' NaNs.
std::uint64_t canonical_bits(double v) {
  return std::isnan(v) ? bits(std::numeric_limits<double>::quiet_NaN())
                       : bits(v);
}

/// Asserts every aggregate over every name matches the scan bitwise.
void expect_matches_scan(const GlobalState& s) {
  for (const std::string& name : kNames) {
    for (const AggregateOp op : kAllAggregateOps) {
      const double got = aggregate(op, name)->evaluate(s);
      const double want = scan_aggregate(s, op, name);
      ASSERT_EQ(canonical_bits(got), canonical_bits(want))
          << to_string(op) << "(" << name << "): got " << got << ", want "
          << want;
    }
    EXPECT_EQ(s.count_named(name),
              static_cast<std::size_t>(
                  scan_aggregate(s, AggregateOp::kCount, name)));
    EXPECT_EQ(s.has_named(name), s.count_named(name) > 0);
  }
}

/// A value from one of the classes the exactness rule distinguishes; the
/// special (inexact or boundary) classes come with probability `special`.
double random_value(Rng& rng, double special) {
  if (!rng.bernoulli(special)) {
    return static_cast<double>(rng.uniform_int(-50, 50));
  }
  const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
  switch (rng.uniform_int(0, 6)) {
    case 0:  // integral, at or just inside the 2^53 bound
      return sign * (kTwo53 - static_cast<double>(rng.uniform_int(0, 3)));
    case 1:  // integral, past the bound
      return sign *
             (kTwo53 + 2.0 * static_cast<double>(rng.uniform_int(1, 3)));
    case 2: return -0.0;
    case 3: return std::numeric_limits<double>::quiet_NaN();
    case 4: return sign * std::numeric_limits<double>::infinity();
    case 5:
      return static_cast<double>(rng.uniform_int(-50, 50)) + 0.25;
    default:  // large, integral, representable
      return sign * 0x1p52 * static_cast<double>(rng.uniform_int(1, 2));
  }
}

class AggregateIncrementalTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggregateIncrementalTest, RandomSetSequencesMatchScanBitwise) {
  Rng rng(GetParam());
  std::size_t fast = 0;
  std::size_t fallback = 0;
  for (const double special : {0.0, 0.02, 0.1, 0.5}) {
    GlobalState s;
    for (int step = 0; step < 300; ++step) {
      // Few pids per name, so most writes overwrite an existing variable.
      const VarRef ref{static_cast<ProcessId>(rng.uniform_int(0, 5)),
                       kNames[rng.uniform_int(0, 2)]};
      s.set(ref, random_value(rng, special));
      ASSERT_NO_FATAL_FAILURE(expect_matches_scan(s));
      for (const std::string& name : kNames) {
        (s.exact_sum_named(name) ? fast : fallback)++;
      }
    }
  }
  // Both paths must actually have been exercised.
  EXPECT_GT(fast, 0u);
  EXPECT_GT(fallback, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateIncrementalTest,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(AggregateIncremental, InexactOverwrittenByIntegerRestoresFastPath) {
  GlobalState s;
  s.set({0, "a"}, 1.0);
  s.set({1, "a"}, 2.5);
  EXPECT_FALSE(s.exact_sum_named("a").has_value());
  expect_matches_scan(s);
  s.set({1, "a"}, 2.0);
  ASSERT_TRUE(s.exact_sum_named("a").has_value());
  EXPECT_EQ(*s.exact_sum_named("a"), 3.0);
  s.set({1, "a"}, std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(s.exact_sum_named("a").has_value());
  expect_matches_scan(s);
  s.set({1, "a"}, -7.0);
  EXPECT_EQ(*s.exact_sum_named("a"), -6.0);
  expect_matches_scan(s);
}

TEST(AggregateIncremental, AbsoluteSumBoundIsDecidedExactly) {
  GlobalState s;
  s.set({0, "a"}, 0x1p52);
  s.set({1, "a"}, 0x1p52);
  ASSERT_TRUE(s.exact_sum_named("a").has_value());  // Σ|v| = 2^53
  EXPECT_EQ(*s.exact_sum_named("a"), kTwo53);
  // Σ|v| = 2^53 + 1: the scan rounds 2^53 + 1 to 2^53, so the exact
  // integer sum would differ — the summary must decline.
  s.set({2, "a"}, 1.0);
  EXPECT_FALSE(s.exact_sum_named("a").has_value());
  expect_matches_scan(s);
  s.set({2, "a"}, 0.0);
  EXPECT_TRUE(s.exact_sum_named("a").has_value());
  expect_matches_scan(s);
}

TEST(AggregateIncremental, AbsoluteSumCarriesPast64Bits) {
  // 2048 × 2^53 = 2^64: a 64-bit Σ|v| would wrap to 0 and wrongly admit the
  // fast path, whose wrapped Σv would then read 0.
  GlobalState s;
  for (ProcessId pid = 0; pid < 2048; ++pid) s.set({pid, "a"}, kTwo53);
  EXPECT_FALSE(s.exact_sum_named("a").has_value());
  expect_matches_scan(s);
  for (ProcessId pid = 0; pid < 2048; ++pid) s.set({pid, "a"}, 1.0);
  ASSERT_TRUE(s.exact_sum_named("a").has_value());
  EXPECT_EQ(*s.exact_sum_named("a"), 2048.0);
  expect_matches_scan(s);
}

TEST(AggregateIncremental, NegativeZeroAndCancellationSumToPositiveZero) {
  GlobalState s;
  s.set({0, "a"}, -0.0);
  expect_matches_scan(s);
  EXPECT_EQ(bits(aggregate(AggregateOp::kSum, "a")->evaluate(s)), bits(0.0));
  s.set({0, "a"}, 3.0);
  s.set({1, "a"}, -3.0);
  ASSERT_TRUE(s.exact_sum_named("a").has_value());
  EXPECT_EQ(bits(aggregate(AggregateOp::kSum, "a")->evaluate(s)), bits(0.0));
  expect_matches_scan(s);
}

TEST(AggregateIncremental, UnknownNameIsEmpty) {
  const GlobalState s;
  EXPECT_EQ(s.count_named("a"), 0u);
  EXPECT_FALSE(s.has_named("a"));
  EXPECT_EQ(*s.exact_sum_named("a"), 0.0);
  expect_matches_scan(s);
}

}  // namespace
}  // namespace psn::core
