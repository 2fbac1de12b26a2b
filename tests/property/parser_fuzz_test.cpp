// Parser round-trip fuzzing: random expression trees are printed with
// Expr::to_string and re-parsed; the two must evaluate identically on
// random states. Catches precedence/associativity drift between printer
// and parser. The same random states also check every aggregate against
// the full-scan reference bit for bit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "aggregate_reference.hpp"
#include "common/rng.hpp"
#include "core/predicate_parser.hpp"

namespace psn::core {
namespace {

class ExprGenerator {
 public:
  explicit ExprGenerator(std::uint64_t seed) : rng_(seed) {}

  ExprPtr generate(int depth) {
    if (depth <= 0) return leaf();
    switch (rng_.uniform_int(0, 7)) {
      case 0: return leaf();
      case 1:
        return unary(rng_.bernoulli(0.5) ? UnaryOp::kNeg : UnaryOp::kNot,
                     generate(depth - 1));
      case 2:
        return binary(arith_op(), generate(depth - 1), generate(depth - 1));
      case 3:
        return binary(cmp_op(), generate(depth - 1), generate(depth - 1));
      case 4:
        return binary(BinaryOp::kAnd, generate(depth - 1),
                      generate(depth - 1));
      case 5:
        return binary(BinaryOp::kOr, generate(depth - 1), generate(depth - 1));
      default:
        return binary(arith_op(), generate(depth - 1), leaf());
    }
  }

  /// Integral values, so sum answers from GlobalState's exact summary,
  /// except in about a third of the states, where some values are
  /// fractional and force the scan fallback.
  GlobalState random_state() {
    GlobalState s;
    const bool fractional = rng_.bernoulli(0.3);
    for (const char* name : {"x", "y", "temp"}) {
      for (ProcessId pid = 0; pid < 3; ++pid) {
        double v = std::floor(rng_.uniform(-10.0, 10.0));
        if (fractional && rng_.bernoulli(0.3)) v += 0.5;
        s.set(VarRef{pid, name}, v);
      }
    }
    return s;
  }

 private:
  ExprPtr leaf() {
    switch (rng_.uniform_int(0, 3)) {
      case 0:
        return constant(std::floor(rng_.uniform(0.0, 100.0)));
      case 1: {
        const char* names[] = {"x", "y", "temp"};
        return var(static_cast<ProcessId>(rng_.uniform_int(0, 2)),
                   names[rng_.uniform_int(0, 2)]);
      }
      case 2: {
        const AggregateOp ops[] = {AggregateOp::kSum, AggregateOp::kMin,
                                   AggregateOp::kMax, AggregateOp::kCount};
        const char* names[] = {"x", "y", "temp"};
        return aggregate(ops[rng_.uniform_int(0, 3)],
                         names[rng_.uniform_int(0, 2)]);
      }
      default:
        return constant(rng_.bernoulli(0.5) ? 1.0 : 0.0);
    }
  }

  BinaryOp arith_op() {
    // Division omitted: a random denominator hitting zero throws by design.
    const BinaryOp ops[] = {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul};
    return ops[rng_.uniform_int(0, 2)];
  }

  BinaryOp cmp_op() {
    const BinaryOp ops[] = {BinaryOp::kLt, BinaryOp::kLe, BinaryOp::kGt,
                            BinaryOp::kGe, BinaryOp::kEq, BinaryOp::kNe};
    return ops[rng_.uniform_int(0, 5)];
  }

  Rng rng_;
};

class ParserFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzzTest, PrintParseRoundTripPreservesSemantics) {
  ExprGenerator gen(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const ExprPtr original = gen.generate(4);
    const std::string text = original->to_string();
    ExprPtr reparsed;
    ASSERT_NO_THROW(reparsed = parse_expr(text)) << text;
    for (int probe = 0; probe < 5; ++probe) {
      const GlobalState state = gen.random_state();
      EXPECT_DOUBLE_EQ(original->evaluate(state), reparsed->evaluate(state))
          << "round-trip diverged for: " << text;
    }
    // Printing is a fixed point after one round trip.
    EXPECT_EQ(reparsed->to_string(), parse_expr(reparsed->to_string())->to_string());
  }
}

TEST_P(ParserFuzzTest, AggregatesMatchFullScanBitwise) {
  ExprGenerator gen(GetParam() + 9000);
  for (int probe = 0; probe < 50; ++probe) {
    const GlobalState state = gen.random_state();
    for (const char* name : {"x", "y", "temp"}) {
      for (const AggregateOp op : test_support::kAllAggregateOps) {
        EXPECT_EQ(
            std::bit_cast<std::uint64_t>(aggregate(op, name)->evaluate(state)),
            std::bit_cast<std::uint64_t>(
                test_support::scan_aggregate(state, op, name)))
            << to_string(op) << "(" << name << ")";
      }
    }
  }
}

TEST_P(ParserFuzzTest, ClassificationStableUnderRoundTrip) {
  ExprGenerator gen(GetParam() + 5000);
  for (int trial = 0; trial < 30; ++trial) {
    const ExprPtr original = gen.generate(3);
    const Predicate p1("a", original);
    const Predicate p2("b", parse_expr(original->to_string()));
    EXPECT_EQ(p1.is_conjunctive(), p2.is_conjunctive())
        << original->to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 11));

}  // namespace
}  // namespace psn::core
