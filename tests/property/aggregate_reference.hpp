#pragma once

// Full-scan reference for aggregate predicates: the pid-ordered double scan
// over every variable of the state that AggregateExpr::evaluate performed
// before sum and count read GlobalState's incremental summary. Tests compare
// the production path against it bit for bit.

#include <algorithm>
#include <string>

#include "core/predicate.hpp"

namespace psn::core::test_support {

inline double scan_aggregate(const GlobalState& state, AggregateOp op,
                             const std::string& name) {
  std::size_t n = 0;
  double acc = 0.0;
  for (const auto& [ref, v] : state.values()) {
    if (ref.name != name) continue;
    switch (op) {
      case AggregateOp::kSum: acc += v; break;
      case AggregateOp::kMin: acc = n == 0 ? v : std::min(acc, v); break;
      case AggregateOp::kMax: acc = n == 0 ? v : std::max(acc, v); break;
      case AggregateOp::kCount: break;
    }
    n++;
  }
  if (n == 0) return 0.0;
  if (op == AggregateOp::kCount) return static_cast<double>(n);
  return acc;
}

inline constexpr AggregateOp kAllAggregateOps[] = {
    AggregateOp::kSum, AggregateOp::kMin, AggregateOp::kMax,
    AggregateOp::kCount};

}  // namespace psn::core::test_support
