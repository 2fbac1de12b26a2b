#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace psn::core {

/// A sensed variable: an object attribute as tracked by one sensor/actuator
/// process (paper §2.2: "each sensor/actuator process p_i has local variables
/// to track object attributes"). The paper's subscript convention —
/// "the subscript on a variable denotes the location where the variable is
/// sensed" — is exactly this pair.
struct VarRef {
  ProcessId pid = kNoProcess;
  std::string name;

  auto operator<=>(const VarRef&) const = default;
  std::string to_string() const {
    return name + "[" + std::to_string(pid) + "]";
  }
};

/// A (possibly partial) assembled global state: numeric values of sensed
/// variables across the system, as known to an observer at some point. Both
/// the ground-truth oracle and every detector evaluate predicates against
/// one of these.
class GlobalState {
 public:
  /// Writes var := value and applies the old→new delta to the name's
  /// aggregate summary — one map lookup each, no allocation once the
  /// variable and its name have been seen.
  void set(const VarRef& var, double value) {
    const auto [it, inserted] = values_.try_emplace(var, value);
    auto sit = summaries_.find(var.name);
    if (sit == summaries_.end()) sit = summaries_.try_emplace(var.name).first;
    NameSummary& summary = sit->second;
    if (inserted) {
      summary.count++;
    } else {
      summary.remove(it->second);
      it->second = value;
    }
    summary.add(value);
  }
  std::optional<double> get(const VarRef& var) const {
    const auto it = values_.find(var);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  bool has(const VarRef& var) const { return values_.contains(var); }

  /// All variables with the given name, across processes — the domain of the
  /// paper's system-wide relational predicates such as Σ(x_i − y_i).
  std::vector<VarRef> vars_named(const std::string& name) const;

  /// Allocation-free visitation of every (var, value) whose name matches, in
  /// (pid, name) order. O(size()): the min/max aggregates and the inexact
  /// sum fallback use it; sum and count normally read the summary instead.
  template <typename Fn>
  void for_each_named(const std::string& name, Fn&& fn) const {
    for (const auto& [ref, value] : values_) {
      if (ref.name == name) fn(ref, value);
    }
  }
  /// Number of variables with this name, in O(log #names).
  std::size_t count_named(std::string_view name) const {
    const auto it = summaries_.find(name);
    return it == summaries_.end() ? 0 : it->second.count;
  }
  /// True iff at least one variable with this name has been reported.
  bool has_named(std::string_view name) const { return count_named(name) > 0; }
  /// Σ of the name's values when it equals, bit for bit, the pid-ordered
  /// double scan `acc = 0.0; acc += v` over for_each_named (DESIGN.md §11,
  /// "Incremental aggregates"): every value is exact and Σ|v| ≤ 2^53, so
  /// every partial sum of the scan is an exactly representable integer.
  /// nullopt otherwise — the caller falls back to the scan.
  std::optional<double> exact_sum_named(std::string_view name) const {
    const auto it = summaries_.find(name);
    if (it == summaries_.end()) return 0.0;
    const NameSummary& s = it->second;
    if (s.inexact != 0 || s.abs_hi != 0 || s.abs_lo > kExactLimit) {
      return std::nullopt;
    }
    return static_cast<double>(static_cast<std::int64_t>(s.sum));
  }

  std::size_t size() const { return values_.size(); }
  const std::map<VarRef, double>& values() const { return values_; }

 private:
  /// 2^53: integers up to this magnitude are exactly representable doubles.
  static constexpr std::uint64_t kExactLimit = std::uint64_t{1} << 53;

  /// Running sum/count of every variable sharing one name. A value is
  /// "exact" when it is finite, integral, not -0.0 and |v| ≤ 2^53; exact
  /// values are summed as integers, the rest are only counted. The sums use
  /// unsigned (wrapping) arithmetic: Σv is exact modulo 2^64, which is the
  /// true value whenever the fast path's Σ|v| ≤ 2^53 holds, and Σ|v| keeps a
  /// carry word so that bound is decided exactly at any variable count.
  struct NameSummary {
    std::size_t count = 0;
    std::size_t inexact = 0;
    std::uint64_t sum = 0;
    std::uint64_t abs_lo = 0;
    std::uint64_t abs_hi = 0;

    static bool is_exact(double v) {
      // NaN and ±inf fail the magnitude test.
      return std::fabs(v) <= static_cast<double>(kExactLimit) &&
             std::trunc(v) == v && !(v == 0.0 && std::signbit(v));
    }
    void add(double v) {
      if (!is_exact(v)) {
        inexact++;
        return;
      }
      sum += static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
      const auto mag = static_cast<std::uint64_t>(std::fabs(v));
      abs_lo += mag;
      if (abs_lo < mag) abs_hi++;
    }
    void remove(double v) {
      if (!is_exact(v)) {
        inexact--;
        return;
      }
      sum -= static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
      const auto mag = static_cast<std::uint64_t>(std::fabs(v));
      if (abs_lo < mag) abs_hi--;
      abs_lo -= mag;
    }
  };

  std::map<VarRef, double> values_;
  std::map<std::string, NameSummary, std::less<>> summaries_;
};

}  // namespace psn::core
