#include "sim/sharded.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace psn::sim {

ShardedSimulation::ShardedSimulation(std::vector<Simulation*> shards,
                                     Config config)
    : shards_(std::move(shards)), config_(config) {
  PSN_CHECK(!shards_.empty(), "sharded driver needs at least one shard");
  for (Simulation* s : shards_) PSN_CHECK(s != nullptr, "null shard");
  PSN_CHECK(config_.window > Duration::zero(),
            "window width must be positive (delay model must have nonzero "
            "minimum one-hop delay)");
  PSN_CHECK(config_.pool_threads >= 1, "need at least one pool thread");
  if (config_.pool_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(
        static_cast<unsigned>(config_.pool_threads));
  }
}

std::size_t ShardedSimulation::drain_all(SimTime last) {
  // Results are gathered per shard and summed in shard order: the total is
  // deterministic whatever the completion order of the pool tasks.
  if (pool_ == nullptr) {
    std::size_t n = 0;
    for (Simulation* s : shards_) n += s->scheduler().run_until(last);
    return n;
  }
  std::vector<std::future<std::size_t>> turns;
  turns.reserve(shards_.size());
  for (Simulation* s : shards_) {
    turns.push_back(
        pool_->submit([s, last]() { return s->scheduler().run_until(last); }));
  }
  std::size_t n = 0;
  for (auto& t : turns) n += t.get();  // the window barrier
  return n;
}

bool ShardedSimulation::quiescent(SimTime horizon) const {
  for (const Simulation* s : shards_) {
    if (s->scheduler().next_time() <= horizon) return false;
  }
  return true;
}

std::size_t ShardedSimulation::run(const ExchangeFn& exchange) {
  PSN_CHECK(static_cast<bool>(exchange), "null exchange hook");
  truncated_ = false;
  windows_ = 0;
  const SimTime horizon = config_.horizon;
  const Duration window = config_.window;
  std::size_t max_events = SIZE_MAX;
  for (const Simulation* s : shards_) {
    max_events = std::min(max_events, s->config().max_events);
  }
  // Window k covers [(k-1)W, kW): each shard drains every event at or
  // before the inclusive bound kW - 1ns, clamped to the horizon so the last
  // window still runs the events *at* the horizon. Bounds advance by
  // comparing the distance left to the horizon, so no sum overflows at
  // SimTime::max().
  SimTime last = horizon - SimTime::zero() < window
                     ? horizon
                     : SimTime::zero() + window - Duration::nanos(1);
  std::size_t total = 0;
  for (;;) {
    total += drain_all(last);
    windows_++;
    const std::size_t injected = exchange();
    if (total >= max_events) {
      // Safety valve, checked at window granularity (the serial driver
      // checks per event): results are truncated, never an endless spin.
      truncated_ = true;
      return total;
    }
    if (last == horizon && injected == 0 && quiescent(horizon)) {
      return total;
    }
    last = horizon - last <= window ? horizon : last + window;
  }
}

}  // namespace psn::sim
