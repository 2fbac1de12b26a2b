#include "sim/simulation.hpp"

#include "common/error.hpp"
#include "common/log.hpp"

namespace psn::sim {

Simulation::Simulation(SimConfig config)
    : config_(config), master_(config.seed) {
  PSN_CHECK(config_.horizon > SimTime::zero(), "horizon must be positive");
  scheduler_.bind_metrics(metrics_);
  if (config_.trace_capacity > 0) {
    trace_ = std::make_unique<TraceRecorder>(config_.trace_capacity);
  }
}

Rng Simulation::rng_for(const std::string& name, std::uint64_t index) const {
  return master_.substream(name, index);
}

std::size_t Simulation::run() {
  const std::size_t total =
      scheduler_.run_until(config_.horizon, config_.max_events);
  // The cap fired with events still pending inside the horizon: a runaway
  // (e.g. self-rescheduling) event loop, stopped rather than spun toward
  // SIZE_MAX.
  truncated_ = total == config_.max_events &&
               scheduler_.next_time() <= config_.horizon;
  record_run_end(metrics_, config_, scheduler_.pending(), truncated_);
  return total;
}

void record_run_end(MetricsRegistry& metrics, const SimConfig& config,
                    std::size_t pending, bool truncated) {
  // Additive across merges: a merged snapshot reports total simulated time.
  metrics.gauge("sim.simulated_s").set(config.horizon.to_seconds());
  metrics.gauge("sim.pending_at_end").set(static_cast<double>(pending));
  if (truncated) {
    metrics.counter("sim.truncated_runs").inc();
    PSN_WARN << "simulation hit max_events=" << config.max_events
             << " before horizon; results are truncated";
  }
}

}  // namespace psn::sim
