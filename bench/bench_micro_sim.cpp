// Micro-benchmarks of the simulation substrate: event-calendar throughput,
// strobe broadcast fan-out through the transport, end-to-end system steps,
// and lattice enumeration cost.

#include <benchmark/benchmark.h>

#include "core/detectors.hpp"
#include "core/execution_view.hpp"
#include "core/lattice.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"
#include "world/generators.hpp"

namespace {

using namespace psn;

void BM_SchedulerScheduleAndRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    for (std::size_t i = 0; i < n; ++i) {
      sched.schedule_at(SimTime(static_cast<std::int64_t>(i)), [] {});
    }
    benchmark::DoNotOptimize(sched.run_until(SimTime::max()));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerScheduleAndRun)->Range(1 << 10, 1 << 16);

void BM_TransportBroadcast(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::SimConfig cfg;
  cfg.horizon = SimTime::max();
  sim::Simulation sim(cfg);
  net::Transport transport(sim, net::Overlay::complete(n),
                           std::make_unique<net::FixedDelay>(Duration::millis(1)),
                           std::make_unique<net::NoLoss>(), Rng(1));
  for (ProcessId p = 0; p < n; ++p) {
    transport.register_handler(p, [](const net::Message&) {});
  }
  net::Message msg;
  msg.src = 0;
  msg.kind = net::MessageKind::kStrobe;
  net::SenseReportPayload payload;
  payload.strobe_vector = clocks::VectorStamp(n);
  msg.payload = payload;
  for (auto _ : state) {
    transport.broadcast(msg);
    sim.scheduler().run_until(SimTime::max());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n - 1));
}
BENCHMARK(BM_TransportBroadcast)->RangeMultiplier(4)->Range(4, 64);

void BM_FullOccupancySecond(benchmark::State& state) {
  // Cost of one simulated second of the standard occupancy system,
  // including sensing, stamping, broadcast, and logging.
  const auto doors = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::SystemConfig sys;
    sys.num_sensors = doors;
    sys.sim.seed = 1;
    sys.sim.horizon = SimTime::zero() + Duration::seconds(1);
    sys.delta = Duration::millis(50);
    core::ShardedPervasiveSystem system({sys});
    std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
    for (ProcessId pid = 1; pid <= doors; ++pid) {
      // Appending, not "o" + to_string(pid): gcc 12 -O2 reports a false
      // -Wrestrict overlap inside char_traits::copy for the latter.
      std::string name = "o";
      name += std::to_string(pid);
      const auto obj = system.world().create_object(name);
      system.world().object(obj).set_attribute("count", std::int64_t{0});
      system.assign(obj, "count", pid);
      drivers.push_back(std::make_unique<world::AttributeDriver>(
          system.world(), obj, "count",
          std::make_unique<world::PoissonArrivals>(20.0),
          std::make_unique<world::CounterValue>(),
          system.sim().rng_for("d", pid)));
      drivers.back()->start();
    }
    benchmark::DoNotOptimize(system.run());
  }
}
BENCHMARK(BM_FullOccupancySecond)->RangeMultiplier(2)->Range(2, 16);

/// Root log of a hall with `doors` doors, built directly rather than
/// simulated: update i reports door 1 + (i / 2) % doors's `entered` (even i)
/// or `exited` (odd i) counter, so occupancy alternates 1, 0 and the
/// predicate below flips on every update. The update count is fixed, so time
/// per iteration is the per-update cost at this door count. Each door's
/// strobe vector ticks only its own entry — doors are mutually concurrent,
/// as in a star deployment with no door-to-door traffic.
core::ObservationLog hall_log(std::size_t doors, bool vector_stamps) {
  constexpr std::size_t kUpdates = std::size_t{1} << 14;
  core::ObservationLog log;
  log.num_processes = doors + 1;
  log.updates.reserve(kUpdates);
  std::vector<std::uint64_t> ticks(doors + 1, 0);
  for (std::size_t i = 0; i < kUpdates; ++i) {
    const std::size_t door = 1 + (i / 2) % doors;
    core::ReceivedUpdate u;
    u.delivered_at =
        SimTime::zero() + Duration::micros(static_cast<std::int64_t>(i));
    u.reporter = static_cast<ProcessId>(door);
    u.report.attribute = i % 2 == 0 ? "entered" : "exited";
    u.report.value = static_cast<std::int64_t>(i / (2 * doors) + 1);
    u.report.strobe_scalar = {i + 1, u.reporter};
    if (vector_stamps) {
      u.report.strobe_vector = clocks::VectorStamp(doors + 1);
      u.report.strobe_vector[door] = ++ticks[door];
    }
    u.report.synced_timestamp = u.delivered_at;
    log.updates.push_back(std::move(u));
  }
  return log;
}

void BM_DetectorThroughput(benchmark::State& state,
                           std::size_t detector_index) {
  // Updates/second one online detector processes on a prebuilt hall log, by
  // door count: sum/count aggregates are O(1) per update in doors, so the
  // scalar-stamped detectors should fit O(1).
  const auto doors = static_cast<std::size_t>(state.range(0));
  const auto detectors = core::all_online_detectors();
  const auto& detector = detectors[detector_index];
  const core::ObservationLog log =
      hall_log(doors, detector->name() == "strobe-vector");
  const auto phi =
      core::parse_predicate("p", "sum(entered) - sum(exited) > 0");
  state.SetLabel(detector->name());
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector->run(log, phi));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(log.updates.size()));
  state.SetComplexityN(state.range(0));
}
BENCHMARK_CAPTURE(BM_DetectorThroughput, delivery_order, 0)
    ->RangeMultiplier(16)
    ->Range(16, 4096)
    ->Complexity();
BENCHMARK_CAPTURE(BM_DetectorThroughput, strobe_scalar, 1)
    ->RangeMultiplier(16)
    ->Range(16, 4096)
    ->Complexity();
// Each update carries an O(doors) vector stamp that the detector compares,
// so strobe-vector is O(doors) per update by design; its axis stops at 256
// doors, where the log's stamps are already 34 MB.
BENCHMARK_CAPTURE(BM_DetectorThroughput, strobe_vector, 2)
    ->RangeMultiplier(16)
    ->Range(16, 256)
    ->Complexity();
BENCHMARK_CAPTURE(BM_DetectorThroughput, physical_eps, 3)
    ->RangeMultiplier(16)
    ->Range(16, 4096)
    ->Complexity();

void BM_LatticeCount(benchmark::State& state) {
  // Consistent-cut counting cost on a strobe execution of growing size.
  const auto events_per_proc = static_cast<double>(state.range(0));
  core::SystemConfig sys;
  sys.num_sensors = 4;
  sys.sim.seed = 9;
  sys.sim.horizon = SimTime::zero() + Duration::seconds(4);
  sys.delta = Duration::millis(100);
  core::ShardedPervasiveSystem system({sys});
  std::vector<std::unique_ptr<world::AttributeDriver>> drivers;
  for (ProcessId pid = 1; pid <= 4; ++pid) {
    std::string name = "o";
    name += std::to_string(pid);
    const auto obj = system.world().create_object(name);
    system.world().object(obj).set_attribute("count", std::int64_t{0});
    system.assign(obj, "count", pid);
    drivers.push_back(std::make_unique<world::AttributeDriver>(
        system.world(), obj, "count",
        std::make_unique<world::PoissonArrivals>(events_per_proc / 4.0),
        std::make_unique<world::CounterValue>(),
        system.sim().rng_for("d", pid)));
    drivers.back()->start();
  }
  system.run();
  const auto view = core::ExecutionView::from_strobe_stamps(system);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::lattice::count_consistent_cuts(view));
  }
}
BENCHMARK(BM_LatticeCount)->DenseRange(4, 20, 8);

}  // namespace
