#include "assembly.hpp"

#include <optional>
#include <utility>

#include "analysis/export.hpp"
#include "check/race_scan.hpp"
#include "check/stream_checker.hpp"
#include "common/error.hpp"
#include "core/detectors.hpp"
#include "core/oracle.hpp"
#include "core/predicate_parser.hpp"
#include "core/sharded_system.hpp"
#include "serve/trace_feed.hpp"
#include "world/world_model.hpp"

namespace psn::e2ebench {

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name)
    : tracer_(tracer), index_(static_cast<int>(tracer.spans_.size())) {
  tracer_.spans_.push_back({std::move(name), 0, 0, tracer_.open_});
  tracer_.open_ = index_;
  tracer_.spans_[static_cast<std::size_t>(index_)].start_ns = tracer_.now_ns();
}

Tracer::Scope::~Scope() {
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = tracer_.now_ns();
  tracer_.open_ = span.parent;
}

double Tracer::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) * 1e-9;
}

// Mirrors analysis::run_occupancy_experiment statement for statement; only
// the spans are new. Keep the two in step (test_equivalence.py fails when
// they drift).
analysis::OccupancyRunResult traced_occupancy_experiment(
    const analysis::OccupancyConfig& unchecked, Tracer& tracer,
    bool setup_only) {
  const Validated<analysis::OccupancyConfig> validated(unchecked);
  const analysis::OccupancyConfig& config = validated.get();
  const auto root_span = tracer.span("occupancy");
  core::ShardedSystemConfig scfg;
  core::SystemConfig& sys = scfg.base;
  sys.num_sensors = config.doors;
  sys.sim.seed = config.seed;
  sys.sim.horizon = SimTime::zero() + config.horizon;
  sys.sim.trace_capacity = config.trace_capacity;
  if (config.check && sys.sim.trace_capacity == 0) {
    sys.sim.trace_capacity = std::size_t{1} << 18;
  }
  sys.delay_kind = config.delay_kind;
  sys.delta = config.delta;
  sys.clock_mode = config.clock_mode;
  sys.clock_config.sync_epsilon = config.sync_epsilon;
  sys.clock_config.track_vectors = !config.lean_clocks;
  sys.topology = config.topology;
  sys.loss_probability = config.loss_probability;
  sys.loss_windows = config.loss_windows;
  sys.gilbert_elliott = config.gilbert_elliott;
  sys.faults = config.faults;
  sys.duty_cycle = config.duty_cycle;
  sys.duty_phases_aligned = config.duty_phases_aligned;
  sys.fifo_channels = config.fifo_channels;
  sys.validity_horizon = config.validity_horizon;
  scfg.shards = config.shards;
  scfg.pool_threads = config.shard_threads;
  scfg.unicast_reports = config.unicast_reports;

  std::optional<Tracer::Scope> preroll;
  preroll.emplace(tracer, "world.preroll_s");
  sim::SimConfig pre_cfg;
  pre_cfg.seed = config.seed;
  pre_cfg.horizon = sys.sim.horizon;
  sim::Simulation pre_sim(pre_cfg);
  world::WorldModel world(pre_sim);

  world::ExhibitionHallConfig hall_cfg;
  hall_cfg.doors = static_cast<int>(config.doors);
  hall_cfg.capacity = config.capacity;
  hall_cfg.movement_rate = config.movement_rate;
  hall_cfg.target_occupancy = static_cast<double>(config.capacity);
  hall_cfg.initial_occupancy = config.capacity > 10 ? config.capacity - 10 : 0;
  world::ExhibitionHall hall(world, hall_cfg, pre_sim.rng_for("hall"));
  hall.start();
  pre_sim.run();
  preroll.reset();

  std::optional<Tracer::Scope> build;
  build.emplace(tracer, "core.build_s");
  core::ShardedPervasiveSystem system(scfg);
  for (int k = 0; k < hall_cfg.doors; ++k) {
    const auto pid = static_cast<ProcessId>(k + 1);
    system.assign(hall.door_object(k), "entered", pid);
    system.assign(hall.door_object(k), "exited", pid);
  }
  system.set_world_events(world.timeline().events());

  core::Predicate predicate = core::parse_predicate(
      "overcrowded",
      "sum(entered) - sum(exited) > " + std::to_string(config.capacity));

  const auto expected_updates = static_cast<std::size_t>(
      config.movement_rate * config.horizon.to_seconds()) + 1;
  system.reserve_root_logs(expected_updates);
  build.reset();

  analysis::OccupancyRunResult result;
  if (setup_only) {
    result.world_events = world.timeline().size();
    return result;
  }

  {
    const auto s = tracer.span("sim.run_s");
    system.run();
  }

  {
    const auto s = tracer.span("core.oracle_s");
    core::GroundTruthOracle oracle(predicate, system.sensing());
    result.oracle = oracle.evaluate(world.timeline(), sys.sim.horizon);
  }
  result.message_stats = system.message_stats();
  result.observed_updates = system.log().updates.size();
  result.world_events = world.timeline().size();
  result.delta_bound = system.delta_bound();
  result.shard_windows = system.windows();
  result.shard_cut_edges = system.shard_map().cut_edges();

  const bool tracing = sys.sim.trace_capacity > 0;
  if (tracing) {
    const auto s = tracer.span("core.trace_merge_s");
    result.trace = system.trace_records();
    result.trace_evicted = system.trace_evicted();
  }

  analysis::ScoreConfig score_cfg;
  score_cfg.tolerance = config.effective_tolerance();

  MetricsRegistry& metrics = system.metrics();
  for (const net::MessageKind kind :
       {net::MessageKind::kComputation, net::MessageKind::kStrobe,
        net::MessageKind::kSync, net::MessageKind::kActuation}) {
    const auto& ks = result.message_stats.of(kind);
    if (ks.sent == 0 && ks.unreachable == 0) continue;
    const std::string prefix = std::string("net.") + net::to_string(kind);
    metrics.counter(prefix + ".sent").inc(ks.sent);
    metrics.counter(prefix + ".delivered").inc(ks.delivered);
    metrics.counter(prefix + ".dropped").inc(ks.dropped);
    metrics.counter(prefix + ".unreachable").inc(ks.unreachable);
    metrics.counter(prefix + ".bytes_sent").inc(ks.bytes_sent);
  }
  const auto& mode_bytes = result.message_stats.strobe_mode_bytes;
  metrics.counter("net.strobe.bytes_scalar_mode").inc(mode_bytes.scalar);
  metrics.counter("net.strobe.bytes_vector_mode").inc(mode_bytes.vector);
  metrics.counter("net.strobe.bytes_physical_mode").inc(mode_bytes.physical);
  metrics.counter("world.events").inc(result.world_events);
  metrics.counter("root.observed_updates").inc(result.observed_updates);

  if (config.check) {
    if (!tracing) {
      throw ConfigError(
          "psn::check: tracing was off for this run; set "
          "OccupancyConfig::trace_capacity > 0 and rerun");
    }
    const auto s = tracer.span("check.check_run_s");
    check::CheckOptions check_options;
    check_options.validity_horizon = config.validity_horizon;
    check_options.faults = system.faults();
    check::RunInputs inputs;
    inputs.num_processes = system.num_processes();
    inputs.sync_epsilon = sys.clock_config.sync_epsilon;
    inputs.drifting = sys.clock_config.drifting;
    inputs.executions.resize(inputs.num_processes);
    const auto executions = system.sensor_executions();
    for (ProcessId p = 1; p < inputs.num_processes; ++p) {
      inputs.executions[p] = *executions[p - 1];
    }
    inputs.trace = result.trace;
    inputs.trace_evicted = result.trace_evicted;
    result.check = check::check_run(inputs, check_options);
  }

  for (const auto& detector : core::all_online_detectors()) {
    if (config.lean_clocks && detector->name() == "strobe-vector") continue;
    analysis::DetectorOutcome out;
    out.detector = detector->name();
    {
      const auto s = tracer.span("core.detect_s." + out.detector);
      out.detections = detector->run(system.log(), predicate);
    }
    {
      const auto s = tracer.span("analysis.score_s");
      out.score =
          analysis::score_detections(result.oracle, out.detections, score_cfg);
      out.belief_accuracy = analysis::belief_accuracy(
          result.oracle, out.detections, sys.sim.horizon);
    }
    const std::string prefix = "detector." + out.detector;
    metrics.counter(prefix + ".detections").inc(out.detections.size());
    metrics.counter(prefix + ".true_positives").inc(out.score.true_positives);
    metrics.counter(prefix + ".false_positives")
        .inc(out.score.false_positives);
    metrics.counter(prefix + ".false_negatives")
        .inc(out.score.false_negatives);
    metrics.counter(prefix + ".borderline")
        .inc(out.score.borderline_detections);
    metrics.stat(prefix + ".belief_accuracy").add(out.belief_accuracy);
    if (tracing) {
      for (const core::Detection& d : out.detections) {
        result.trace.push_back(
            {d.detected_at, sim::TraceKind::kDetect, 0, kNoProcess, -1, 0,
             out.detector + (d.to_true ? ":true" : ":false")});
      }
    }
    result.outcomes.push_back(std::move(out));
  }

  if (result.check) {
    const bool audit_eligible =
        config.delay_kind == core::DelayKind::kUniformBounded &&
        result.check->trace_evicted == 0;
    if (audit_eligible) {
      std::optional<Tracer::Scope> scan;
      scan.emplace(tracer, "check.race_scan_s");
      check::RaceScanConfig delta_scan;
      delta_scan.window = result.delta_bound;
      const std::vector<check::RaceEvent> delta_races =
          check::scan_races(system.log(), delta_scan);
      check::RaceScanConfig eps_scan;
      eps_scan.window = config.sync_epsilon * 2;
      const std::vector<check::RaceEvent> eps_races =
          check::scan_races(system.log(), eps_scan);
      scan.reset();
      const auto s = tracer.span("check.audit_s");
      check::FaultSpanConfig span_cfg;
      span_cfg.delta_bound = result.delta_bound;
      const std::vector<check::FaultSpan> fault_spans =
          check::collect_fault_spans(result.trace, system.log(), span_cfg);
      check::AuditConfig audit;
      audit.slack = score_cfg.tolerance;
      for (const analysis::DetectorOutcome& out : result.outcomes) {
        const bool physical = out.detector == "physical-eps";
        result.check->add_contract(check::audit_detector(
            out.detector, physical ? eps_races : delta_races, fault_spans,
            out.score.fp_cause_times, out.score.fn_occurrence_times, audit));
      }
    }
    for (const check::ContractResult& cr : result.check->contracts) {
      metrics.counter("check." + cr.contract + ".violations")
          .inc(cr.violations_total);
    }
    metrics.counter("check.violations").inc(result.check->total_violations());
  }

  result.metrics = system.metrics_snapshot();
  return result;
}

namespace {

bool same_detection(const core::Detection& a, const core::Detection& b) {
  return a.detected_at == b.detected_at && a.to_true == b.to_true &&
         a.borderline == b.borderline &&
         a.cause_true_time == b.cause_true_time &&
         a.update_index == b.update_index;
}

}  // namespace

std::string compare_runs(const analysis::OccupancyRunResult& expected,
                         const analysis::OccupancyRunResult& actual) {
  if (expected.world_events != actual.world_events) return "world_events";
  if (expected.observed_updates != actual.observed_updates) {
    return "observed_updates";
  }
  if (expected.outcomes.size() != actual.outcomes.size()) {
    return "detector count";
  }
  for (std::size_t i = 0; i < expected.outcomes.size(); ++i) {
    const analysis::DetectorOutcome& e = expected.outcomes[i];
    const analysis::DetectorOutcome& a = actual.outcomes[i];
    if (e.detector != a.detector) return "detector order at " + e.detector;
    if (e.detections.size() != a.detections.size()) {
      return "detection count of " + e.detector;
    }
    for (std::size_t k = 0; k < e.detections.size(); ++k) {
      if (!same_detection(e.detections[k], a.detections[k])) {
        return "detection " + std::to_string(k) + " of " + e.detector;
      }
    }
    if (e.score.true_positives != a.score.true_positives ||
        e.score.false_positives != a.score.false_positives ||
        e.score.false_negatives != a.score.false_negatives ||
        e.score.borderline_detections != a.score.borderline_detections ||
        e.score.oracle_occurrences != a.score.oracle_occurrences) {
      return "score of " + e.detector;
    }
  }
  if (analysis::metrics_json(expected.metrics) !=
      analysis::metrics_json(actual.metrics)) {
    return "metrics snapshot";
  }
  if (expected.check.has_value() != actual.check.has_value()) {
    return "check report presence";
  }
  if (expected.check && expected.check->summary() != actual.check->summary()) {
    return "check summary";
  }
  if (expected.trace.size() != actual.trace.size() ||
      analysis::trace_jsonl(expected.trace) !=
          analysis::trace_jsonl(actual.trace)) {
    return "trace";
  }
  return {};
}

namespace {

// The trace-only checker configuration serve::Session builds for itself.
check::StreamCheckerConfig session_checker_config(
    const serve::SoakServerConfig& cfg) {
  check::StreamCheckerConfig out;
  out.num_processes = cfg.num_processes;
  out.send_retention = cfg.send_retention;
  out.options.validity_horizon = cfg.validity_horizon;
  out.options.max_recorded_violations = cfg.max_recorded_violations;
  return out;
}

serve::SessionConfig session_config(const serve::SoakServerConfig& cfg) {
  serve::SessionConfig out;
  out.soak = cfg;
  return out;
}

}  // namespace

StreamRun traced_stream(const serve::SoakServerConfig& config,
                        const std::vector<std::string>& lines,
                        Tracer& tracer) {
  StreamRun run;
  {
    const auto s = tracer.span("serve.session_s");
    serve::Session session(session_config(config),
                           [&run](std::string_view chunk) {
                             run.session_output.append(chunk);
                             return true;
                           });
    for (const std::string& line : lines) {
      if (session.stopped()) break;
      session.feed_line(line);
    }
    run.session = session.finish();
  }

  {
    // Parse and drop, as the Session does per line; keeping the records
    // here would add their storage to the parse time.
    const auto s = tracer.span("serve.parse_s");
    for (const std::string& line : lines) {
      if (line.empty()) continue;
      const serve::ParsedRecord parsed = serve::parse_trace_line(line);
      if (!parsed.ok()) {
        run.split_error = parsed.error;
        break;
      }
    }
  }
  std::vector<sim::TraceRecord> records;
  if (run.split_error.empty()) {
    records.reserve(lines.size());
    for (const std::string& line : lines) {
      if (line.empty()) continue;
      records.push_back(serve::parse_trace_line(line).record);
    }
  }
  {
    const auto s = tracer.span("check.stream_feed_s");
    check::StreamChecker checker(session_checker_config(config));
    for (const sim::TraceRecord& r : records) checker.feed(r);
    run.split_records = checker.records_fed();
    run.split_violations = checker.finish().total_violations();
  }
  return run;
}

double stream_setup_s(const serve::SoakServerConfig& config,
                      std::string_view first_line) {
  const auto start = std::chrono::steady_clock::now();
  serve::Session session(session_config(config),
                         [](std::string_view) { return true; });
  session.feed_line(first_line);
  const auto end = std::chrono::steady_clock::now();
  session.finish();
  return std::chrono::duration<double>(end - start).count();
}

}  // namespace psn::e2ebench
