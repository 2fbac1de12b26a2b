// psn_bench_trace — the traced side of the end-to-end benchmark. run.py
// times the stock psn_cli from outside; this driver runs the same
// assemblies in-process (assembly.hpp) with a span around each layer call
// and prints one JSON object on stdout.
//
//   psn_bench_trace context
//   psn_bench_trace occupancy run|check [--setup-only] [--verify] FLAGS...
//       FLAGS are the psn_cli flags the workloads use: --scenario hall|city
//       --doors N --rate R --seconds S --seed N --mode scalar|vector|physical
//       --shards K --shard-threads N. --verify also calls
//       analysis::run_occupancy_experiment and reports any difference.
//   psn_bench_trace serve --procs N --input PATH [--session-out PATH]
//                         [--setup-only]
//
// Exit codes: 0 ok, 2 usage error or a failed --verify.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/export.hpp"
#include "assembly.hpp"
#include "common/error.hpp"

namespace {

using namespace psn;

[[noreturn]] void usage_error(const std::string& why) {
  std::fprintf(stderr, "psn_bench_trace: %s\n", why.c_str());
  std::exit(2);
}

std::string num(double v) { return analysis::json_general(v, 17); }

/// Ordered JSON object writer for flat name → number maps.
std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    if (out.size() > 1) out += ',';
    out += '"' + analysis::json_escape(name) + "\":" + num(value);
  }
  return out + '}';
}

std::string spans_json(const e2ebench::Tracer& tracer) {
  std::string out = "[";
  for (const e2ebench::Span& s : tracer.spans()) {
    if (out.size() > 1) out += ',';
    out += "{\"name\":\"" + analysis::json_escape(s.name) +
           "\",\"start_ns\":" + std::to_string(s.start_ns) +
           ",\"end_ns\":" + std::to_string(s.end_ns) +
           ",\"parent\":" + std::to_string(s.parent) + '}';
  }
  return out + ']';
}

/// The psn_cli flag → OccupancyConfig mapping (examples/psn_cli.cpp,
/// occupancy_config_of and run_check) for the flags the workloads pass.
/// run.py checks the resulting scorecard against psn_cli's own output, so a
/// drift between the two mappings fails the traced run.
analysis::OccupancyConfig occupancy_config(
    const std::string& command, const std::vector<std::string>& args) {
  analysis::OccupancyConfig cfg;
  std::string scenario = "hall";
  cfg.doors = 4;
  cfg.capacity = 200;
  cfg.movement_rate = 20.0;
  cfg.horizon = Duration::seconds(60);
  cfg.seed = 1;
  cfg.clock_mode = net::ClockMode::kVectorStrobe;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (i + 1 >= args.size()) usage_error("missing value for " + flag);
    const std::string value = args[++i];
    if (flag == "--scenario") {
      scenario = value;
    } else if (flag == "--doors") {
      cfg.doors = static_cast<std::size_t>(std::atoll(value.c_str()));
    } else if (flag == "--rate") {
      cfg.movement_rate = std::atof(value.c_str());
    } else if (flag == "--seconds") {
      cfg.horizon = Duration::seconds(std::atoll(value.c_str()));
    } else if (flag == "--seed") {
      cfg.seed = static_cast<std::uint64_t>(std::atoll(value.c_str()));
    } else if (flag == "--mode") {
      if (value == "scalar") {
        cfg.clock_mode = net::ClockMode::kScalarStrobe;
      } else if (value == "vector") {
        cfg.clock_mode = net::ClockMode::kVectorStrobe;
      } else if (value == "physical") {
        cfg.clock_mode = net::ClockMode::kPhysical;
      } else {
        usage_error("unknown clock mode " + value);
      }
    } else if (flag == "--shards") {
      cfg.shards = static_cast<std::size_t>(std::atoll(value.c_str()));
    } else if (flag == "--shard-threads") {
      cfg.shard_threads = static_cast<std::size_t>(std::atoll(value.c_str()));
    } else {
      usage_error("unsupported flag " + flag);
    }
  }
  if (scenario == "city") {
    if (cfg.doors == 4) usage_error("pass --doors explicitly for city");
    cfg.capacity = static_cast<int>(cfg.doors / 2);
    cfg.movement_rate = std::max(cfg.movement_rate, 2000.0);
    cfg.topology = core::TopologyKind::kStar;
    cfg.clock_mode = net::ClockMode::kPhysical;
    cfg.lean_clocks = true;
    cfg.unicast_reports = true;
  } else if (scenario != "hall") {
    usage_error("unsupported scenario " + scenario);
  }
  if (command == "check") {
    cfg.check = true;
    cfg.trace_capacity = 1000000;  // psn_cli's default --trace-cap
  } else if (command != "run") {
    usage_error("occupancy wants run or check, got " + command);
  }
  return cfg;
}

const char* const kDetectors[] = {"delivery-order", "physical-eps",
                                  "strobe-scalar", "strobe-vector"};

int cmd_occupancy(const std::vector<std::string>& args) {
  if (args.empty()) usage_error("occupancy needs run or check");
  bool setup_only = false;
  bool verify = false;
  std::vector<std::string> flags;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--setup-only") {
      setup_only = true;
    } else if (args[i] == "--verify") {
      verify = true;
    } else {
      flags.push_back(args[i]);
    }
  }
  const analysis::OccupancyConfig cfg = occupancy_config(args[0], flags);

  e2ebench::Tracer tracer;
  const analysis::OccupancyRunResult run =
      e2ebench::traced_occupancy_experiment(cfg, tracer, setup_only);
  std::map<std::string, double> m;
  m["world.preroll_s"] = tracer.total_s("world.preroll_s");
  m["core.build_s"] = tracer.total_s("core.build_s");
  m["world.events"] = static_cast<double>(run.world_events);
  if (setup_only) {
    std::printf("{\"metrics\":%s}\n", json_object(m).c_str());
    return 0;
  }

  const auto counter = [&run](const std::string& name) {
    const auto it = run.metrics.counters.find(name);
    return it == run.metrics.counters.end() ? 0.0
                                            : static_cast<double>(it->second);
  };
  const double run_s = tracer.total_s("sim.run_s");
  m["sim.run_s"] = run_s;
  m["sim.events"] = counter("sim.events_executed");
  m["sim.windows"] = static_cast<double>(run.shard_windows);
  m["sim.ns_per_event"] = run_s * 1e9 / std::max(1.0, m["sim.events"]);
  m["net.sent"] = counter("net.sent");
  m["net.delivered"] = counter("net.delivered");
  m["net.bytes_sent"] = counter("net.bytes_sent");
  m["net.ns_per_delivery"] = run_s * 1e9 / std::max(1.0, m["net.delivered"]);
  m["net.delivered_per_world_event"] =
      m["net.delivered"] / std::max(1.0, m["world.events"]);
  m["core.oracle_s"] = tracer.total_s("core.oracle_s");
  m["core.trace_merge_s"] = tracer.total_s("core.trace_merge_s");
  m["core.observed_updates"] = static_cast<double>(run.observed_updates);
  double detect_s = 0.0;
  for (const char* name : kDetectors) {
    const double s = tracer.total_s(std::string("core.detect_s.") + name);
    m[std::string("core.detect_s.") + name] = s;
    detect_s += s;
  }
  m["core.detect_ns_per_update"] =
      detect_s * 1e9 / std::max(1.0, m["core.observed_updates"]);
  m["analysis.score_s"] = tracer.total_s("analysis.score_s");
  for (const char* name : kDetectors) {
    m[std::string("analysis.recall.") + name] = 0.0;
  }
  for (const analysis::DetectorOutcome& out : run.outcomes) {
    m["analysis.recall." + out.detector] = out.score.recall();
  }
  m["check.check_run_s"] = tracer.total_s("check.check_run_s");
  m["check.race_scan_s"] = tracer.total_s("check.race_scan_s");
  m["check.audit_s"] = tracer.total_s("check.audit_s");
  double pairs = 0.0;
  if (run.check) {
    for (const check::ContractResult& cr : run.check->contracts) {
      pairs += static_cast<double>(cr.pairs_checked);
    }
    m["check.violations"] =
        static_cast<double>(run.check->total_violations());
  }
  m["check.pairs"] = pairs;
  m["bench.traced_total_s"] = tracer.total_s("occupancy");

  std::string scorecard = "[";
  for (const analysis::DetectorOutcome& out : run.outcomes) {
    if (scorecard.size() > 1) scorecard += ',';
    scorecard += "{\"detector\":\"" + out.detector +
                 "\",\"occurrences\":" +
                 std::to_string(out.score.oracle_occurrences) +
                 ",\"tp\":" + std::to_string(out.score.true_positives) +
                 ",\"fp\":" + std::to_string(out.score.false_positives) +
                 ",\"fn\":" + std::to_string(out.score.false_negatives) + '}';
  }
  scorecard += ']';

  std::string diff;
  if (verify) {
    diff = e2ebench::compare_runs(analysis::run_occupancy_experiment(cfg), run);
  }
  std::printf(
      "{\"metrics\":%s,\"scorecard\":%s,\"verify\":\"%s\",\"spans\":%s}\n",
      json_object(m).c_str(), scorecard.c_str(),
      analysis::json_escape(diff).c_str(), spans_json(tracer).c_str());
  return diff.empty() ? 0 : 2;
}

int cmd_serve(const std::vector<std::string>& args) {
  serve::SoakServerConfig cfg;
  std::string input;
  std::string session_out;
  bool setup_only = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--setup-only") {
      setup_only = true;
      continue;
    }
    if (i + 1 >= args.size()) usage_error("missing value for " + flag);
    const std::string value = args[++i];
    if (flag == "--procs") {
      cfg.num_processes = static_cast<std::size_t>(std::atoll(value.c_str()));
    } else if (flag == "--input") {
      input = value;
    } else if (flag == "--session-out") {
      session_out = value;
    } else {
      usage_error("unsupported flag " + flag);
    }
  }
  std::ifstream in(input);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
    if (setup_only) break;  // set-up feeds only the first record
  }
  if (lines.empty()) usage_error("cannot read records from --input " + input);

  if (setup_only) {
    const double s = e2ebench::stream_setup_s(cfg, lines.front());
    std::printf("{\"metrics\":{\"serve.setup_s\":%s}}\n", num(s).c_str());
    return 0;
  }

  e2ebench::Tracer tracer;
  const e2ebench::StreamRun run = e2ebench::traced_stream(cfg, lines, tracer);
  if (!session_out.empty()) {
    std::ofstream out(session_out, std::ios::binary);
    out << run.session_output;
    if (!out.flush()) usage_error("cannot write --session-out " + session_out);
  }
  std::map<std::string, double> m;
  const double records = static_cast<double>(run.session.records_fed);
  m["serve.records"] = records;
  m["serve.session_s"] = tracer.total_s("serve.session_s");
  m["serve.parse_s"] = tracer.total_s("serve.parse_s");
  m["serve.parse_ns_per_record"] =
      m["serve.parse_s"] * 1e9 / std::max(1.0, records);
  m["check.stream_feed_s"] = tracer.total_s("check.stream_feed_s");
  m["check.stream_ns_per_record"] =
      m["check.stream_feed_s"] * 1e9 / std::max(1.0, records);
  m["check.peak_pending_sends"] =
      static_cast<double>(run.session.peak_pending_sends);
  m["check.violations"] = static_cast<double>(run.session.violations);
  m["bench.traced_total_s"] = m["serve.session_s"];

  // The split pass must reach the Session's verdict, or its spans describe
  // some other work.
  std::string diff;
  if (!run.split_error.empty()) {
    diff = "parse error: " + run.split_error;
  } else if (run.split_records != run.session.records_fed ||
             run.split_violations != run.session.violations) {
    diff = "split pass disagrees with the Session";
  }
  std::printf("{\"metrics\":%s,\"exit\":%d,\"verify\":\"%s\",\"spans\":%s}\n",
              json_object(m).c_str(), run.session.exit_code,
              analysis::json_escape(diff).c_str(), spans_json(tracer).c_str());
  return diff.empty() ? 0 : 2;
}

int cmd_context() {
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#ifdef __clang__
  const char* const compiler = "clang " __VERSION__;
#else
  const char* const compiler = "gcc " __VERSION__;
#endif
  std::printf("{\"compiler\":\"%s\",\"build_type\":\"%s\",\"optimized\":%s}\n",
              analysis::json_escape(compiler).c_str(), PSN_BENCH_BUILD_TYPE,
              optimized ? "true" : "false");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    usage_error("usage: psn_bench_trace context|occupancy|serve ...");
  }
  const std::string cmd = args.front();
  args.erase(args.begin());
  try {
    if (cmd == "context") return cmd_context();
    if (cmd == "occupancy") return cmd_occupancy(args);
    if (cmd == "serve") return cmd_serve(args);
  } catch (const ConfigError& e) {
    usage_error(e.what());
  }
  usage_error("unknown command " + cmd);
}
