#pragma once

// Bench-side traced copies of the two assemblies `psn_cli` runs:
// analysis::run_occupancy_experiment (`run`, `check`) and serve::Session
// (`serve` on stdin). Each calls the same public functions in the same
// order as the program does and records a span around every call into a
// layer. Nothing inside src/ is instrumented; test_equivalence.py keeps
// these copies equal to the program's own assembly.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/experiments.hpp"
#include "serve/session.hpp"

namespace psn::e2ebench {

/// One timed call: name, start and end relative to the tracer's origin, and
/// the enclosing span (-1 for a root span).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
};

/// Keeps spans in memory; psn_bench_trace writes them out when the run ends.
class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    int index_;
  };

  Tracer();
  Scope span(std::string name) { return Scope(*this, std::move(name)); }
  const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration of every span called `name`, in seconds.
  double total_s(std::string_view name) const;

 private:
  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;
};

/// run_occupancy_experiment with spans. With `setup_only` it returns right
/// before ShardedPervasiveSystem::run(), after the set-up spans
/// (world.preroll_s, core.build_s); the result then holds only world_events.
analysis::OccupancyRunResult traced_occupancy_experiment(
    const analysis::OccupancyConfig& config, Tracer& tracer,
    bool setup_only = false);

/// Empty when the two results agree on detections per detector, scores,
/// the metrics snapshot, the check summary and the trace; otherwise the
/// first difference found.
std::string compare_runs(const analysis::OccupancyRunResult& expected,
                         const analysis::OccupancyRunResult& actual);

/// What a traced pass over one JSONL stream produced.
struct StreamRun {
  serve::SoakReport session;  ///< the real Session's report
  std::string session_output; ///< every event line the Session emitted
  std::size_t split_records = 0;     ///< records fed by the split pass
  std::size_t split_violations = 0;  ///< its StreamChecker verdict count
  std::string split_error;           ///< first parse error, if any
};

/// `psn_cli serve --procs N` on in-memory lines. The serve.session_s span
/// times a real serve::Session over every line. Two more timed passes over
/// the same lines split its work: serve.parse_s around parse_trace_line and
/// check.stream_feed_s around StreamChecker::feed (on records parsed
/// untimed in between). Each pass is one span, because a clock read per
/// record would cost more than the feed.
StreamRun traced_stream(const serve::SoakServerConfig& config,
                        const std::vector<std::string>& lines,
                        Tracer& tracer);

/// Session set-up as `psn_cli serve` pays it: from the start of Session
/// construction until the first record has been fed. Seconds.
double stream_setup_s(const serve::SoakServerConfig& config,
                      std::string_view first_line);

}  // namespace psn::e2ebench
