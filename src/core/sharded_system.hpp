#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.hpp"
#include "core/sensing.hpp"
#include "core/system.hpp"
#include "net/shard_map.hpp"
#include "sim/trace.hpp"
#include "world/event.hpp"
#include "world/world_model.hpp"

namespace psn::core {

/// Configuration for the Δ-windowed sharded runner (DESIGN.md §14).
struct ShardedSystemConfig {
  /// The system being replicated per shard. Every shard is constructed from
  /// this exact config (same master seed, same models), which is what makes
  /// the per-shard RNG substreams — transport message seed, duty phases,
  /// clock noise — agree across shard counts.
  SystemConfig base;
  /// Number of space partitions K (1 <= K <= num_sensors + 1). K = 1 runs
  /// the whole system in one shard with no window machinery and supports
  /// every delay kind; K > 1 requires a positive minimum one-hop delay.
  std::size_t shards = 1;
  /// Worker threads driving the per-window shard fan-out (K > 1 only).
  /// 1 = run shard turns inline on the caller. Determinism is independent
  /// of this value; only wall-clock time changes.
  std::size_t pool_threads = 1;
  /// Route every sense report as one unicast to the root P_0 instead of the
  /// system-wide strobe broadcast (the city-scale star deployment).
  bool unicast_reports = false;
};

/// Space-partitioned execution of one ⟨P, L, O, C⟩ system (DESIGN.md §14).
///
/// The process space is cut into K contiguous shards (net::ShardMap); each
/// shard owns a full Simulation + Transport + its range of SensorNodes, and
/// all shards advance in lockstep Δ-windows (sim::ShardedSimulation). Three
/// mechanisms make the run *byte-identical* at every K:
///
///  - identity: per-source strided message seqs and per-message keyed RNG
///    (net::Transport) give every message the same seq, delay draws, and
///    loss draws no matter which shard sends it;
///  - routing: a cross-shard send is finalized (arrival instant + canonical
///    tie) in the sender's shard, parked in a per-(src,dst-shard) outbox,
///    and injected verbatim into the owner's calendar at the window barrier
///    in (at, tie) order;
///  - observation: P_0 is replicated into every shard — deliveries to the
///    root execute locally against the replica, and the per-shard logs merge
///    by (delivered_at, seq) into exactly the serial delivery order. Traces
///    merge under sim::canonical_trace_order; metrics merge by summation in
///    shard order.
///
/// The world plane is *not* replicated. The caller pre-rolls the world
/// timeline once (scenarios are autonomous — they draw only from their own
/// RNG substream) and hands it to set_world_events(); each sensor's event
/// subsequence is replayed by a per-pid timer chain inside its owner shard.
/// The K = 1 path uses the same replay machinery, so a 1-shard run is the
/// golden reference for every K.
///
/// At K = 1 the live stack is also reachable, for closed-loop callers
/// (online monitors, actuation, hand-scripted worlds): world() builds a live
/// world plane on the one shard's Simulation instead of a replayed timeline,
/// and sim(), transport(), root() and sensor() expose the rest. Each is a
/// PSN_CHECK backstop at K > 1.
///
/// Not supported at K > 1 (callers reject these before construction): FIFO
/// channels, Gilbert–Elliott loss, and delay models with a zero minimum
/// one-hop delay.
class ShardedPervasiveSystem {
 public:
  explicit ShardedPervasiveSystem(ShardedSystemConfig config);
  ~ShardedPervasiveSystem();

  /// Routes (object, attribute) world events to `sensor` during replay.
  void assign(world::ObjectId object, const std::string& attribute,
              ProcessId sensor);
  const SensingMap& sensing() const { return sensing_; }

  /// Installs the pre-rolled ground-truth timeline to replay (`when`
  /// non-decreasing, indices assigned). Call once, before run(). Excludes
  /// world().
  void set_world_events(std::vector<world::WorldEvent> events);

  // --- The live stack, K = 1 only.
  /// The live world plane, built on the first call: its events route
  /// through the sensing map to sensor(pid).sense(), and every sensor is
  /// bound to it so actuation commands apply as a-events. Excludes
  /// set_world_events().
  world::WorldModel& world();
  sim::Simulation& sim();
  net::Transport& transport();
  RootMonitor& root();
  SensorNode& sensor(ProcessId pid);
  const SensorNode& sensor(ProcessId pid) const;

  /// Pre-sizes every per-shard root log (city-scale runs append millions of
  /// updates; growing the logs inside the window loop would allocate).
  void reserve_root_logs(std::size_t expected_updates);

  std::size_t num_processes() const { return n_; }
  std::size_t num_shards() const { return shard_map_.num_shards(); }
  const net::ShardMap& shard_map() const { return shard_map_; }
  /// End-to-end Δ bound (hop bound × topology diameter, computed in closed
  /// form per TopologyKind — the O(n²) BFS sweep is intractable at 10^5).
  Duration delta_bound() const;
  /// Window width W used by the K > 1 drive loop (zero when K = 1).
  Duration window() const { return window_; }

  /// Replays the world timeline through all shards to the horizon; returns
  /// total events executed. Call once.
  std::size_t run();
  bool truncated() const { return truncated_; }
  /// Δ-windows executed (0 when K = 1 — no window machinery ran).
  std::size_t windows() const { return windows_; }

  // --- Merged run artifacts. Valid after run(); each is bit-identical to
  // --- the corresponding serial artifact at every K.
  const ObservationLog& log() const { return merged_log_; }
  const std::vector<world::WorldEvent>& world_events() const {
    return timeline_;
  }
  net::MessageStats message_stats() const;
  MetricsSnapshot metrics_snapshot() const;
  /// Shard 0's registry — where post-run, analysis-level counters belong
  /// (written exactly once, never per shard, so merged snapshots stay
  /// K-independent).
  MetricsRegistry& metrics();
  /// All shards' trace rings, merged under sim::canonical_trace_order.
  std::vector<sim::TraceRecord> trace_records() const;
  std::size_t trace_evicted() const;
  /// Recorded local executions of the sensors (index 0 = P_1), pid order.
  std::vector<const std::vector<ProcessEvent>*> sensor_executions() const;

  const ShardedSystemConfig& config() const { return config_; }

  /// The compiled fault schedule, or nullptr when the config has no faults.
  /// One schedule is shared by every shard — fault decisions are pure
  /// functions of (pid/edge, time), never of the shard layout.
  const sim::FaultSchedule* faults() const { return faults_.get(); }

 private:
  struct Shard;
  struct ReplayCursor;

  std::unique_ptr<Shard> build_shard(std::size_t s);
  void require_one_shard() const;
  Shard& only_shard();
  const Shard& only_shard() const;
  void install_cursors();
  std::size_t exchange_outboxes();
  void merge_root_logs();

  ShardedSystemConfig config_;
  std::unique_ptr<sim::FaultSchedule> faults_;
  std::size_t n_ = 0;              ///< processes incl. the root
  Duration window_ = Duration::zero();
  net::ShardMap shard_map_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// outboxes_[src_shard][dst_shard]; cleared (capacity kept) per window.
  std::vector<std::vector<std::vector<net::PendingDelivery>>> outboxes_;
  std::vector<net::PendingDelivery> exchange_scratch_;
  std::vector<world::WorldEvent> timeline_;
  std::vector<std::unique_ptr<ReplayCursor>> cursors_;
  std::unique_ptr<world::WorldModel> world_;  ///< live world (K = 1 only)
  SensingMap sensing_;
  ObservationLog merged_log_;
  bool truncated_ = false;
  std::size_t windows_ = 0;
  bool ran_ = false;
};

}  // namespace psn::core
