#pragma once

#include <cstddef>
#include <vector>

#include "common/types.hpp"

namespace psn::net {

/// The logical network overlay L over which processes in P communicate
/// (paper §2.1). Undirected; multi-hop delivery accumulates one delay sample
/// per hop along the shortest path. L "is a dynamically changing graph" in
/// the paper; edges may be added/removed mid-run.
class Overlay {
 public:
  explicit Overlay(std::size_t n);

  static Overlay complete(std::size_t n);
  /// Star centered on `hub` (the common root-P0 configuration).
  static Overlay star(std::size_t n, ProcessId hub = 0);
  static Overlay ring(std::size_t n);
  /// Path 0-1-2-…-(n-1); the worst diameter, for stress tests.
  static Overlay line(std::size_t n);

  std::size_t size() const { return n_; }
  void add_edge(ProcessId a, ProcessId b);
  void remove_edge(ProcessId a, ProcessId b);
  bool has_edge(ProcessId a, ProcessId b) const;
  const std::vector<ProcessId>& neighbors(ProcessId p) const;

  bool is_connected() const;
  /// Hop count of the shortest path, or SIZE_MAX if unreachable.
  ///
  /// O(1) in steady state: the transport asks this once per transmitted
  /// copy, so BFS rows are computed lazily per source and cached until the
  /// next add_edge/remove_edge (the alloc-guard suite pins the transmit
  /// path at zero allocations — a per-call BFS was three). The cache makes
  /// this const method non-reentrant: an Overlay must not be shared across
  /// threads, matching the one-overlay-per-run ownership everywhere else.
  std::size_t hop_distance(ProcessId from, ProcessId to) const;

 private:
  /// Degree at or below which hop_distance answers direct-neighbor queries
  /// by scanning the adjacency list instead of building a BFS row.
  static constexpr std::size_t kDirectScanDegree = 4;

  const std::vector<std::size_t>& distance_row(ProcessId from) const;
  void invalidate_rows();

  std::size_t n_;
  std::vector<std::vector<ProcessId>> adj_;
  /// Lazy shortest-path cache: dist_rows_[p] is p's BFS row when
  /// row_valid_[p], recomputed in place (capacity reused) after edge
  /// mutations. any_row_valid_ is false while no row is cached, so an edge
  /// mutation then skips the fill. bfs_queue_ is the BFS scratch, likewise
  /// recycled.
  mutable std::vector<std::vector<std::size_t>> dist_rows_;
  mutable std::vector<char> row_valid_;
  mutable bool any_row_valid_ = false;
  mutable std::vector<ProcessId> bfs_queue_;
};

}  // namespace psn::net
