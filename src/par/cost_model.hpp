#pragma once

#include <cstdint>

namespace salign::par {

/// Analytic interconnect model of the paper's testbed: a Beowulf cluster of
/// Pentium III nodes on gigabit Ethernet. The paper's own analysis (its §3)
/// uses the coarse-grained model of [20, 16, 2] — per-message start-up cost
/// plus unit time per byte — and that is exactly what this struct encodes.
///
/// The model turns the pipeline's per-stage byte counts into wire seconds so
/// that the scalability figures can be reproduced on a machine with fewer
/// cores than the paper had nodes: modeled time = max over ranks of
/// measured per-rank compute + modeled communication.
struct ClusterCostModel {
  /// Per-message start-up (software + switch latency). ~50 us is typical
  /// for TCP-over-GigE of that era.
  double latency_seconds = 50e-6;
  /// Effective bandwidth. 1 Gbit/s line rate; ~80% achievable -> 100 MB/s.
  double bytes_per_second = 100e6;

  /// Point-to-point time for one message of `bytes`.
  [[nodiscard]] double p2p(std::uint64_t bytes) const {
    return latency_seconds +
           static_cast<double>(bytes) / bytes_per_second;
  }

  /// Flat-tree broadcast of `bytes` from one root to p-1 destinations
  /// (p-1 point-to-point messages, charged serially at the root's NIC,
  /// which is the conservative coarse-grained choice).
  [[nodiscard]] double broadcast(std::uint64_t bytes, int p) const {
    return static_cast<double>(p - 1) * p2p(bytes);
  }

  /// Gather of per-rank payloads of `bytes` each into the root.
  [[nodiscard]] double gather(std::uint64_t bytes, int p) const {
    return static_cast<double>(p - 1) * p2p(bytes);
  }

  /// Personalized all-to-all where every rank sends at most
  /// `max_bytes_per_rank` in total; charged as p-1 rounds of the largest
  /// per-destination message (synchronous rounds, as in [16]).
  [[nodiscard]] double all_to_all(std::uint64_t max_bytes_per_rank,
                                  int p) const {
    if (p <= 1) return 0.0;
    const std::uint64_t per_msg =
        max_bytes_per_rank / static_cast<std::uint64_t>(p - 1);
    return static_cast<double>(p - 1) * p2p(per_msg);
  }
};

}  // namespace salign::par
