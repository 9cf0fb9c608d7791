// Per-interval throughput series (the unit the paper's Figure 4 plots).
// Latency histograms live in src/obs (obs::HistogramData).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace acn {

/// Committed-operations-per-interval counter: the harness opens one slot
/// per measurement interval and client threads bump the slot for the
/// interval in which their transaction committed.
class IntervalSeries {
 public:
  explicit IntervalSeries(std::size_t intervals);

  void add(std::size_t interval, std::uint64_t delta = 1) noexcept;
  std::uint64_t at(std::size_t interval) const noexcept;
  std::size_t size() const noexcept { return slots_.size(); }
  std::vector<std::uint64_t> snapshot() const;

 private:
  std::vector<std::atomic<std::uint64_t>> slots_;
};

}  // namespace acn
