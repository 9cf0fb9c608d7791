#include "src/common/stats.hpp"

namespace acn {

IntervalSeries::IntervalSeries(std::size_t intervals) : slots_(intervals) {}

void IntervalSeries::add(std::size_t interval, std::uint64_t delta) noexcept {
  if (interval < slots_.size())
    slots_[interval].fetch_add(delta, std::memory_order_relaxed);
}

std::uint64_t IntervalSeries::at(std::size_t interval) const noexcept {
  return interval < slots_.size() ? slots_[interval].load(std::memory_order_relaxed)
                                  : 0;
}

std::vector<std::uint64_t> IntervalSeries::snapshot() const {
  std::vector<std::uint64_t> out(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) out[i] = at(i);
  return out;
}

}  // namespace acn
