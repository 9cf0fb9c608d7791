// Metrics registry: lock-cheap named counters, gauges, and log-linear
// histograms for the transaction runtime and the harness.
//
// Hot-path design: every counter/histogram update lands in a *per-thread
// shard* (a flat array of relaxed atomics private to the writing thread),
// so concurrent clients never contend on a shared cache line; snapshot()
// merges the shards.  Gauges are set-not-accumulated, so they live in one
// shared cell each.  Updates through a default-constructed or disabled
// handle are a single predictable branch — cheap enough to leave the
// instrumentation compiled into release binaries.
//
// The compile-time macro ACN_OBS_DEFAULT_ENABLED (0/1, default 1) picks the
// initial state of the runtime enabled flag; set_enabled() overrides it.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace acn::obs {

#ifndef ACN_OBS_DEFAULT_ENABLED
#define ACN_OBS_DEFAULT_ENABLED 1
#endif
inline constexpr bool kObsDefaultEnabled = ACN_OBS_DEFAULT_ENABLED != 0;

/// The one histogram: a fixed log-linear layout over all of uint64.  Values
/// 0..15 get a bucket each; above that every power of two splits into 8
/// equal sub-buckets, so a bucket's inclusive upper bound is less than
/// 12.5% above any value in it.  A plain value type: the registry merges
/// its per-thread cells into one, and the driver keeps one per client
/// thread and merges them after the join.
struct HistogramData {
  static constexpr std::size_t kBuckets = 496;

  /// Bucket index of `value`: the top four significant bits (the octave's
  /// leading 1 plus a 3-bit sub-bucket) stacked above the 16 exact ones.
  static constexpr std::size_t bucket_of(std::uint64_t value) noexcept {
    const int shift = std::max(static_cast<int>(std::bit_width(value)) - 4, 0);
    return static_cast<std::size_t>(shift) * 8 +
           static_cast<std::size_t>(value >> shift);
  }
  /// Largest value that lands in `bucket`.
  static constexpr std::uint64_t upper_bound(std::size_t bucket) noexcept {
    if (bucket < 16) return bucket;
    const std::size_t shift = bucket / 8 - 1;
    // Wraps to UINT64_MAX for the last bucket, as it should.
    return (std::uint64_t{bucket % 8 + 9} << shift) - 1;
  }

  std::array<std::uint64_t, kBuckets> counts{};
  std::uint64_t sum = 0;

  void add(std::uint64_t value) noexcept {
    ++counts[bucket_of(value)];
    sum += value;
  }
  void merge(const HistogramData& other) noexcept;
  std::uint64_t count() const noexcept;
  double mean() const noexcept;
  /// Upper bound of the bucket holding the q-quantile (q in [0,1]): at
  /// least the true value and less than 1.125x it.  0 when empty.
  std::uint64_t percentile(double q) const noexcept;
};

/// Point-in-time merged view of a registry.
struct Snapshot {
  struct Counter {
    std::string name;
    std::uint64_t value = 0;
  };
  struct Gauge {
    std::string name;
    std::int64_t value = 0;
  };
  struct Histogram {
    std::string name;
    HistogramData data;
  };

  std::vector<Counter> counters;
  std::vector<Gauge> gauges;
  std::vector<Histogram> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Value of the named counter, 0 when absent.
  std::uint64_t counter(std::string_view name) const noexcept;
  std::int64_t gauge(std::string_view name) const noexcept;
  const HistogramData* histogram(std::string_view name) const noexcept;

  /// Difference vs an earlier snapshot of the same registry: counters and
  /// histogram buckets subtract (clamped at 0); gauges keep their current
  /// value.  Metrics absent from `earlier` pass through unchanged.
  Snapshot since(const Snapshot& earlier) const;

  std::string to_json() const;
  /// "name,kind,stat,value" rows (histograms expand to count/sum/p50/p99),
  /// matching the harness CSV convention of one scalar per row.
  std::string to_csv() const;
};

class MetricsRegistry {
  struct Desc;

 public:
  /// `max_cells` bounds the total shard cells (1 per counter, kBuckets+1
  /// per histogram); registration beyond it throws.  The default holds
  /// Observability's 11 histograms (5467 cells) and its counters with room
  /// to spare.
  explicit MetricsRegistry(std::size_t max_cells = 8192);
  ~MetricsRegistry();

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  /// Monotonic counter handle.  Handles are cheap value types bound to the
  /// registry; the registry must outlive them.  A default-constructed
  /// handle is a no-op.
  class Counter {
   public:
    Counter() = default;
    void add(std::uint64_t delta = 1) const noexcept {
      if (registry_) registry_->bump(cell_, delta);
    }

   private:
    friend class MetricsRegistry;
    Counter(MetricsRegistry* registry, std::uint32_t cell)
        : registry_(registry), cell_(cell) {}
    MetricsRegistry* registry_ = nullptr;
    std::uint32_t cell_ = 0;
  };

  /// Last-set-wins gauge (one shared cell; set() is rare by design).
  class Gauge {
   public:
    Gauge() = default;
    void set(std::int64_t value) const noexcept {
      if (cell_) cell_->store(value, std::memory_order_relaxed);
    }
    void add(std::int64_t delta) const noexcept {
      if (cell_) cell_->fetch_add(delta, std::memory_order_relaxed);
    }

   private:
    friend class MetricsRegistry;
    explicit Gauge(std::atomic<std::int64_t>* cell) : cell_(cell) {}
    std::atomic<std::int64_t>* cell_ = nullptr;
  };

  class Histogram {
   public:
    Histogram() = default;
    void observe(std::uint64_t value) const noexcept {
      if (registry_) registry_->observe(cell_, value);
    }

   private:
    friend class MetricsRegistry;
    Histogram(MetricsRegistry* registry, std::uint32_t cell)
        : registry_(registry), cell_(cell) {}
    MetricsRegistry* registry_ = nullptr;
    std::uint32_t cell_ = 0;
  };

  /// Register (or look up, by exact name + kind) a metric.  Thread-safe.
  Counter counter(std::string name);
  Gauge gauge(std::string name);
  Histogram histogram(std::string name);

  /// Merge all shards into a consistent-enough view (relaxed reads; exact
  /// once writers are quiescent).
  Snapshot snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Desc {
    std::string name;
    Kind kind;
    std::uint32_t cell_base = 0;  // first shard cell
    std::atomic<std::int64_t>* gauge_cell = nullptr;
  };

  struct Shard {
    explicit Shard(std::size_t n)
        : cells(std::make_unique<std::atomic<std::uint64_t>[]>(n)) {}
    std::unique_ptr<std::atomic<std::uint64_t>[]> cells;  // zero-initialised
  };

  void bump(std::uint32_t cell, std::uint64_t delta) noexcept;
  void observe(std::uint32_t cell_base, std::uint64_t value) noexcept;
  Shard& local_shard();
  Desc& register_metric(std::string name, Kind kind, std::size_t n_cells);

  const std::size_t max_cells_;
  const std::uint64_t instance_id_;  // process-unique, for TLS caching
  std::atomic<bool> enabled_{kObsDefaultEnabled};

  mutable std::mutex mutex_;
  std::deque<Desc> descs_;                         // stable addresses
  std::deque<std::atomic<std::int64_t>> gauges_;   // stable addresses
  std::map<std::thread::id, std::unique_ptr<Shard>> shards_;
  std::size_t cells_used_ = 0;
};

}  // namespace acn::obs
