#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace acn::obs {

// ---------------------------------------------------------------------------
// HistogramData

void HistogramData::merge(const HistogramData& other) noexcept {
  for (std::size_t i = 0; i < kBuckets; ++i) counts[i] += other.counts[i];
  sum += other.sum;
}

std::uint64_t HistogramData::count() const noexcept {
  std::uint64_t total = 0;
  for (const auto c : counts) total += c;
  return total;
}

double HistogramData::mean() const noexcept {
  const std::uint64_t n = count();
  return n ? static_cast<double>(sum) / static_cast<double>(n) : 0.0;
}

std::uint64_t HistogramData::percentile(double q) const noexcept {
  const std::uint64_t n = count();
  if (n == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const auto rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n))));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) return upper_bound(i);
  }
  return upper_bound(kBuckets - 1);
}

// ---------------------------------------------------------------------------
// Snapshot

std::uint64_t Snapshot::counter(std::string_view name) const noexcept {
  for (const auto& c : counters)
    if (c.name == name) return c.value;
  return 0;
}

std::int64_t Snapshot::gauge(std::string_view name) const noexcept {
  for (const auto& g : gauges)
    if (g.name == name) return g.value;
  return 0;
}

const HistogramData* Snapshot::histogram(std::string_view name) const noexcept {
  for (const auto& h : histograms)
    if (h.name == name) return &h.data;
  return nullptr;
}

Snapshot Snapshot::since(const Snapshot& earlier) const {
  Snapshot out = *this;
  for (auto& c : out.counters) {
    const std::uint64_t before = earlier.counter(c.name);
    c.value = c.value >= before ? c.value - before : 0;
  }
  for (auto& h : out.histograms) {
    const HistogramData* before = earlier.histogram(h.name);
    if (!before) continue;
    for (std::size_t i = 0; i < HistogramData::kBuckets; ++i)
      h.data.counts[i] = h.data.counts[i] >= before->counts[i]
                             ? h.data.counts[i] - before->counts[i]
                             : 0;
    h.data.sum = h.data.sum >= before->sum ? h.data.sum - before->sum : 0;
  }
  return out;
}

namespace {

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

template <class Seq, class Emit>
void append_json_object(std::string& out, const Seq& items, Emit&& emit) {
  out += '{';
  bool first = true;
  for (const auto& item : items) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, item.name);
    out += ':';
    emit(out, item);
  }
  out += '}';
}

/// Nonzero buckets only, as [upper_bound, count] pairs.
void append_buckets(std::string& out, const HistogramData& h) {
  out += '[';
  bool first = true;
  for (std::size_t i = 0; i < HistogramData::kBuckets; ++i) {
    if (h.counts[i] == 0) continue;
    if (!first) out += ',';
    first = false;
    out += '[' + std::to_string(HistogramData::upper_bound(i)) + ',' +
           std::to_string(h.counts[i]) + ']';
  }
  out += ']';
}

}  // namespace

std::string Snapshot::to_json() const {
  std::string out;
  out.reserve(256 + 48 * (counters.size() + gauges.size()) +
              160 * histograms.size());
  out += "{\"counters\":";
  append_json_object(out, counters, [](std::string& o, const Counter& c) {
    o += std::to_string(c.value);
  });
  out += ",\"gauges\":";
  append_json_object(out, gauges, [](std::string& o, const Gauge& g) {
    o += std::to_string(g.value);
  });
  out += ",\"histograms\":";
  append_json_object(out, histograms, [](std::string& o, const Histogram& h) {
    o += "{\"count\":" + std::to_string(h.data.count());
    o += ",\"sum\":" + std::to_string(h.data.sum);
    o += ",\"p50\":" + std::to_string(h.data.percentile(0.50));
    o += ",\"p99\":" + std::to_string(h.data.percentile(0.99));
    o += ",\"buckets\":";
    append_buckets(o, h.data);
    o += '}';
  });
  out += '}';
  return out;
}

std::string Snapshot::to_csv() const {
  std::string out = "name,kind,stat,value\n";
  for (const auto& c : counters)
    out += c.name + ",counter,value," + std::to_string(c.value) + "\n";
  for (const auto& g : gauges)
    out += g.name + ",gauge,value," + std::to_string(g.value) + "\n";
  for (const auto& h : histograms) {
    out += h.name + ",histogram,count," + std::to_string(h.data.count()) + "\n";
    out += h.name + ",histogram,sum," + std::to_string(h.data.sum) + "\n";
    out += h.name + ",histogram,p50," + std::to_string(h.data.percentile(0.5)) + "\n";
    out += h.name + ",histogram,p99," + std::to_string(h.data.percentile(0.99)) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// MetricsRegistry

namespace {
std::uint64_t next_instance_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

MetricsRegistry::MetricsRegistry(std::size_t max_cells)
    : max_cells_(max_cells), instance_id_(next_instance_id()) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Desc& MetricsRegistry::register_metric(std::string name,
                                                        Kind kind,
                                                        std::size_t n_cells) {
  std::lock_guard lock(mutex_);
  for (auto& desc : descs_) {
    if (desc.name != name) continue;
    if (desc.kind != kind)
      throw std::logic_error("metric re-registered with a different kind: " +
                             name);
    return desc;
  }
  if (kind != Kind::kGauge && cells_used_ + n_cells > max_cells_)
    throw std::length_error("MetricsRegistry cell budget exhausted at " + name);
  Desc& desc = descs_.emplace_back();
  desc.name = std::move(name);
  desc.kind = kind;
  if (kind == Kind::kGauge) {
    desc.gauge_cell = &gauges_.emplace_back();
  } else {
    desc.cell_base = static_cast<std::uint32_t>(cells_used_);
    cells_used_ += n_cells;
  }
  return desc;
}

MetricsRegistry::Counter MetricsRegistry::counter(std::string name) {
  const Desc& desc = register_metric(std::move(name), Kind::kCounter, 1);
  return Counter(this, desc.cell_base);
}

MetricsRegistry::Gauge MetricsRegistry::gauge(std::string name) {
  const Desc& desc = register_metric(std::move(name), Kind::kGauge, 0);
  return Gauge(desc.gauge_cell);
}

MetricsRegistry::Histogram MetricsRegistry::histogram(std::string name) {
  // Cells: one count per bucket, then the sum.
  const Desc& desc = register_metric(std::move(name), Kind::kHistogram,
                                     HistogramData::kBuckets + 1);
  return Histogram(this, desc.cell_base);
}

MetricsRegistry::Shard& MetricsRegistry::local_shard() {
  // One shard per (thread, registry).  The single-entry TLS cache covers
  // the common case of one live registry; a miss falls back to the map.
  thread_local struct {
    std::uint64_t instance = 0;
    Shard* shard = nullptr;
  } cache;
  if (cache.instance == instance_id_) return *cache.shard;

  std::lock_guard lock(mutex_);
  auto& slot = shards_[std::this_thread::get_id()];
  if (!slot) slot = std::make_unique<Shard>(max_cells_);
  cache = {instance_id_, slot.get()};
  return *slot;
}

void MetricsRegistry::bump(std::uint32_t cell, std::uint64_t delta) noexcept {
  if (!enabled()) return;
  local_shard().cells[cell].fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::observe(std::uint32_t cell_base,
                              std::uint64_t value) noexcept {
  if (!enabled()) return;
  Shard& shard = local_shard();
  shard.cells[cell_base + HistogramData::bucket_of(value)].fetch_add(
      1, std::memory_order_relaxed);
  shard.cells[cell_base + HistogramData::kBuckets].fetch_add(
      value, std::memory_order_relaxed);
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  std::lock_guard lock(mutex_);
  auto cell_sum = [&](std::uint32_t cell) {
    std::uint64_t total = 0;
    for (const auto& [tid, shard] : shards_)
      total += shard->cells[cell].load(std::memory_order_relaxed);
    return total;
  };
  for (const auto& desc : descs_) {
    switch (desc.kind) {
      case Kind::kCounter:
        out.counters.push_back({desc.name, cell_sum(desc.cell_base)});
        break;
      case Kind::kGauge:
        out.gauges.push_back(
            {desc.name, desc.gauge_cell->load(std::memory_order_relaxed)});
        break;
      case Kind::kHistogram: {
        Snapshot::Histogram hist;
        hist.name = desc.name;
        for (std::size_t i = 0; i < HistogramData::kBuckets; ++i)
          hist.data.counts[i] =
              cell_sum(desc.cell_base + static_cast<std::uint32_t>(i));
        hist.data.sum =
            cell_sum(desc.cell_base + HistogramData::kBuckets);
        out.histograms.push_back(std::move(hist));
        break;
      }
    }
  }
  return out;
}

}  // namespace acn::obs
