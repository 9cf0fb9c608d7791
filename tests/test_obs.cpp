// Observability subsystem tests: histogram bucket math, per-thread shard
// merging, snapshot deltas, JSON well-formedness, the tracer under a
// multi-threaded hammer, and the end-to-end abort-reason counters the
// paper's Figure 4 discussion leans on (partial aborts under closed
// nesting, none under flat).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/harness/driver.hpp"
#include "src/obs/obs.hpp"
#include "src/workloads/bank.hpp"

namespace acn::obs {
namespace {

// ---------------------------------------------------------------------------
// A minimal JSON syntax checker (no external deps): validates that `text`
// is one complete JSON value.  Good enough to catch unbalanced braces,
// unescaped quotes, and trailing commas in our exporters.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == text_.size();
  }

 private:
  bool value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string();
      case 't':
        return literal("true");
      case 'f':
        return literal("false");
      case 'n':
        return literal("null");
      default:
        return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\\') {
        pos_ += 2;
        continue;
      }
      if (c == '"') {
        ++pos_;
        return true;
      }
      ++pos_;
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) != 0) return false;
    pos_ += n;
    return true;
  }
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& text) { return JsonChecker(text).valid(); }

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t at = haystack.find(needle); at != std::string::npos;
       at = haystack.find(needle, at + needle.size()))
    ++n;
  return n;
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Metrics, CounterAccumulates) {
  MetricsRegistry registry;
  auto c = registry.counter("tx.commit");
  c.add();
  c.add(41);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("tx.commit"), 42u);
  EXPECT_EQ(snap.counter("missing"), 0u);
}

TEST(Metrics, SameNameSameCell) {
  MetricsRegistry registry;
  auto a = registry.counter("dup");
  auto b = registry.counter("dup");
  a.add(1);
  b.add(2);
  EXPECT_EQ(registry.snapshot().counter("dup"), 3u);
}

TEST(Metrics, KindMismatchThrows) {
  MetricsRegistry registry;
  registry.counter("x");
  EXPECT_THROW(registry.gauge("x"), std::logic_error);
  EXPECT_THROW(registry.histogram("x"), std::logic_error);
}

TEST(Metrics, GaugeSetAndAdd) {
  MetricsRegistry registry;
  auto g = registry.gauge("plan.blocks");
  g.set(7);
  EXPECT_EQ(registry.snapshot().gauge("plan.blocks"), 7);
  g.add(-3);
  EXPECT_EQ(registry.snapshot().gauge("plan.blocks"), 4);
}

TEST(Metrics, HistogramBucketMath) {
  // 0..15 exact, then 8 sub-buckets per power of two.
  EXPECT_EQ(HistogramData::bucket_of(0), 0u);
  EXPECT_EQ(HistogramData::bucket_of(15), 15u);
  EXPECT_EQ(HistogramData::bucket_of(16), 16u);
  EXPECT_EQ(HistogramData::bucket_of(17), 16u);
  EXPECT_EQ(HistogramData::bucket_of(18), 17u);
  EXPECT_EQ(HistogramData::bucket_of(31), 23u);
  EXPECT_EQ(HistogramData::bucket_of(32), 24u);
  EXPECT_EQ(HistogramData::bucket_of(~std::uint64_t{0}),
            HistogramData::kBuckets - 1);
  EXPECT_EQ(HistogramData::upper_bound(15), 15u);
  EXPECT_EQ(HistogramData::upper_bound(16), 17u);
  EXPECT_EQ(HistogramData::upper_bound(HistogramData::kBuckets - 1),
            ~std::uint64_t{0});
  // The buckets tile uint64 with no gap or overlap.
  for (std::size_t i = 0; i < HistogramData::kBuckets; ++i) {
    const std::uint64_t top = HistogramData::upper_bound(i);
    EXPECT_EQ(HistogramData::bucket_of(top), i);
    if (i + 1 < HistogramData::kBuckets) {
      EXPECT_EQ(HistogramData::bucket_of(top + 1), i + 1);
    }
  }

  MetricsRegistry registry;
  auto h = registry.histogram("lat");
  h.observe(10);
  h.observe(11);
  h.observe(1000);
  h.observe(5000);
  const auto snap = registry.snapshot();
  const HistogramData* data = snap.histogram("lat");
  ASSERT_NE(data, nullptr);
  for (const std::uint64_t v : {10u, 11u, 1000u, 5000u})
    EXPECT_EQ(data->counts[HistogramData::bucket_of(v)], 1u) << v;
  EXPECT_EQ(data->count(), 4u);
  EXPECT_EQ(data->sum, 10u + 11u + 1000u + 5000u);
  EXPECT_DOUBLE_EQ(data->mean(), (10.0 + 11 + 1000 + 5000) / 4.0);
}

TEST(Metrics, HistogramPercentiles) {
  MetricsRegistry registry;
  auto h = registry.histogram("p");
  for (int i = 0; i < 90; ++i) h.observe(5);  // exact bucket
  for (int i = 0; i < 9; ++i) h.observe(50);  // bucket [48, 51]
  h.observe(999);                             // bucket [960, 1023]
  const auto snap = registry.snapshot();
  const HistogramData* data = snap.histogram("p");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->percentile(0.0), 5u);
  EXPECT_EQ(data->percentile(0.5), 5u);
  EXPECT_EQ(data->percentile(0.95), 51u);
  EXPECT_EQ(data->percentile(1.0), 1023u);
}

TEST(Metrics, HistogramSeparatesValuesWithinOneOctave) {
  // True p50s of 1.1 ms and 1.5 ms share the power of two [2^20, 2^21):
  // a power-of-two histogram reports 2097152 for both.
  auto spread_around = [](std::uint64_t median_ns) {
    HistogramData h;
    for (std::uint64_t i = 0; i <= 1000; ++i)
      h.add(median_ns / 2 + median_ns * i / 1000);
    return h;
  };
  const HistogramData fast = spread_around(1'100'000);
  const HistogramData slow = spread_around(1'500'000);
  EXPECT_NE(fast.percentile(0.5), slow.percentile(0.5));
  EXPECT_GE(fast.percentile(0.5), 1'100'000u);
  EXPECT_LT(fast.percentile(0.5), 1'237'500u);  // 1.125 x 1.1 ms
  EXPECT_GE(slow.percentile(0.5), 1'500'000u);
  EXPECT_LT(slow.percentile(0.5), 1'687'500u);  // 1.125 x 1.5 ms
}

TEST(Metrics, HistogramPercentileWithinEighthOfTrueQuantile) {
  // Property: over values 1..2^50, percentile(q) is at least the true
  // (nearest-rank) quantile and less than 1.125x it.
  std::mt19937_64 rng(2015);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng() % 300;
    std::vector<std::uint64_t> values(n);
    HistogramData h;
    for (auto& v : values) {
      // Log-uniform: a random bit width, then a random value of that width.
      const int width = 1 + static_cast<int>(rng() % 50);
      v = (std::uint64_t{1} << (width - 1)) |
          (rng() & ((std::uint64_t{1} << (width - 1)) - 1));
      h.add(v);
    }
    std::sort(values.begin(), values.end());
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      const auto rank = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
      const std::uint64_t truth = values[rank - 1];
      const std::uint64_t reported = h.percentile(q);
      EXPECT_GE(reported, truth) << "q=" << q << " n=" << n;
      EXPECT_LT(8 * reported, 9 * truth) << "q=" << q << " n=" << n;
    }
  }
}

TEST(Metrics, HistogramMergeEqualsSequentialAdds) {
  HistogramData all, even, odd;
  for (std::uint64_t v = 0; v < 5000; v += 7) {
    all.add(v);
    (v % 2 ? odd : even).add(v);
  }
  even.merge(odd);
  EXPECT_EQ(even.counts, all.counts);
  EXPECT_EQ(even.sum, all.sum);
}

TEST(Metrics, EmptyHistogramPercentileIsZero) {
  HistogramData data;
  EXPECT_EQ(data.percentile(0.5), 0u);
  EXPECT_DOUBLE_EQ(data.mean(), 0.0);
}

TEST(Metrics, ShardsMergeAcrossThreads) {
  MetricsRegistry registry;
  auto c = registry.counter("hits");
  auto h = registry.histogram("vals");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add();
        h.observe(static_cast<std::uint64_t>(i % 2 ? 5 : 50));
      }
    });
  for (auto& thread : threads) thread.join();
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.counter("hits"),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  const HistogramData* data = snap.histogram("vals");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(data->counts[HistogramData::bucket_of(5)],
            data->counts[HistogramData::bucket_of(50)]);
}

TEST(Metrics, DisabledRegistryRecordsNothing) {
  MetricsRegistry registry;
  auto c = registry.counter("c");
  registry.set_enabled(false);
  c.add(100);
  EXPECT_EQ(registry.snapshot().counter("c"), 0u);
  registry.set_enabled(true);
  c.add(1);
  EXPECT_EQ(registry.snapshot().counter("c"), 1u);
}

TEST(Metrics, DefaultConstructedHandlesAreNoops) {
  MetricsRegistry::Counter c;
  MetricsRegistry::Gauge g;
  MetricsRegistry::Histogram h;
  c.add();      // must not crash
  g.set(1);
  h.observe(1);
}

TEST(Metrics, TlsCacheSurvivesRegistryRecreation) {
  // Same thread, registry destroyed and a new one created (possibly at the
  // same address): the thread-local shard cache must not serve stale state.
  {
    MetricsRegistry first;
    first.counter("n").add(5);
    EXPECT_EQ(first.snapshot().counter("n"), 5u);
  }
  MetricsRegistry second;
  auto c = second.counter("n");
  c.add(1);
  EXPECT_EQ(second.snapshot().counter("n"), 1u);
}

TEST(Metrics, SnapshotSinceSubtracts) {
  MetricsRegistry registry;
  auto c = registry.counter("c");
  auto h = registry.histogram("h");
  c.add(10);
  h.observe(5);
  const auto before = registry.snapshot();
  c.add(7);
  h.observe(5);
  h.observe(50);
  const auto delta = registry.snapshot().since(before);
  EXPECT_EQ(delta.counter("c"), 7u);
  const HistogramData* data = delta.histogram("h");
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->count(), 2u);
  EXPECT_EQ(data->counts[HistogramData::bucket_of(5)], 1u);
  EXPECT_EQ(data->counts[HistogramData::bucket_of(50)], 1u);
  EXPECT_EQ(data->sum, 55u);
}

TEST(Metrics, SnapshotJsonAndCsvWellFormed) {
  MetricsRegistry registry;
  registry.counter("tx.commit").add(3);
  registry.gauge("plan.blocks").set(2);
  auto h = registry.histogram("lat");
  h.observe(5);
  h.observe(500);
  const auto snap = registry.snapshot();
  const std::string json = snap.to_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"tx.commit\""), std::string::npos);
  // Only nonzero buckets, as [upper_bound, count]: 500 lands in [480, 511].
  EXPECT_NE(json.find("\"buckets\":[[5,1],[511,1]]"), std::string::npos)
      << json;
  const std::string csv = snap.to_csv();
  EXPECT_NE(csv.find("name,kind,stat,value"), std::string::npos);
  EXPECT_NE(csv.find("tx.commit,counter,value,3"), std::string::npos);
}

TEST(Metrics, CellBudgetExhaustionThrows) {
  MetricsRegistry registry(/*max_cells=*/4);
  registry.counter("a");
  registry.counter("b");
  registry.counter("c");
  registry.counter("d");
  EXPECT_THROW(registry.counter("e"), std::length_error);
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Trace, SpanBalancesBeginEnd) {
  Tracer tracer;
  {
    Tracer::Span span(&tracer, "tx", "tx", 1, "attempt", 0);
    tracer.instant("abort.partial", "abort", 1);
  }
  const auto threads = tracer.events();
  ASSERT_EQ(threads.size(), 1u);
  const auto& events = threads[0].events;
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kEnd);
}

TEST(Trace, DisabledTracerRecordsNothing) {
  Tracer tracer;
  tracer.set_enabled(false);
  tracer.instant("x", "y");
  { Tracer::Span span(&tracer, "tx", "tx"); }
  EXPECT_TRUE(tracer.events().empty());
  EXPECT_TRUE(json_valid(tracer.chrome_json()));
}

TEST(Trace, RestartEndsCurrentSpanBeforeNewBegin) {
  // The loop re-arm pattern: end must precede the next begin so B/E stay
  // strictly nested per thread.
  Tracer tracer;
  {
    Tracer::Span span;
    span.restart(&tracer, "a", "c");
    span.restart(&tracer, "b", "c");
  }
  const auto threads = tracer.events();
  ASSERT_EQ(threads.size(), 1u);
  const auto& events = threads[0].events;
  ASSERT_EQ(events.size(), 4u);
  EXPECT_STREQ(events[0].name, "a");
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kBegin);
  EXPECT_STREQ(events[1].name, "a");
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kEnd);
  EXPECT_STREQ(events[2].name, "b");
  EXPECT_EQ(events[2].phase, TraceEvent::Phase::kBegin);
  EXPECT_STREQ(events[3].name, "b");
  EXPECT_EQ(events[3].phase, TraceEvent::Phase::kEnd);
}

TEST(Trace, FinishIsIdempotent) {
  Tracer tracer;
  Tracer::Span span(&tracer, "a", "c");
  span.finish();
  span.finish();  // second call must be a no-op
  const auto threads = tracer.events();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].events.size(), 2u);
}

TEST(Trace, MultiThreadHammerMonotonePerThread) {
  Tracer tracer;
  constexpr int kThreads = 6;
  constexpr int kSpans = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      tracer.set_thread_name("hammer-" + std::to_string(t));
      for (int i = 0; i < kSpans; ++i) {
        Tracer::Span span(&tracer, "tx", "tx", static_cast<std::uint64_t>(i));
        tracer.instant("block", "block", static_cast<std::uint64_t>(i),
                       "position", i % 4);
      }
    });
  for (auto& thread : threads) thread.join();

  const auto per_thread = tracer.events();
  ASSERT_EQ(per_thread.size(), static_cast<std::size_t>(kThreads));
  for (const auto& te : per_thread) {
    ASSERT_FALSE(te.events.empty());
    std::uint64_t last_ts = 0;
    int depth = 0;
    for (const auto& event : te.events) {
      EXPECT_GE(event.ts_ns, last_ts) << "timestamps regress in tid "
                                      << te.tid;
      last_ts = event.ts_ns;
      if (event.phase == TraceEvent::Phase::kBegin) ++depth;
      if (event.phase == TraceEvent::Phase::kEnd) --depth;
      EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0) << "unbalanced spans in tid " << te.tid;
  }

  const std::string json = tracer.chrome_json();
  ASSERT_TRUE(json_valid(json));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Exported B/E counts must balance exactly.
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
}

TEST(Trace, RingOverflowDropsOldestButExportStaysValid) {
  Tracer tracer(/*ring_capacity=*/64);
  for (int i = 0; i < 1000; ++i)
    tracer.instant("tick", "test", static_cast<std::uint64_t>(i));
  EXPECT_GT(tracer.dropped(), 0u);
  const auto threads = tracer.events();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].events.size(), 64u);
  // Oldest retained event is the first after the drop horizon.
  EXPECT_EQ(threads[0].events.front().tx, 1000u - 64u);
  EXPECT_TRUE(json_valid(tracer.chrome_json()));
}

TEST(Trace, ProcessAndThreadMetadataExported) {
  Tracer tracer;
  tracer.set_process(3, "QR-ACN");
  tracer.set_thread_name("client-0");
  tracer.instant("tx", "tx");
  const std::string json = tracer.chrome_json();
  ASSERT_TRUE(json_valid(json));
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("QR-ACN"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("client-0"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":3"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: abort-reason counters through the driver

harness::ClusterConfig obs_cluster() {
  harness::ClusterConfig config;
  config.n_servers = 7;
  config.base_latency = std::chrono::microseconds{3};
  config.stub.retry.base = std::chrono::microseconds{5};
  return config;
}

harness::DriverConfig obs_driver(Observability* obs) {
  harness::DriverConfig config;
  config.n_clients = 4;
  config.intervals = 2;
  config.interval = std::chrono::milliseconds{150};
  config.executor.backoff_base = std::chrono::microseconds{5};
  config.obs = obs;
  return config;
}

TEST(ObsIntegration, FlatVsAcnAbortReasonCounters) {
  ObsConfig obs_config;
  obs_config.trace_enabled = true;
  Observability obs(obs_config);

  // High contention: few branches, few accounts, closed-loop clients.
  const workloads::BankConfig bank_config{.n_branches = 2, .n_accounts = 32};

  harness::Cluster flat_cluster(obs_cluster());
  workloads::Bank flat_bank(bank_config);
  flat_bank.seed(flat_cluster.servers());
  const auto flat = harness::run(flat_cluster, flat_bank,
                                 harness::Protocol::kFlat, obs_driver(&obs));

  // The paper's path: one object per quorum round.  On the driver's
  // default path a Bank transfer's keys all come from its parameters, so
  // whole-read-set prefetch fetches them in one round at the first Block
  // and staleness surfaces at prepare — neither a partial abort nor a
  // single-key rpc.read is left to count.
  harness::Cluster acn_cluster(obs_cluster());
  workloads::Bank acn_bank(bank_config);
  acn_bank.seed(acn_cluster.servers());
  harness::DriverConfig acn_driver = obs_driver(&obs);
  acn_driver.read_path = ReadPath::kSequential;
  const auto acn = harness::run(acn_cluster, acn_bank,
                                harness::Protocol::kAcn, acn_driver);

  // The default (batched, prefetching) path: reads go out as read_many
  // rounds, each timed once.
  harness::Cluster batched_cluster(obs_cluster());
  workloads::Bank batched_bank(bank_config);
  batched_bank.seed(batched_cluster.servers());
  const auto batched = harness::run(batched_cluster, batched_bank,
                                    harness::Protocol::kAcn, obs_driver(&obs));
  EXPECT_EQ(batched.metrics.counter("tx.commit"), batched.stats.commits);
  EXPECT_GT(batched.metrics.counter("rpc.read.batched"), 0u);
  const HistogramData* batched_ns =
      batched.metrics.histogram("rpc.read.batched_ns");
  ASSERT_NE(batched_ns, nullptr);
  EXPECT_EQ(batched_ns->count(), batched.metrics.counter("rpc.read.batched"));

  // Per-run deltas must agree with the executor's own stats.
  EXPECT_EQ(flat.metrics.counter("tx.commit"), flat.stats.commits);
  EXPECT_EQ(flat.metrics.counter("tx.abort.full"), flat.stats.full_aborts);
  EXPECT_EQ(flat.metrics.counter("tx.abort.partial"), 0u);
  EXPECT_EQ(flat.metrics.counter("block.executed"), 0u);

  EXPECT_EQ(acn.metrics.counter("tx.commit"), acn.stats.commits);
  EXPECT_EQ(acn.metrics.counter("tx.abort.partial"), acn.stats.partial_aborts);
  EXPECT_GT(acn.metrics.counter("block.executed"), 0u);
  EXPECT_GT(acn.metrics.counter("tx.abort.partial"), 0u)
      << "high-contention bank under QR-ACN should partially abort";

  // Reason split sums back to the totals.
  for (const auto* scope : {"full", "partial"}) {
    const std::string base = std::string("tx.abort.") + scope;
    std::uint64_t sum = 0;
    for (int r = 0; r < kReasonCount; ++r)
      sum += acn.metrics.counter(base + "." + abort_reason_name(r));
    EXPECT_EQ(sum, acn.metrics.counter(base)) << base;
  }

  // RPC instrumentation fired, and latency histograms saw every read.
  EXPECT_GT(acn.metrics.counter("rpc.read"), 0u);
  EXPECT_GT(acn.metrics.counter("rpc.commit"), 0u);
  const HistogramData* read_ns = acn.metrics.histogram("rpc.read_ns");
  ASSERT_NE(read_ns, nullptr);
  EXPECT_EQ(read_ns->count(), acn.metrics.counter("rpc.read"));

  // ACN machinery reported through obs as well.
  EXPECT_GT(acn.metrics.counter("acn.adaptations"), 0u);
  EXPECT_EQ(acn.metrics.counter("acn.adaptations"), acn.adaptations);

  // The shared trace carries tx, block, and RPC spans and valid JSON.
  const std::string json = obs.tracer.chrome_json();
  ASSERT_TRUE(json_valid(json));
  EXPECT_GT(count_occurrences(json, "\"name\":\"tx\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"name\":\"block\""), 0u);
  EXPECT_GT(count_occurrences(json, "\"name\":\"rpc.read\""), 0u);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"B\""),
            count_occurrences(json, "\"ph\":\"E\""));
}

}  // namespace
}  // namespace acn::obs
