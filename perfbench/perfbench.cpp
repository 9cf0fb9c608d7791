// The store benchmark: one binary, two named workloads, every
// transaction submitted through harness::run and shard::Client by 4
// closed-loop client threads.  See NOTES.md for why each workload exists.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out DIR
//
// --trace 0 measures the end-to-end metrics with no instrumentation beyond
// one clock read on each side of Submitter::run.  --trace 1 measures the
// same workload twice for S/2 seconds each, untraced then traced (handler
// and WAL probes, obs registry, thread CPU clocks), prints the per-layer
// table, writes a Chrome trace under DIR, and reports the per-layer
// metrics.  The last line of stdout is always the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/probes.hpp"
#include "src/harness/cluster.hpp"
#include "src/harness/driver.hpp"
#include "src/obs/obs.hpp"
#include "src/shard/client.hpp"
#include "src/transport/wire.hpp"
#include "src/workloads/bank.hpp"
#include "src/workloads/tpcc.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using acn::harness::Cluster;
using acn::harness::ClusterConfig;

constexpr std::size_t kClients = 4;
/// One batch of set-ups: at least this many, over at least this long.  An
/// untraced run sets up in two batches, before and after its load, and
/// setup_s is the median of every set-up in both: the host's speed drifts
/// over seconds, and one 50 ms burst of set-ups would sample one moment.
constexpr int kSetups = 9;
constexpr double kSetupBatchS = 1.0;
/// peak_rss_mb is read when the run's this-many-th transaction commits.
constexpr std::uint64_t kRssMarkCommits = 10'000;

// ---------------------------------------------------------------------------
// Workloads

struct Spec {
  std::string name;
  ClusterConfig cluster;
  std::function<std::unique_ptr<acn::workloads::Workload>()> make;
  /// Driver interval schedule, as the workload phase of each interval:
  /// `warm` intervals excluded, then `cycles` repeats of `cycle`.  Each
  /// cycle is one sub-window; the end-to-end metrics are medians over
  /// sub-windows, so one disturbed stretch of a run does not move them.
  std::vector<int> warm = {0};
  std::vector<int> cycle = {0};
  std::size_t cycles = 10;

  std::size_t measured_intervals() const { return cycles * cycle.size(); }
};

/// The figure benches' cluster: 10 replicas, 25 us one-way sleep latency.
ClusterConfig base_cluster() {
  ClusterConfig c;
  c.n_servers = 10;
  c.base_latency = std::chrono::microseconds{25};
  c.stub.retry.base = std::chrono::microseconds{20};
  return c;
}

Spec make_spec(const std::string& name) {
  Spec s;
  s.name = name;
  s.cluster = base_cluster();
  if (name == "bank-shift") {
    s.make = [] { return std::make_unique<acn::workloads::Bank>(); };
    // The hot class flips branches -> accounts -> branches (as fig4f),
    // three intervals per phase.  The warm-up ends accounts-hot so every
    // cycle opens on a flip.
    s.warm = {1, 1};
    s.cycle = {0, 0, 0, 1, 1, 1};
    s.cycles = 3;
  } else if (name == "tpcc-2pc-wal") {
    s.cluster.n_servers = 5;
    s.cluster.n_groups = 2;
    s.cluster.durability.mode = acn::harness::DurabilityMode::kWal;
    s.cluster.durability.flush_interval_ns = 2'000'000;
    // fsync off: see NOTES.md ("Choices made for steadiness").
    s.cluster.durability.fsync = false;
    s.make = [] {
      acn::workloads::TpccConfig t;
      t.n_warehouses = 2;
      t.w_neworder = 0.45;
      t.w_payment = 0.43;
      t.w_delivery = 0.04;
      t.w_orderstatus = 0.04;
      t.w_stocklevel = 0.04;
      t.remote_warehouse_prob = 0.10;
      return std::make_unique<acn::workloads::Tpcc>(t);
    };
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Process probes

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// ---------------------------------------------------------------------------
// Set-up: cluster, seed, checkpoint, clients and probes — all on the main
// thread before the first transaction (node registration is not safe under
// traffic; see src/net/network.hpp).

struct SetupTimes {
  double cluster_s = 0;  // cluster build
  double seed_s = 0;     // owner-scoped seeding and checkpoint
  double clients_s = 0;  // shard::Client construction
  double total_s() const { return cluster_s + seed_s + clients_s; }
};

struct Rig {
  // Declared first so they outlive the cluster that points at them.
  std::unique_ptr<acn::obs::Observability> obs;
  std::vector<std::unique_ptr<SinkProbe>> sinks;
  std::unique_ptr<acn::workloads::Workload> workload;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<acn::shard::ClientFleet> fleet;
  acn::shard::ClientStats client_stats;
  std::vector<std::unique_ptr<acn::shard::Client>> clients;
  fs::path scratch;
  /// Calls through the re-registered sim handlers (traced runs).
  std::atomic<std::uint64_t> handler_calls{0};

  SetupTimes times;

  ~Rig() {
    clients.clear();  // folds coordinator counters into client_stats
    fleet.reset();
    cluster.reset();
    std::error_code ec;
    if (!scratch.empty()) fs::remove_all(scratch, ec);
  }
};

acn::ExecutorConfig executor_config(acn::obs::Observability* obs) {
  acn::ExecutorConfig config;
  config.backoff_base = std::chrono::microseconds{20};
  config.obs = obs;
  return config;
}

std::unique_ptr<Rig> set_up(const Spec& spec, std::uint64_t seed, bool traced,
                            const fs::path& scratch) {
  auto rig = std::make_unique<Rig>();
  rig->scratch = scratch;
  ClusterConfig config = spec.cluster;
  config.durability.data_dir = (scratch / "wal").string();
  if (traced) {
    rig->obs = std::make_unique<acn::obs::Observability>();
    config.stub.obs = rig->obs.get();
  }

  const std::uint64_t t0 = now_ns();
  rig->workload = spec.make();
  rig->cluster = std::make_unique<Cluster>(config);
  Cluster& cluster = *rig->cluster;
  if (traced) {
    // Same handler cluster.cpp registers, timed; then the WAL sinks.
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      acn::dtm::Server* server = &cluster.server(i);
      std::atomic<std::uint64_t>* calls = &rig->handler_calls;
      cluster.network().register_node(
          static_cast<acn::net::NodeId>(i),
          [server, calls](acn::net::NodeId from,
                          const acn::dtm::Request& request) {
            calls->fetch_add(1, std::memory_order_relaxed);
            return timed_handle(*server, from, request);
          });
      if (acn::wal::ReplicaPersistence* wal = cluster.persistence(i)) {
        rig->sinks.push_back(std::make_unique<SinkProbe>(*wal));
        server->set_durability(rig->sinks.back().get());
      }
    }
    cluster.set_obs(rig->obs.get());
  }
  const std::uint64_t t1 = now_ns();

  rig->fleet = std::make_unique<acn::shard::ClientFleet>(
      *rig->workload, static_cast<std::uint32_t>(config.n_groups));
  rig->fleet->seed(cluster, *rig->workload);
  cluster.checkpoint_all();
  const std::uint64_t t2 = now_ns();

  // One Client per driver thread, with the ordinals and seeds the driver
  // itself would use.
  for (std::size_t t = 0; t < kClients; ++t)
    rig->clients.push_back(std::make_unique<acn::shard::Client>(
        cluster, rig->fleet->router(), rig->client_stats, static_cast<int>(t),
        executor_config(rig->obs.get()), seed ^ (t << 20)));
  const std::uint64_t t3 = now_ns();

  rig->times.cluster_s = static_cast<double>(t1 - t0) / 1e9;
  rig->times.seed_s = static_cast<double>(t2 - t1) / 1e9;
  rig->times.clients_s = static_cast<double>(t3 - t2) / 1e9;
  return rig;
}

// ---------------------------------------------------------------------------
// Window sampler: counters that have no per-transaction owner are read at
// the window's two edges by a helper thread.

struct Point {
  std::uint64_t bytes = 0, msgs = 0, snapshots = 0, escalations = 0;
  acn::obs::Snapshot obs;
};

Point sample(Rig& rig) {
  Point p;
  Cluster& cluster = *rig.cluster;
  const acn::net::TransportCounters& wire = cluster.transport().counters();
  p.bytes = wire.bytes_sent.load() + wire.bytes_recv.load();
  p.msgs = cluster.network().stats().messages();
  for (const auto& sink : rig.sinks) p.snapshots += sink->snapshots.load();
  p.escalations = rig.client_stats.escalations.load();
  if (rig.obs) p.obs = rig.obs->metrics.snapshot();
  return p;
}

class Sampler {
 public:
  Sampler(Rig& rig, const Window& window)
      : thread_([this, &rig, window] {
          if (!wait_until(window.begin_ns)) return;
          begin = sample(rig);
          if (!wait_until(window.end_ns)) return;
          end = sample(rig);
          complete = true;
        }) {}
  ~Sampler() { stop(); }
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stopped_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  Point begin, end;
  bool complete = false;

 private:
  bool wait_until(std::uint64_t t_ns) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      if (stopped_) return false;
      const std::uint64_t now = now_ns();
      if (now >= t_ns) return true;
      cv_.wait_for(lock, std::chrono::nanoseconds(t_ns - now));
    }
  }

  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopped_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

double percentile_us(const std::vector<std::uint64_t>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[std::max<std::size_t>(rank, 1) - 1]) /
         1e3;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// ---------------------------------------------------------------------------
// One measured run

struct Measurement {
  double window_s = 0;
  std::uint64_t attempted = 0, failed = 0, committed = 0;
  /// Sorted latencies: per sub-window, and over the whole window by class.
  std::vector<std::vector<std::uint64_t>> lat_sub;
  std::vector<std::uint64_t> lat_fast, lat_cross;
  std::uint64_t wall_ns = 0, cpu_ns = 0, handler_wall_ns = 0,
                handler_cpu_ns = 0;
  acn::ExecStats exec;
  std::array<CallStat, kRequestKinds.size()> kinds{};
  std::array<CallStat, kWalOps> wal{};
  Point begin, end;
  /// Peak RSS, read when the kRssMarkCommits-th transaction commits (at
  /// the end of the run if it never does).
  double rss_mib = 0;
  std::uint64_t recompositions = 0;
  std::vector<std::string> errors;  // failed correctness checks
  std::uint64_t run_origin_ns = 0;
  std::vector<std::unique_ptr<ThreadRec>> recs;

  double tps() const { return static_cast<double>(committed) / window_s; }
  double per_commit(double total) const {
    return committed == 0 ? 0.0 : total / static_cast<double>(committed);
  }
};

Measurement measure(const Spec& spec, Rig& rig, std::uint64_t seed,
                    double seconds, bool traced) {
  Measurement m;
  for (std::size_t t = 0; t < kClients; ++t)
    m.recs.push_back(std::make_unique<ThreadRec>());
  if (traced)
    for (auto& rec : m.recs) rec->spans.reserve(kSpanCapPerThread + 1024);

  const std::size_t measured = spec.measured_intervals();
  acn::harness::DriverConfig driver;
  driver.n_clients = kClients;
  driver.intervals = spec.warm.size() + measured;
  driver.interval = std::chrono::milliseconds(static_cast<std::int64_t>(
      seconds * 1e3 / static_cast<double>(measured)));
  int phase = 0;
  for (std::size_t k = 0; k < driver.intervals; ++k) {
    const std::size_t w = spec.warm.size();
    const int next =
        k < w ? spec.warm[k] : spec.cycle[(k - w) % spec.cycle.size()];
    if (next != phase) driver.phase_changes.emplace_back(k, next);
    phase = next;
  }
  driver.seed = seed;
  driver.executor = executor_config(rig.obs.get());
  driver.obs = rig.obs.get();
  driver.check_invariants = true;

  Window window;
  CommitMark mark;
  mark.at = kRssMarkCommits;
  bool marked = false;
  mark.action = [&] {
    m.rss_mib = peak_rss_mib();
    marked = true;
  };
  driver.make_submitter = [&](Cluster&, std::size_t t,
                              const acn::ExecutorConfig&, std::uint64_t) {
    return std::make_unique<TimedSubmitter>(*rig.clients.at(t), *m.recs.at(t),
                                            window, mark, traced, t);
  };

  const auto start = now_ns();
  const auto step = static_cast<std::uint64_t>(
      std::chrono::nanoseconds(driver.interval).count());
  window.begin_ns = start + spec.warm.size() * step;
  window.end_ns = window.begin_ns + measured * step;
  window.subs = static_cast<std::uint32_t>(spec.cycles);
  m.run_origin_ns = start;
  m.window_s = static_cast<double>(window.end_ns - window.begin_ns) / 1e9;
  m.lat_sub.resize(window.subs);

  const acn::workloads::Workload& workload = *rig.workload;
  const std::uint64_t msgs0 = rig.cluster->network().stats().messages();
  const std::uint64_t calls0 = rig.handler_calls.load();
  acn::harness::RunResult result;
  {
    Sampler sampler(rig, window);
    // Throws (and fails the run) on any client error other than exhausted
    // retries, or when the workload's invariants do not hold.
    result = acn::harness::run(*rig.cluster, workload,
                               acn::harness::Protocol::kAcn, driver);
    sampler.stop();
    if (!sampler.complete)
      throw std::runtime_error("run ended before its measurement window");
    m.begin = sampler.begin;
    m.end = sampler.end;
  }
  m.recompositions = result.recompositions;
  if (!marked) {
    m.rss_mib = peak_rss_mib();
    std::fprintf(stderr,
                 "perfbench: fewer than %llu commits; peak RSS read at the "
                 "end of the run\n",
                 static_cast<unsigned long long>(kRssMarkCommits));
  }

  std::uint64_t commits_total = 0;
  for (const auto& rec : m.recs) {
    m.attempted += rec->attempted;
    m.failed += rec->failed;
    m.committed += rec->committed;
    commits_total += rec->commits_total;
    for (const Sample& sample : rec->samples) {
      (sample.cross ? m.lat_cross : m.lat_fast).push_back(sample.lat_ns);
      m.lat_sub[sample.sub].push_back(sample.lat_ns);
    }
    m.wall_ns += rec->wall_ns;
    m.cpu_ns += rec->cpu_ns;
    m.handler_wall_ns += rec->handler_wall_ns;
    m.handler_cpu_ns += rec->handler_cpu_ns;
    m.exec.merge(rec->exec);
    for (std::size_t k = 0; k < m.kinds.size(); ++k)
      m.kinds[k].merge(rec->kinds[k]);
    for (std::size_t k = 0; k < m.wal.size(); ++k) m.wal[k].merge(rec->wal[k]);
  }
  for (auto& sub : m.lat_sub) std::sort(sub.begin(), sub.end());
  std::sort(m.lat_fast.begin(), m.lat_fast.end());
  std::sort(m.lat_cross.begin(), m.lat_cross.end());

  // Correctness checks beyond the invariants harness::run already ran.
  if (commits_total != result.stats.commits)
    m.errors.push_back("submitter counted " + std::to_string(commits_total) +
                       " commits, ExecStats " +
                       std::to_string(result.stats.commits));
  if (m.committed == 0) m.errors.push_back("no commit inside the window");
  if (traced) {
    // Every simulated message is a replica request or its reply, so the
    // timed handlers must have seen half of them: none bypassed the probe.
    const std::uint64_t msgs = rig.cluster->network().stats().messages() - msgs0;
    const std::uint64_t calls = rig.handler_calls.load() - calls0;
    if (msgs != 2 * calls)
      m.errors.push_back("timed handlers saw " + std::to_string(calls) +
                         " requests, the network carried " +
                         std::to_string(msgs) + " messages");
  }
  if (rig.cluster->n_groups() > 1) {
    rig.clients.clear();  // folds each coordinator's breach counter
    const std::uint64_t breaches = rig.client_stats.atomicity_breaches.load();
    if (breaches != 0)
      m.errors.push_back(std::to_string(breaches) + " atomicity breaches");
    std::uint64_t open = 0, indoubt = 0;
    for (std::size_t i = 0; i < rig.cluster->size(); ++i) {
      const acn::transport::ReplicaProbe probe = rig.cluster->probe_replica(i);
      open += probe.open_prepares;
      indoubt += probe.indoubt;
    }
    if (open != 0 || indoubt != 0)
      m.errors.push_back(std::to_string(open) + " open and " +
                         std::to_string(indoubt) + " in-doubt prepares");
  }
  return m;
}

// ---------------------------------------------------------------------------
// Reporting

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string better;  // "higher" or "lower"
  std::uint64_t samples;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_table(const std::string& title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title.c_str());
  for (const Metric& m : metrics)
    std::printf("  %-28s %16.4f %-6s %-22s n=%llu\n", m.name.c_str(), m.value,
                m.unit.c_str(),
                (m.better + " is better").c_str(),
                static_cast<unsigned long long>(m.samples));
}

std::uint64_t counter_delta(const Measurement& m, const char* name) {
  return m.end.obs.counter(name) - m.begin.obs.counter(name);
}

/// Median over sub-windows of each sub-window's q-quantile latency.
double subwindow_latency_us(const Measurement& m, double q) {
  std::vector<double> per_sub;
  for (const auto& sub : m.lat_sub) per_sub.push_back(percentile_us(sub, q));
  return median(per_sub);
}

/// The p99 commit latency: printed with the end-to-end table and reported
/// per layer, but not among the end-to-end metrics (see NOTES.md).
Metric commit_p99(const Measurement& m, const std::string& name) {
  return {name, subwindow_latency_us(m, 0.99), "us", "lower", m.committed};
}

/// acn.client_self_us + dtm.server.handle_us + acn.offcpu_us.  It exceeds
/// acn.tx_wall_us by the handlers' own off-CPU time (WAL writes, lock
/// waits, preemption inside a handler), so it is a check on the
/// attribution, printed next to acn.tx_wall_us.
Metric attribution_sum(const Measurement& m) {
  const double blocked_in_handlers =
      static_cast<double>(m.handler_wall_ns) -
      static_cast<double>(m.handler_cpu_ns);
  return {"acn.layers_sum_us (table only)",
          m.per_commit((static_cast<double>(m.wall_ns) + blocked_in_handlers) /
                       1e3),
          "us", "lower", m.committed};
}

std::vector<Metric> end_to_end(const Measurement& m,
                               const std::vector<SetupTimes>& times) {
  std::vector<double> setups;
  for (const SetupTimes& t : times) setups.push_back(t.total_s());
  const double commits = static_cast<double>(m.committed);
  const double sub_s = m.window_s / static_cast<double>(m.lat_sub.size());
  std::vector<double> tps;
  for (const auto& sub : m.lat_sub)
    tps.push_back(static_cast<double>(sub.size()) / sub_s);
  return {
      {"commit_tps", median(tps), "tx/s", "higher", m.committed},
      {"commit_p50_us", subwindow_latency_us(m, 0.50), "us", "lower",
       m.committed},
      {"wire_bytes_per_commit",
       commits == 0 ? 0 : static_cast<double>(m.end.bytes - m.begin.bytes) /
                              commits,
       "B", "lower", m.committed},
      {"setup_s", median(setups), "s", "lower", setups.size()},
      {"peak_rss_mb", m.rss_mib, "MiB", "lower", 1},
  };
}

std::vector<Metric> per_layer(const Measurement& m, const Measurement& plain,
                              const std::vector<SetupTimes>& times) {
  std::vector<Metric> out;
  const std::uint64_t c = m.committed;
  // Direction: which way is better, read against the end-to-end metric
  // each layer number feeds (see NOTES.md).
  auto add = [&](const std::string& name, double value, const char* unit,
                 std::uint64_t samples, const char* better = "lower") {
    out.push_back(
        {name, std::isfinite(value) ? value : 0.0, unit, better, samples});
  };
  auto us = [](double ns) { return ns / 1e3; };

  std::vector<double> cl, sd, ct;
  for (const SetupTimes& t : times) {
    cl.push_back(t.cluster_s);
    sd.push_back(t.seed_s);
    ct.push_back(t.clients_s);
  }
  add("harness.setup.cluster_s", median(cl), "s", times.size());
  add("harness.setup.seed_s", median(sd), "s", times.size());
  add("harness.setup.clients_s", median(ct), "s", times.size());
  out.push_back(commit_p99(plain, "harness.commit_p99_us"));
  add("harness.fail_frac",
      m.attempted == 0 ? 0
                       : static_cast<double>(m.failed) /
                             static_cast<double>(m.attempted),
      "ratio", m.attempted);

  const double tx_wall = m.per_commit(us(static_cast<double>(m.wall_ns)));
  const double tx_cpu = m.per_commit(us(static_cast<double>(m.cpu_ns)));
  const double h_wall =
      m.per_commit(us(static_cast<double>(m.handler_wall_ns)));
  const double h_cpu = m.per_commit(us(static_cast<double>(m.handler_cpu_ns)));
  add("acn.tx_wall_us", tx_wall, "us", c);
  add("acn.tx_cpu_us", tx_cpu, "us", c);
  add("acn.client_self_us", tx_cpu - h_cpu, "us", c);
  add("acn.offcpu_us", tx_wall - tx_cpu, "us", c);
  const auto& e = m.exec;
  add("acn.full_aborts", m.per_commit(static_cast<double>(e.full_aborts)),
      "count", c);
  add("acn.partial_aborts", m.per_commit(static_cast<double>(e.partial_aborts)),
      "count", c);
  const std::uint64_t rollbacks = e.full_aborts + e.partial_aborts;
  add("acn.partial_share",
      rollbacks == 0 ? 0
                     : static_cast<double>(e.partial_aborts) /
                           static_cast<double>(rollbacks),
      "ratio", rollbacks, "higher");
  add("acn.ops", m.per_commit(static_cast<double>(e.ops_executed)), "count", c);
  add("acn.blocks", m.per_commit(static_cast<double>(e.blocks_executed)),
      "count", c);
  add("acn.recompositions", static_cast<double>(m.recompositions), "count", 1);

  const std::uint64_t remote = counter_delta(m, "nesting.read.remote");
  const std::uint64_t cached = counter_delta(m, "nesting.read.cached");
  add("nesting.read_cache_hit",
      remote + cached == 0 ? 0
                           : static_cast<double>(cached) /
                                 static_cast<double>(remote + cached),
      "ratio", remote + cached, "higher");

  add("dtm.server.handle_us", h_wall, "us", c);
  for (std::size_t k = 0; k < kRequestKinds.size(); ++k) {
    const CallStat& s = m.kinds[k];
    const std::string base = std::string("dtm.server.") + kRequestKinds[k];
    add(base + ".us",
        s.calls == 0 ? 0
                     : us(static_cast<double>(s.ns)) /
                           static_cast<double>(s.calls),
        "us", s.calls);
    add(base + ".calls", m.per_commit(static_cast<double>(s.calls)), "count",
        s.calls);
  }
  std::uint64_t rpcs = 0;
  for (const char* name :
       {"rpc.read", "rpc.read.batched", "rpc.validate", "rpc.prepare",
        "rpc.commit", "rpc.abort", "rpc.contention"})
    rpcs += counter_delta(m, name);
  add("dtm.stub.rpcs", m.per_commit(static_cast<double>(rpcs)), "count", c);
  add("dtm.stub.busy_backoff_us",
      m.per_commit(us(static_cast<double>(
          counter_delta(m, "rpc.busy.backoff_ns")))),
      "us", c);
  add("net.msgs", m.per_commit(static_cast<double>(m.end.msgs - m.begin.msgs)),
      "count", c);

  add("shard.cross_frac",
      c == 0 ? 0
             : static_cast<double>(m.lat_cross.size()) / static_cast<double>(c),
      "ratio", c);
  add("shard.escalations",
      static_cast<double>(m.end.escalations - m.begin.escalations), "count", 1);
  add("shard.cross_p50_us", percentile_us(m.lat_cross, 0.5), "us",
      m.lat_cross.size());
  add("shard.fast_p50_us", percentile_us(m.lat_fast, 0.5), "us",
      m.lat_fast.size());

  double wal_ns = 0;
  std::uint64_t wal_max = 0;
  for (const CallStat& s : m.wal) {
    wal_ns += static_cast<double>(s.ns);
    wal_max = std::max(wal_max, s.max_ns);
  }
  auto mean_call_us = [&](WalOp op) {
    const CallStat& s = m.wal[op];
    return s.calls == 0 ? 0.0
                        : us(static_cast<double>(s.ns)) /
                              static_cast<double>(s.calls);
  };
  add("wal.sink_us", m.per_commit(us(wal_ns)), "us", c);
  add("wal.log_prepare.us", mean_call_us(kWalPrepare), "us",
      m.wal[kWalPrepare].calls);
  add("wal.log_commit.us", mean_call_us(kWalCommit), "us",
      m.wal[kWalCommit].calls);
  add("wal.stall_max_ms", static_cast<double>(wal_max) / 1e6, "ms", 1);
  add("wal.bytes",
      m.per_commit(static_cast<double>(counter_delta(m, "wal.append.bytes"))),
      "B", c);
  add("wal.snapshots",
      static_cast<double>(m.end.snapshots - m.begin.snapshots), "count", 1);

  add("obs.trace_overhead", plain.tps() == 0 ? 0 : 1.0 - m.tps() / plain.tps(),
      "ratio", 2);
  return out;
}

void print_result(bool correct, const Measurement& m,
                  const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(m.attempted);
  json += ", \"failed\": " + std::to_string(m.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path out = ".";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else {
      throw std::invalid_argument("unknown flag: " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

int run(const Args& args) {
  const Spec spec = make_spec(args.workload);
  const fs::path scratch_root =
      args.out / ("run-" + std::to_string(getpid()));
  fs::create_directories(scratch_root);

  // One batch of set-ups; returns the last rig.
  int next = 0;
  auto build = [&](bool traced, std::vector<SetupTimes>& times) {
    std::unique_ptr<Rig> rig;
    const std::uint64_t start = now_ns();
    for (int k = 0;
         k < kSetups || static_cast<double>(now_ns() - start) / 1e9 < kSetupBatchS;
         ++k) {
      rig.reset();
      rig = set_up(spec, args.seed, traced,
                   scratch_root / ("rig-" + std::to_string(next++)));
      times.push_back(rig->times);
    }
    return rig;
  };

  bool correct = true;
  auto report_errors = [&](const Measurement& m) {
    for (const std::string& e : m.errors) {
      std::fprintf(stderr, "correctness check failed: %s\n", e.c_str());
      correct = false;
    }
  };

  if (!args.trace) {
    std::vector<SetupTimes> times;
    auto rig = build(false, times);
    const Measurement m = measure(spec, *rig, args.seed, args.seconds, false);
    report_errors(m);
    rig.reset();
    build(false, times);  // the second batch of set-ups
    const std::vector<Metric> metrics = end_to_end(m, times);
    std::vector<Metric> table = metrics;
    table.push_back(commit_p99(m, "commit_p99_us (table only)"));
    print_table(spec.name + " (seed " + std::to_string(args.seed) +
                    ", end to end, warm-up excluded)",
                table);
    print_result(correct, m, metrics);
    fs::remove_all(scratch_root);
    return correct ? 0 : 1;
  }

  // Traced: an untraced half first (the overhead baseline), then the
  // traced half.
  const double half = args.seconds / 2;
  Measurement plain;
  {
    std::vector<SetupTimes> ignored;
    auto rig = build(false, ignored);
    plain = measure(spec, *rig, args.seed, half, false);
    report_errors(plain);
  }
  std::vector<SetupTimes> times;
  auto rig = build(true, times);
  Measurement traced = measure(spec, *rig, args.seed, half, true);
  report_errors(traced);
  rig.reset();

  const std::vector<Metric> metrics = per_layer(traced, plain, times);
  std::vector<Metric> table = metrics;
  table.push_back(attribution_sum(traced));
  print_table(spec.name + " (seed " + std::to_string(args.seed) +
                  ", traced, per committed transaction unless noted)",
              table);
  std::printf("  untraced %.1f tx/s, traced %.1f tx/s\n", plain.tps(),
              traced.tps());
  std::vector<ThreadRec*> threads;
  for (const auto& rec : traced.recs) threads.push_back(rec.get());
  // One file per workload: later traced runs overwrite it.
  const fs::path trace_path = args.out / (spec.name + ".trace.json");
  if (write_chrome_trace(trace_path.string(), threads, traced.run_origin_ns))
    std::printf("  trace written to %s\n", trace_path.c_str());
  print_result(correct, traced, metrics);
  fs::remove_all(scratch_root);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
