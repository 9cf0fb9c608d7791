// Outside-in probes for the store benchmark.
//
// Everything here wraps a public seam of the system without changing it:
//   * TimedSubmitter — a harness::Submitter decorator around a prebuilt
//     shard::Client.  It takes the exact latency of every transaction
//     (first attempt to commit), counts failures, and in traced runs the
//     thread CPU, ExecStats and coordinator deltas of each transaction.
//   * timed_handle — what re-registered sim replica handlers call: times
//     dtm::Server::handle per request kind.  Sim handlers run inline on
//     the calling client thread, so a thread-local "open transaction"
//     attributes each call to the transaction that caused it.
//   * SinkProbe — a dtm::DurabilitySink forwarding to a replica's WAL
//     backend and timing each call (the group-commit flush, which runs
//     inline in an append, shows up here).
// Spans (tx → dtm.server.<kind> → wal.<op>) are kept per thread in memory
// and written as Chrome-trace JSON when the benchmark ends.
#pragma once

#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "src/acn/executor.hpp"
#include "src/dtm/abort.hpp"
#include "src/dtm/durability.hpp"
#include "src/dtm/server.hpp"
#include "src/harness/driver.hpp"
#include "src/shard/client.hpp"

namespace perfbench {

inline std::uint64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline std::uint64_t cpu_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0;
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

inline std::uint64_t thread_cpu_ns() { return cpu_ns(CLOCK_THREAD_CPUTIME_ID); }

/// dtm::Request alternatives a replica answers, in variant order.  The
/// last alternative, DecisionQuery, goes to a client node and only during
/// in-doubt resolution, which no workload triggers; it is not timed.
inline constexpr std::array<const char*, 7> kRequestKinds = {
    "read",  "validate",   "prepare",     "commit",
    "abort", "contention", "batched_read"};
/// Timed DurabilitySink calls.
enum WalOp { kWalPrepare, kWalCommit, kWalAbort, kWalSnapshot, kWalOps };
inline constexpr std::array<const char*, kWalOps> kWalOpNames = {
    "log_prepare", "log_commit", "log_abort", "snapshot"};

/// Span names: 0 = tx, then one per request kind, then one per WAL op.
inline std::string span_name(std::uint16_t id) {
  if (id == 0) return "tx";
  if (id <= kRequestKinds.size())
    return std::string("dtm.server.") + kRequestKinds[id - 1];
  return std::string("wal.") + kWalOpNames[id - 1 - kRequestKinds.size()];
}

struct Span {
  static constexpr std::uint32_t kNoParent = UINT32_MAX;
  std::uint64_t tx = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
  std::uint32_t parent = kNoParent;  // index in the same thread's log
  std::uint16_t name = 0;
  bool cross = false;
};

struct CallStat {
  std::uint64_t calls = 0;
  std::uint64_t ns = 0;
  std::uint64_t max_ns = 0;

  void add(std::uint64_t d) {
    ++calls;
    ns += d;
    max_ns = std::max(max_ns, d);
  }
  void merge(const CallStat& o) {
    calls += o.calls;
    ns += o.ns;
    max_ns = std::max(max_ns, o.max_ns);
  }
};

/// One committed transaction: its latency (first attempt to commit), the
/// sub-window it ended in, and whether it committed through 2PC.
struct Sample {
  std::uint64_t lat_ns = 0;
  std::uint32_t sub = 0;
  bool cross = false;
};

/// Where a transaction's layer time is gathered while it runs; folded into
/// its thread's totals only if the transaction ends inside the window.
struct TxScratch {
  std::uint64_t id = 0;
  bool record_spans = false;
  std::uint32_t tx_slot = Span::kNoParent;
  std::uint32_t open_handler = Span::kNoParent;
  std::uint64_t handler_wall_ns = 0;
  std::uint64_t handler_cpu_ns = 0;
  std::array<CallStat, kRequestKinds.size()> kinds{};
  std::array<CallStat, kWalOps> wal{};
};

/// One client thread's results.  Written only by its own thread while the
/// run is live; read by the main thread after the driver joined it.
struct ThreadRec {
  // Exact latency of each transaction committed inside the window.
  std::vector<Sample> samples;
  std::uint64_t attempted = 0;  // ended inside the window
  std::uint64_t failed = 0;     // ... by exhausting its retries
  std::uint64_t committed = 0;  // ... committed
  std::uint64_t commits_total = 0;  // whole run, warm-up included

  // Traced runs only, summed over transactions ending inside the window.
  std::uint64_t wall_ns = 0;
  std::uint64_t cpu_ns = 0;
  std::uint64_t handler_wall_ns = 0;
  std::uint64_t handler_cpu_ns = 0;
  acn::ExecStats exec;
  std::array<CallStat, kRequestKinds.size()> kinds{};
  std::array<CallStat, kWalOps> wal{};
  std::vector<Span> spans;
};

/// The transaction open on this thread (traced runs), and the record its
/// spans go to.
inline thread_local TxScratch* tl_tx = nullptr;
inline thread_local ThreadRec* tl_rec = nullptr;

/// Fixed measurement window in CLOCK_MONOTONIC nanoseconds, split into
/// `subs` equal sub-windows.
struct Window {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t subs = 1;
  bool contains(std::uint64_t t) const {
    return t >= begin_ns && t < end_ns;
  }
  std::uint32_t sub_of(std::uint64_t t) const {
    return static_cast<std::uint32_t>((t - begin_ns) * subs /
                                      (end_ns - begin_ns));
  }
};

/// Runs `action` once, on the thread whose commit is the `at`-th of the run
/// (warm-up included): a point reached after a fixed amount of work,
/// whatever the throughput.
struct CommitMark {
  std::uint64_t at = 0;
  std::function<void()> action;
  std::atomic<std::uint64_t> commits{0};

  void on_commit() {
    if (commits.fetch_add(1, std::memory_order_relaxed) + 1 == at) action();
  }
};

/// Spans kept per client thread for the Chrome trace.
inline constexpr std::size_t kSpanCapPerThread = 25'000;

inline void accumulate(acn::ExecStats& into, const acn::ExecStats& after,
                       const acn::ExecStats& before) {
  into.commits += after.commits - before.commits;
  into.full_aborts += after.full_aborts - before.full_aborts;
  into.partial_aborts += after.partial_aborts - before.partial_aborts;
  into.ops_executed += after.ops_executed - before.ops_executed;
  into.blocks_executed += after.blocks_executed - before.blocks_executed;
}

class TimedSubmitter final : public acn::harness::Submitter {
 public:
  TimedSubmitter(acn::shard::Client& client, ThreadRec& rec,
                 const Window& window, CommitMark& mark, bool traced,
                 std::uint64_t thread)
      : client_(client),
        rec_(rec),
        window_(window),
        mark_(mark),
        traced_(traced),
        id_base_(thread << 40) {}

  void run(acn::harness::Protocol protocol, const acn::RunOptions& options,
           const std::vector<acn::ir::Record>& params,
           acn::ExecStats& stats) override {
    if (traced_) return run_traced(protocol, options, params, stats);
    const std::uint64_t start = now_ns();
    const bool ok = attempt(protocol, options, params, stats);
    record(start, now_ns(), ok, false);
  }

 private:
  bool attempt(acn::harness::Protocol protocol, const acn::RunOptions& options,
               const std::vector<acn::ir::Record>& params,
               acn::ExecStats& stats) {
    // Exhausted retries are a failed operation, not a failed run; any
    // other exception propagates and fails the run.
    try {
      client_.run(protocol, options, params, stats);
      ++rec_.commits_total;
      mark_.on_commit();
      return true;
    } catch (const acn::dtm::TxAbort&) {
      return false;
    }
  }

  void record(std::uint64_t start, std::uint64_t end, bool ok, bool cross) {
    if (!window_.contains(end)) return;
    ++rec_.attempted;
    if (!ok) {
      ++rec_.failed;
      return;
    }
    ++rec_.committed;
    rec_.samples.push_back({end - start, window_.sub_of(end), cross});
  }

  void run_traced(acn::harness::Protocol protocol,
                  const acn::RunOptions& options,
                  const std::vector<acn::ir::Record>& params,
                  acn::ExecStats& stats) {
    TxScratch tx;
    tx.id = id_base_ | ++seq_;
    const acn::ExecStats exec_before = stats;
    const std::uint64_t cross_before =
        client_.coordinator_stats().cross_shard_commits.load(
            std::memory_order_relaxed);
    const std::uint64_t start = now_ns();
    tx.record_spans =
        window_.contains(start) && rec_.spans.size() < kSpanCapPerThread;
    if (tx.record_spans) {
      tx.tx_slot = static_cast<std::uint32_t>(rec_.spans.size());
      rec_.spans.emplace_back();
    }
    const std::uint64_t cpu0 = thread_cpu_ns();
    tl_rec = &rec_;
    tl_tx = &tx;
    bool ok = false;
    try {
      ok = attempt(protocol, options, params, stats);
    } catch (...) {
      tl_tx = nullptr;
      throw;
    }
    tl_tx = nullptr;
    const std::uint64_t cpu1 = thread_cpu_ns();
    const std::uint64_t end = now_ns();
    const bool cross = client_.coordinator_stats().cross_shard_commits.load(
                           std::memory_order_relaxed) != cross_before;
    if (tx.tx_slot != Span::kNoParent) {
      Span& span = rec_.spans[tx.tx_slot];
      span.tx = tx.id;
      span.start_ns = start;
      span.dur_ns = end - start;
      span.cross = cross;
    }
    record(start, end, ok, cross);
    if (!window_.contains(end)) return;
    rec_.wall_ns += end - start;
    rec_.cpu_ns += cpu1 - cpu0;
    rec_.handler_wall_ns += tx.handler_wall_ns;
    rec_.handler_cpu_ns += tx.handler_cpu_ns;
    accumulate(rec_.exec, stats, exec_before);
    for (std::size_t k = 0; k < tx.kinds.size(); ++k)
      rec_.kinds[k].merge(tx.kinds[k]);
    for (std::size_t k = 0; k < tx.wal.size(); ++k)
      rec_.wal[k].merge(tx.wal[k]);
  }

  acn::shard::Client& client_;
  ThreadRec& rec_;
  const Window& window_;
  CommitMark& mark_;
  const bool traced_;
  const std::uint64_t id_base_;
  std::uint64_t seq_ = 0;
};

/// Records one timed call into the open transaction (if any) and, when the
/// transaction keeps spans, into its thread's log.
class SpanScope {
 public:
  SpanScope(ThreadRec* rec, std::uint16_t name, std::uint32_t parent)
      : tx_(tl_tx), rec_(rec) {
    if (tx_ == nullptr) return;
    if (tx_->record_spans && rec_ != nullptr) {
      slot_ = static_cast<std::uint32_t>(rec_->spans.size());
      Span& span = rec_->spans.emplace_back();
      span.tx = tx_->id;
      span.parent = parent;
      span.name = name;
    }
    start_ = now_ns();
  }
  bool active() const { return tx_ != nullptr; }
  TxScratch* tx() const { return tx_; }
  std::uint32_t slot() const { return slot_; }
  /// Close the span; returns its duration.
  std::uint64_t close() {
    const std::uint64_t end = now_ns();
    if (slot_ != Span::kNoParent) {
      Span& span = rec_->spans[slot_];
      span.start_ns = start_;
      span.dur_ns = end - start_;
    }
    return end - start_;
  }

 private:
  TxScratch* tx_;
  ThreadRec* rec_;
  std::uint32_t slot_ = Span::kNoParent;
  std::uint64_t start_ = 0;
};

/// Times dtm::Server::handle for one sim replica.
inline acn::dtm::Response timed_handle(acn::dtm::Server& server,
                                       acn::net::NodeId from,
                                       const acn::dtm::Request& request) {
  const std::size_t kind = request.payload.index();
  if (tl_tx == nullptr || kind >= kRequestKinds.size())
    return server.handle(from, request);
  SpanScope scope(tl_rec, static_cast<std::uint16_t>(1 + kind),
                  tl_tx->tx_slot);
  // WAL spans opened inside this call find their parent through
  // open_handler.
  TxScratch& tx = *scope.tx();
  const std::uint32_t outer = tx.open_handler;
  tx.open_handler = scope.slot();
  const std::uint64_t cpu0 = thread_cpu_ns();
  acn::dtm::Response response = server.handle(from, request);
  const std::uint64_t cpu1 = thread_cpu_ns();
  const std::uint64_t wall = scope.close();
  tx.open_handler = outer;
  tx.handler_wall_ns += wall;
  tx.handler_cpu_ns += cpu1 - cpu0;
  tx.kinds[kind].add(wall);
  return response;
}

/// DurabilitySink decorator over one replica's WAL backend.
class SinkProbe final : public acn::dtm::DurabilitySink {
 public:
  explicit SinkProbe(acn::dtm::DurabilitySink& inner) : inner_(inner) {}

  void log_prepare(const acn::dtm::PrepareRequest& prepare) override {
    Timed t(kWalPrepare);
    inner_.log_prepare(prepare);
  }
  bool log_commit(const acn::dtm::CommitRequest& commit) override {
    Timed t(kWalCommit);
    return inner_.log_commit(commit);
  }
  void log_abort(acn::dtm::TxId tx,
                 const std::vector<acn::dtm::ObjectKey>& keys) override {
    Timed t(kWalAbort);
    inner_.log_abort(tx, keys);
  }
  void write_snapshot(
      const std::function<acn::dtm::SnapshotData()>& provide) override {
    snapshots.fetch_add(1, std::memory_order_relaxed);
    Timed t(kWalSnapshot);
    inner_.write_snapshot(provide);
  }

  /// Snapshots written through this sink (any thread, any time).
  std::atomic<std::uint64_t> snapshots{0};

 private:
  class Timed {
   public:
    explicit Timed(WalOp op)
        : op_(op),
          scope_(tl_rec,
                 static_cast<std::uint16_t>(1 + kRequestKinds.size() + op),
                 tl_tx != nullptr ? tl_tx->open_handler : Span::kNoParent) {}
    ~Timed() {
      if (!scope_.active()) return;
      scope_.tx()->wal[op_].add(scope_.close());
    }
    Timed(const Timed&) = delete;
    Timed& operator=(const Timed&) = delete;

   private:
    WalOp op_;
    SpanScope scope_;
  };

  acn::dtm::DurabilitySink& inner_;
};

/// Chrome-trace JSON of every thread's spans, with each span's self time
/// (duration minus its children's) in its args.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<ThreadRec*>& threads,
                               std::uint64_t origin_ns) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
  bool first = true;
  for (std::size_t t = 0; t < threads.size(); ++t) {
    const std::vector<Span>& spans = threads[t]->spans;
    std::vector<std::uint64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans)
      if (s.parent != Span::kNoParent) child_ns[s.parent] += s.dur_ns;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.dur_ns == 0 && s.start_ns == 0) continue;  // never closed
      std::fprintf(
          out,
          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%zu,"
          "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"tx\":%llu,\"parent\":%lld,"
          "\"self_us\":%.3f%s}}",
          first ? "" : ",", span_name(s.name).c_str(), t,
          static_cast<double>(s.start_ns - origin_ns) / 1e3,
          static_cast<double>(s.dur_ns) / 1e3,
          static_cast<unsigned long long>(s.tx),
          s.parent == Span::kNoParent ? -1LL
                                      : static_cast<long long>(s.parent),
          static_cast<double>(s.dur_ns - std::min(s.dur_ns, child_ns[i])) /
              1e3,
          s.name == 0 ? (s.cross ? ",\"class\":\"cross\""
                                 : ",\"class\":\"fast\"")
                      : "");
      first = false;
    }
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
