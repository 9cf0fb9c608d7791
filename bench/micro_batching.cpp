// Microbenchmark for the batched read pipeline: runs the same deterministic
// single-client bank transfer stream under QR-CN three ways — sequential
// reads, batched reads, batched + prefetch — and compares quorum read
// rounds.  Doubles as an end-to-end equivalence check: all three modes must
// commit the same transaction count and the same final balances, and the
// batched modes must demonstrably save rounds (nonzero exit otherwise), so
// CI can run it as a smoke test.
//
//   --txs=N --seed=N --branches=N --accounts=N
//   --metrics-json FILE   per-mode metrics snapshots as one JSON object
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/acn/executor.hpp"
#include "src/harness/cluster.hpp"
#include "src/obs/obs.hpp"
#include "src/workloads/bank.hpp"

namespace {

using namespace acn;

struct Options {
  std::size_t txs = 2000;
  std::uint64_t seed = 42;
  std::size_t branches = 16;
  std::size_t accounts = 128;
  std::string metrics_json;
};

struct ModeResult {
  std::string label;
  std::uint64_t commits = 0;
  std::uint64_t read_rounds = 0;  // single + batched quorum read rounds
  std::uint64_t rpcs_saved = 0;
  std::uint64_t prefetch_hits = 0;
  std::uint64_t prefetch_waste = 0;
  double mean_batch = 0.0;
  std::vector<store::Record> balances;  // every account + branch, in order
  obs::Snapshot metrics;                // full snapshot for --metrics-json
};

ModeResult run_mode(const Options& opt, const std::string& label,
                    ReadPath read_path) {
  harness::ClusterConfig cluster_config;
  cluster_config.n_servers = 10;
  cluster_config.base_latency = std::chrono::nanoseconds{0};
  cluster_config.stub.retry.base = std::chrono::nanoseconds{100};

  obs::Observability obs;
  harness::Cluster cluster(cluster_config);
  cluster.set_obs(&obs);
  workloads::Bank bank({.n_branches = opt.branches, .n_accounts = opt.accounts});
  bank.seed(cluster.servers());
  const auto& profile = bank.profiles()[0];

  auto stub = cluster.make_stub(0);
  ExecutorConfig exec_config;
  exec_config.backoff_base = std::chrono::nanoseconds{100};
  exec_config.obs = &obs;
  Executor executor(stub, exec_config, opt.seed);

  RunOptions options;
  options.program = profile.program.get();
  options.model = &profile.static_model;
  options.sequence = &profile.manual_sequence;
  options.read_path = read_path;

  Rng rng(opt.seed);
  ExecStats stats;
  for (std::size_t i = 0; i < opt.txs; ++i) {
    const auto params = profile.make_params(rng, /*phase=*/0);
    executor.run(Protocol::kManualCN, options, params, stats);
  }
  bank.check_invariants(cluster.servers());

  ModeResult result;
  result.label = label;
  result.commits = stats.commits;
  const auto snapshot = obs.metrics.snapshot();
  result.metrics = snapshot;
  result.read_rounds =
      snapshot.counter("rpc.read") + snapshot.counter("rpc.read.batched");
  result.rpcs_saved = snapshot.counter("rpc.read.saved");
  result.prefetch_hits = snapshot.counter("exec.prefetch.hit");
  result.prefetch_waste = snapshot.counter("exec.prefetch.waste");
  if (const auto* h = snapshot.histogram("rpc.read.batch_size"))
    result.mean_batch = h->mean();
  for (std::size_t a = 0; a < opt.accounts; ++a)
    result.balances.push_back(
        workloads::latest_value(cluster.servers(),
                                workloads::Bank::account_key(
                                    static_cast<store::Field>(a))).value);
  for (std::size_t b = 0; b < opt.branches; ++b)
    result.balances.push_back(
        workloads::latest_value(cluster.servers(),
                                workloads::Bank::branch_key(
                                    static_cast<store::Field>(b))).value);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> long {
      return std::strtol(arg.c_str() + std::strlen(prefix), nullptr, 10);
    };
    if (arg.rfind("--txs=", 0) == 0)
      opt.txs = static_cast<std::size_t>(value("--txs="));
    else if (arg.rfind("--seed=", 0) == 0)
      opt.seed = static_cast<std::uint64_t>(value("--seed="));
    else if (arg.rfind("--branches=", 0) == 0)
      opt.branches = static_cast<std::size_t>(value("--branches="));
    else if (arg.rfind("--accounts=", 0) == 0)
      opt.accounts = static_cast<std::size_t>(value("--accounts="));
    else if (arg.rfind("--metrics-json=", 0) == 0)
      opt.metrics_json = arg.substr(std::strlen("--metrics-json="));
    else if (arg == "--metrics-json" && i + 1 < argc)
      opt.metrics_json = argv[++i];
    else
      std::fprintf(stderr, "ignoring unknown arg: %s\n", arg.c_str());
  }

  try {
    const auto plain = run_mode(opt, "sequential", ReadPath::kSequential);
    const auto batched = run_mode(opt, "batched", ReadPath::kBatched);
    const auto pipelined =
        run_mode(opt, "batched+prefetch", ReadPath::kPrefetch);

    std::printf("micro_batching: %zu bank transfers, seed %llu\n", opt.txs,
                static_cast<unsigned long long>(opt.seed));
    std::printf("%-18s %10s %12s %10s %12s %9s %9s\n", "mode", "commits",
                "read_rounds", "saved", "mean_batch", "pf_hit", "pf_waste");
    for (const auto* r : {&plain, &batched, &pipelined})
      std::printf("%-18s %10llu %12llu %10llu %12.2f %9llu %9llu\n",
                  r->label.c_str(),
                  static_cast<unsigned long long>(r->commits),
                  static_cast<unsigned long long>(r->read_rounds),
                  static_cast<unsigned long long>(r->rpcs_saved),
                  r->mean_batch,
                  static_cast<unsigned long long>(r->prefetch_hits),
                  static_cast<unsigned long long>(r->prefetch_waste));

    bool ok = true;
    auto fail = [&](const char* what) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ok = false;
    };
    for (const auto* r : {&batched, &pipelined}) {
      if (r->commits != plain.commits) fail("commit counts diverge");
      if (r->balances != plain.balances) fail("final balances diverge");
      if (r->rpcs_saved == 0) fail("batched mode saved no quorum rounds");
      if (r->read_rounds >= plain.read_rounds)
        fail("batched mode used at least as many read rounds");
    }
    if (pipelined.prefetch_hits == 0)
      fail("prefetch mode adopted no speculative reads");
    if (!opt.metrics_json.empty()) {
      std::FILE* file = std::fopen(opt.metrics_json.c_str(), "w");
      if (file == nullptr) {
        fail("cannot open --metrics-json output file");
      } else {
        std::fprintf(file, "{\"sequential\":%s,\"batched\":%s,\"pipelined\":%s}\n",
                     plain.metrics.to_json().c_str(),
                     batched.metrics.to_json().c_str(),
                     pipelined.metrics.to_json().c_str());
        std::fclose(file);
        std::printf("metrics written to %s\n", opt.metrics_json.c_str());
      }
    }
    if (ok)
      std::printf("OK: identical results, %llu -> %llu read rounds "
                  "(%.1f%% fewer with prefetch)\n",
                  static_cast<unsigned long long>(plain.read_rounds),
                  static_cast<unsigned long long>(pipelined.read_rounds),
                  100.0 * (1.0 - static_cast<double>(pipelined.read_rounds) /
                                     static_cast<double>(plain.read_rounds)));
    return ok ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "micro_batching failed: %s\n", e.what());
    return 1;
  }
}
