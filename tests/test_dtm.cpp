// QR-DTM protocol tests: quorum reads with version reconciliation,
// incremental validation, two-phase commit, protection conflicts, fault
// injection and contention plumbing — at the stub/server level.
#include <gtest/gtest.h>

#include "src/harness/cluster.hpp"
#include "src/workloads/workload.hpp"

namespace acn::dtm {
namespace {

using harness::Cluster;
using harness::ClusterConfig;
using store::ObjectKey;
using store::Record;

ClusterConfig fast_config(std::size_t n_servers = 10) {
  ClusterConfig config;
  config.n_servers = n_servers;
  config.base_latency = std::chrono::nanoseconds{0};  // no sleeping in tests
  config.stub.retry.max_retries = 2;
  config.stub.retry.base = std::chrono::nanoseconds{1000};
  return config;
}

const ObjectKey kA{1, 1};
const ObjectKey kB{1, 2};

TEST(QuorumStub, ReadReturnsSeededValue) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{7});
  auto stub = cluster.make_stub(0);
  const auto out = stub.read(1, kA, {});
  EXPECT_EQ(out.record.value, Record{7});
  EXPECT_EQ(out.record.version, 1u);
}

TEST(QuorumStub, ReadPicksNewestReplica) {
  // Two-node tree; with root_read_bias=0 the read quorum is exactly the
  // leaf {1}; seed the leaf with the newer version.
  auto config = fast_config(2);
  config.root_read_bias = 0.0;
  Cluster cluster(config);
  cluster.server(0).store().seed(kA, Record{10}, 1);
  cluster.server(1).store().seed(kA, Record{50}, 5);
  auto stub = cluster.make_stub(0);
  const auto out = stub.read(1, kA, {});
  EXPECT_EQ(out.record.version, 5u);
  EXPECT_EQ(out.record.value, Record{50});
}

TEST(QuorumStub, MissingObjectThrows) {
  Cluster cluster(fast_config());
  auto stub = cluster.make_stub(0);
  EXPECT_THROW(stub.read(1, ObjectKey{9, 9}, {}), ObjectMissing);
}

TEST(QuorumStub, CommitInstallsNewVersionVisibleToOthers) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{7});
  auto writer = cluster.make_stub(0);
  auto reader = cluster.make_stub(1);

  const auto before = writer.read(1, kA, {});
  const auto ticket = writer.prepare(1, {{kA, before.record.version}}, {kA},
                                     {before.record.version});
  EXPECT_EQ(ticket.new_versions, (std::vector<Version>{2}));
  writer.commit(ticket, {Record{8}});

  const auto after = reader.read(2, kA, {});
  EXPECT_EQ(after.record.value, Record{8});
  EXPECT_EQ(after.record.version, 2u);
}

TEST(QuorumStub, IncrementalValidationDetectsConcurrentCommit) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  workloads::seed_all(cluster.servers(), kB, Record{2});
  auto t1 = cluster.make_stub(0);
  auto t2 = cluster.make_stub(1);

  const auto a = t1.read(1, kA, {});  // T1 reads A@1

  // T2 commits a new A.
  const auto a2 = t2.read(2, kA, {});
  const auto ticket =
      t2.prepare(2, {{kA, a2.record.version}}, {kA}, {a2.record.version});
  t2.commit(ticket, {Record{100}});

  // T1's next read carries {A@1} for incremental validation -> abort.
  try {
    t1.read(1, kB, {{kA, a.record.version}});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kValidation);
    ASSERT_EQ(abort.invalid().size(), 1u);
    EXPECT_EQ(abort.invalid()[0], kA);
  }
}

TEST(QuorumStub, PrepareRejectsStaleReadSet) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto t1 = cluster.make_stub(0);
  auto t2 = cluster.make_stub(1);

  const auto a1 = t1.read(1, kA, {});

  const auto a2 = t2.read(2, kA, {});
  t2.commit(t2.prepare(2, {{kA, a2.record.version}}, {kA}, {a2.record.version}),
            {Record{5}});

  EXPECT_THROW(
      t1.prepare(1, {{kA, a1.record.version}}, {kA}, {a1.record.version}),
      TxAbort);
}

TEST(QuorumStub, ReadBusyOnProtectedObject) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  for (auto* server : cluster.servers())
    ASSERT_TRUE(server->store().try_protect(kA, 999));
  auto stub = cluster.make_stub(0);
  try {
    stub.read(1, kA, {});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kBusy);
  }
}

TEST(QuorumStub, PrepareBusyOnProtectedObject) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  for (auto* server : cluster.servers())
    ASSERT_TRUE(server->store().try_protect(kA, 999));
  auto stub = cluster.make_stub(0);
  try {
    stub.prepare(1, {}, {kA}, {1});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kBusy);
  }
}

TEST(QuorumStub, FailedPrepareLeavesNothingProtected) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  workloads::seed_all(cluster.servers(), kB, Record{1});
  // Protect kB everywhere so prepare over {kA, kB} fails after kA.
  for (auto* server : cluster.servers())
    ASSERT_TRUE(server->store().try_protect(kB, 999));
  auto stub = cluster.make_stub(0);
  EXPECT_THROW(stub.prepare(1, {}, {kA, kB}, {1, 1}), TxAbort);
  // kA must have been released on every replica.
  for (auto* server : cluster.servers())
    EXPECT_NE(server->store().read(kA).status, store::ReadStatus::kProtected);
}

/// Every quorum is all `n` nodes, so a test knows which members a prepare
/// contacts.
class AllNodes final : public quorum::QuorumSystem {
 public:
  explicit AllNodes(std::size_t n) : n_(n) {}
  std::size_t node_count() const override { return n_; }
  std::vector<quorum::NodeId> read_quorum(Rng&) const override { return all(); }
  std::vector<quorum::NodeId> write_quorum(Rng&) const override {
    return all();
  }

 private:
  std::vector<quorum::NodeId> all() const {
    std::vector<quorum::NodeId> nodes(n_);
    for (std::size_t i = 0; i < n_; ++i)
      nodes[i] = static_cast<quorum::NodeId>(i);
    return nodes;
  }
  std::size_t n_;
};

TEST(QuorumStub, FailedPrepareAbortsOnlyMembersThatMayHoldProtections) {
  // Four members: 1 holds a rival protection (answers kBusy), 3 runs the
  // prepare but its reply is lost, 0 and 2 answer kOk.
  Cluster cluster(fast_config(4));
  workloads::seed_all(cluster.servers(), kA, Record{1});
  ASSERT_TRUE(cluster.server(1).store().try_protect(kA, 999));
  const AllNodes quorums(4);
  StubConfig config = fast_config().stub;
  config.max_commit_replays = 0;  // one abort per round, even to member 3
  QuorumStub stub(cluster.network(), quorums,
                  static_cast<net::NodeId>(cluster.size()), 7, config);
  cluster.network().set_link_fault(3, stub.client_node(),
                                   net::LinkFault{1.0, {}});

  try {
    stub.prepare(1, {}, {kA}, {1});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kBusy);
  }
  const std::uint64_t rounds = cluster.server(0).stats().prepares.load();
  EXPECT_EQ(rounds, static_cast<std::uint64_t>(config.retry.max_retries) + 1);
  EXPECT_EQ(cluster.server(0).stats().aborts.load(), rounds);
  EXPECT_EQ(cluster.server(1).stats().aborts.load(), 0u);  // kBusy undid it
  EXPECT_EQ(cluster.server(2).stats().aborts.load(), rounds);
  EXPECT_EQ(cluster.server(3).stats().aborts.load(), rounds);  // lost reply
  // Every protection this transaction took was released; the rival's stays.
  EXPECT_EQ(cluster.server(0).store().protected_count(), 0u);
  EXPECT_EQ(cluster.server(1).store().protected_count(), 1u);
  EXPECT_EQ(cluster.server(2).store().protected_count(), 0u);
  EXPECT_EQ(cluster.server(3).store().protected_count(), 0u);
}

TEST(QuorumStub, PrepareRoundWithNoOkMemberSendsNoAbort) {
  Cluster cluster(fast_config(3));
  workloads::seed_all(cluster.servers(), kA, Record{1});
  for (auto* server : cluster.servers())
    ASSERT_TRUE(server->store().try_protect(kA, 999));
  const AllNodes quorums(3);
  QuorumStub stub(cluster.network(), quorums,
                  static_cast<net::NodeId>(cluster.size()), 7,
                  fast_config().stub);
  EXPECT_THROW(stub.prepare(1, {}, {kA}, {1}), TxAbort);
  for (auto* server : cluster.servers()) {
    EXPECT_GT(server->stats().prepares.load(), 0u);
    EXPECT_EQ(server->stats().aborts.load(), 0u);
  }
}

TEST(QuorumStub, AbortReleasesPreparedObjects) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  const auto ticket = stub.prepare(1, {}, {kA}, {1});
  stub.abort(ticket);
  const auto out = stub.read(2, kA, {});
  EXPECT_EQ(out.record.value, Record{1});  // unchanged and readable
}

TEST(QuorumStub, ValidatePassesWhenUnchangedAndFailsAfterCommit) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto t1 = cluster.make_stub(0);
  auto t2 = cluster.make_stub(1);

  const auto a = t1.read(1, kA, {});
  EXPECT_NO_THROW(t1.validate(1, {{kA, a.record.version}}));

  const auto a2 = t2.read(2, kA, {});
  t2.commit(t2.prepare(2, {{kA, a2.record.version}}, {kA}, {a2.record.version}),
            {Record{3}});
  EXPECT_THROW(t1.validate(1, {{kA, a.record.version}}), TxAbort);
}

TEST(QuorumStub, ContentionLevelsReflectCommittedWrites) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);

  for (int i = 0; i < 3; ++i) {
    const auto a = stub.read(10 + i, kA, {});
    const auto ticket = stub.prepare(10 + i, {{kA, a.record.version}}, {kA},
                                     {a.record.version});
    stub.commit(ticket, {Record{i}});
  }
  cluster.roll_contention_windows();
  const auto levels = stub.contention_levels({kA.cls, 77});
  EXPECT_EQ(levels[0], 3u);
  EXPECT_EQ(levels[1], 0u);
}

TEST(QuorumStub, PiggybackedContentionOnRead) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  const auto a = stub.read(1, kA, {});
  stub.commit(
      stub.prepare(1, {{kA, a.record.version}}, {kA}, {a.record.version}),
      {Record{2}});
  cluster.roll_contention_windows();
  const auto out = stub.read(2, kA, {}, {kA.cls});
  ASSERT_EQ(out.contention.size(), 1u);
  EXPECT_EQ(out.contention[0], 1u);
}

TEST(QuorumStub, ReadSurvivesNonRootNodeDown) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{4});
  cluster.network().set_node_down(5, true);
  auto stub = cluster.make_stub(0);
  for (int i = 0; i < 20; ++i)
    EXPECT_EQ(stub.read(1, kA, {}).record.value, Record{4});
}

TEST(QuorumStub, WritesRequireTheRoot) {
  // The tree quorum's known property: every write quorum contains the root.
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{4});
  cluster.network().set_node_down(0, true);
  auto stub = cluster.make_stub(0);
  try {
    stub.prepare(1, {}, {kA}, {1});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kUnavailable);
  }
}

TEST(QuorumStub, PrepareSurvivesNonRootNodeDown) {
  // A partly-down write quorum must re-select around the down node — the
  // same ladder read() climbs — not give up on the first attempt.  Node 9
  // is a leaf of the 10-node ternary tree, so write quorums avoiding it
  // exist; a few re-selections always find one.
  auto config = fast_config();
  config.stub.max_quorum_retries = 16;
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{4});
  cluster.network().set_node_down(9, true);
  auto stub = cluster.make_stub(0);
  for (int i = 0; i < 10; ++i) {
    const auto a = stub.read(1 + i, kA, {});
    const auto ticket = stub.prepare(1 + i, {{kA, a.record.version}}, {kA},
                                     {a.record.version});
    stub.commit(ticket, {Record{a.record.value[0] + 1}});
  }
  EXPECT_EQ(stub.read(100, kA, {}).record.value, Record{14});
}

TEST(QuorumStub, ValidateRetriesUnreachableQuorums) {
  // An unreachable read quorum must not pass validation by silence.
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{4});
  cluster.network().set_drop_probability(1.0);
  auto stub = cluster.make_stub(0);
  try {
    stub.validate(1, {{kA, 1}});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kUnavailable);
  }
}

TEST(QuorumStub, TotalPacketLossIsUnavailable) {
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{4});
  cluster.network().set_drop_probability(1.0);
  auto stub = cluster.make_stub(0);
  try {
    stub.read(1, kA, {});
    FAIL() << "expected TxAbort";
  } catch (const TxAbort& abort) {
    EXPECT_EQ(abort.kind(), AbortKind::kUnavailable);
  }
}

TEST(QuorumStub, CommitReplayIsIdempotent) {
  // A client that never saw its commit acks re-sends phase two; every
  // member acks kDuplicate and the store is untouched (version guard).
  Cluster cluster(fast_config());
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  const auto a = stub.read(1, kA, {});
  const auto ticket =
      stub.prepare(1, {{kA, a.record.version}}, {kA}, {a.record.version});
  stub.commit(ticket, {Record{2}});
  EXPECT_NO_THROW(stub.commit(ticket, {Record{2}}));  // full replay

  EXPECT_EQ(stub.read(2, kA, {}).record.version, 2u);
  EXPECT_EQ(stub.read(2, kA, {}).record.value, Record{2});
  std::uint64_t replays = 0;
  for (auto* server : cluster.servers())
    replays += server->stats().commit_replays.load();
  EXPECT_GT(replays, 0u);
}

TEST(QuorumStub, CommitRetriesThroughResponseDrops) {
  // Lossy ack legs from the root: the client replays phase two until every
  // member acked, so the commit still lands on the full write quorum.
  auto config = fast_config();
  config.stub.max_commit_replays = 64;
  Cluster cluster(config);
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  const auto a = stub.read(1, kA, {});
  const auto ticket =
      stub.prepare(1, {{kA, a.record.version}}, {kA}, {a.record.version});
  // Drop 70% of root->client responses only: requests keep arriving.
  cluster.network().set_link_fault(0, stub.client_node(),
                                   net::LinkFault{0.7, {}});
  EXPECT_NO_THROW(stub.commit(ticket, {Record{5}}));
  cluster.network().clear_link_faults();
  EXPECT_EQ(stub.read(2, kA, {}).record.value, Record{5});
  EXPECT_EQ(cluster.server(0).store().read(kA).record.version, 2u);
}

TEST(Server, StatsCountRequests) {
  Cluster cluster(fast_config(1));
  workloads::seed_all(cluster.servers(), kA, Record{1});
  auto stub = cluster.make_stub(0);
  stub.read(1, kA, {});
  const auto a = stub.read(1, kA, {});
  stub.commit(
      stub.prepare(1, {{kA, a.record.version}}, {kA}, {a.record.version}),
      {Record{2}});
  const auto& stats = cluster.server(0).stats();
  EXPECT_GE(stats.reads.load(), 2u);
  EXPECT_EQ(stats.prepares.load(), 1u);
  EXPECT_EQ(stats.commits.load(), 1u);
}

TEST(Messages, ApproxSizesScaleWithPayload) {
  ReadRequest small{1, kA, {}, {}};
  ReadRequest big{1, kA, std::vector<VersionCheck>(10), {}};
  EXPECT_GT(big.approx_size(), small.approx_size());

  CommitRequest commit{1, {kA}, {Record{1, 2, 3}}, {2}};
  EXPECT_GT(commit.approx_size(), 24u);

  Request request;
  request.payload = small;
  EXPECT_EQ(request.approx_size(), small.approx_size());
}

}  // namespace
}  // namespace acn::dtm
