// SeeMoRe Peacock mode (§5.3): PBFT among the 3m+1 proxies with an
// untrusted primary; the trusted transferer drives view changes; passive
// nodes execute after m+1 INFORMs.

#include <gtest/gtest.h>

#include <algorithm>

#include "tests/test_util.h"

namespace seemore {
namespace {

using testing::RunBurst;
using testing::SeeMoReOptions;
using testing::SubmitAndWait;

TEST(PeacockTest, CommitsSingleRequest) {
  Cluster cluster(SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1));
  SimClient* client = cluster.AddClient();
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(ParseKvReply(*result).status, KvResult::kOk);
  // The Peacock primary lives in the public cloud.
  EXPECT_FALSE(
      cluster.config().IsTrusted(cluster.seemore(2)->current_primary()));
}

TEST(PeacockTest, PrivateNodesExecuteViaInforms) {
  Cluster cluster(SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1));
  SimClient* client = cluster.AddClient();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        SubmitAndWait(cluster, client, MakePut("k" + std::to_string(i), "v"))
            .ok());
  }
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  EXPECT_EQ(cluster.seemore(0)->last_executed(),
            cluster.seemore(2)->last_executed());
  EXPECT_EQ(cluster.seemore(1)->last_executed(),
            cluster.seemore(2)->last_executed());
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PeacockTest, ReplicasRetainOneCopyOfEachProposal) {
  // 4 KB requests (Fig. 3's 4/0 point): every replica keeps the batch of a
  // live slot, and all of them — the primary's own slot included — hold
  // ops that are slices of the one multicast PREPARE frame, never a
  // private copy each.
  Cluster cluster(SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1));
  const RunResult result = RunClosedLoop(cluster, 8, EchoWorkload(4, 0),
                                         /*warmup=*/0, Millis(40));
  ASSERT_GT(result.completed, 0u);
  const int n = cluster.config().n();
  uint64_t floor = 0;
  for (int r = 0; r < n; ++r) {
    floor = std::max(floor, cluster.seemore(r)->stable_checkpoint());
  }
  const auto held_everywhere = [&](uint64_t seq) {
    for (int r = 0; r < n; ++r) {
      const SlotCore* slot = cluster.seemore(r)->slot(seq);
      if (slot == nullptr || !slot->has_batch || slot->batch.empty()) {
        return false;
      }
    }
    return true;
  };
  uint64_t seq = floor + 1;
  while (seq <= floor + 64 && !held_everywhere(seq)) ++seq;
  ASSERT_TRUE(held_everywhere(seq)) << "no slot above " << floor
                                    << " is held by every replica";

  const Batch& reference = cluster.seemore(0)->slot(seq)->batch;
  for (int r = 0; r < n; ++r) {
    const Batch& batch = cluster.seemore(r)->slot(seq)->batch;
    ASSERT_EQ(batch.size(), reference.size()) << "replica " << r;
    EXPECT_TRUE(batch.encoded().SharesBufferWith(reference.encoded()))
        << "replica " << r;
    for (size_t i = 0; i < batch.size(); ++i) {
      const Payload& op = batch.requests[i].op;
      EXPECT_GE(op.size(), 4096u);
      EXPECT_TRUE(op.SharesBufferWith(reference.encoded()))
          << "replica " << r << " request " << i;
    }
  }
}

TEST(PeacockTest, ToleratesByzantineProxy) {
  Cluster cluster(SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1));
  // View-0 proxies are {2,3,4,5} with primary 2; flag a non-primary proxy.
  cluster.SetByzantine(4, kByzWrongVotes);
  const uint64_t completed = RunBurst(cluster, 4, Millis(300));
  EXPECT_GT(completed, 30u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PeacockTest, PrimaryCrashTransfererRunsViewChange) {
  Cluster cluster(SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1));
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("a", "1")).ok());
  const PrincipalId primary = cluster.seemore(0)->current_primary();
  cluster.Crash(primary);
  auto after = SubmitAndWait(cluster, client, MakePut("b", "2"), Seconds(10));
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_GT(cluster.seemore(0)->view(), 0u);
  EXPECT_EQ(cluster.seemore(0)->mode(), SeeMoReMode::kPeacock);
  // The new primary is the next public node in rotation.
  EXPECT_FALSE(
      cluster.config().IsTrusted(cluster.seemore(0)->current_primary()));
  auto get = SubmitAndWait(cluster, client, MakeGet("a"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "1");
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PeacockTest, EquivocatingPrimaryRecovered) {
  Cluster cluster(SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1));
  const PrincipalId primary = cluster.seemore(0)->current_primary();
  cluster.SetByzantine(primary, kByzEquivocate);
  SimClient* client = cluster.AddClient();
  auto result = SubmitAndWait(cluster, client, MakePut("k", "v"), Seconds(10));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(cluster.seemore(0)->view(), 0u);  // view change happened
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PeacockTest, LyingProxyCannotFoolClients) {
  Cluster cluster(SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1));
  cluster.SetByzantine(5, kByzLieToClients);
  SimClient* client = cluster.AddClient();
  ASSERT_TRUE(SubmitAndWait(cluster, client, MakePut("key", "honest")).ok());
  auto get = SubmitAndWait(cluster, client, MakeGet("key"));
  ASSERT_TRUE(get.ok());
  EXPECT_EQ(ParseKvReply(*get).value, "honest");
}

TEST(PeacockTest, QuorumCheckpointsAdvance) {
  ClusterOptions options = SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1);
  options.config.checkpoint_period = 8;
  Cluster cluster(options);
  RunBurst(cluster, 4, Millis(300));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  int advanced = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    if (cluster.seemore(i)->stable_checkpoint() > 0) ++advanced;
  }
  EXPECT_GE(advanced, 4);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

TEST(PeacockTest, ConcurrentClients) {
  Cluster cluster(SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1));
  const uint64_t completed = RunBurst(cluster, 6, Millis(300));
  EXPECT_GT(completed, 50u);
  EXPECT_TRUE(cluster.CheckAgreement().ok());
}

}  // namespace
}  // namespace seemore
