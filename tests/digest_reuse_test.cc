// Each batch is hashed once per cluster: the proposer computes D(batch),
// records it in the run's memo under the frame tail's key so every backup's
// batch-field lookup hits, and execution records the committing slot's
// digest instead of rehashing. These tests pin both halves: the audit trail
// still names exactly the bytes each replica committed (across a view
// change and a WAL restart, for every protocol family), and the proposer's
// memo entry is the real digest of the bytes it keys.

#include <gtest/gtest.h>

#include <functional>
#include <map>

#include "storage/file_store.h"
#include "tests/test_util.h"

namespace seemore {
namespace {

struct AuditCase {
  const char* name;
  ClusterOptions options;
  /// The view-0 primary, crashed to force a view change and then restarted
  /// from its WAL.
  std::function<int(Cluster&)> primary;
};

/// Every entry of every replica's executed-digest trail must equal D() of
/// the batch bytes that replica logged to its WAL at that seq. The WAL is an
/// independent record of what was committed: the commit funnel appends the
/// batch before execution, and a restarted replica's reseeded log carries
/// the commits it replayed. Checkpoints are pushed out so no WAL segment is
/// collected and the trail is covered end to end.
void ExpectTrailMatchesCommittedBytes(const AuditCase& test) {
  SCOPED_TRACE(test.name);
  ClusterOptions options = test.options;
  options.config.checkpoint_period = 2048;
  options.durability.enabled = true;
  options.durability.fsync_interval = 1;
  Cluster cluster(options);

  testing::RunBurst(cluster, 4, Millis(60));
  const int primary = test.primary(cluster);
  cluster.Crash(primary);
  testing::RunBurst(cluster, 4, Millis(150));
  Result<RestartOutcome> restarted = cluster.Restart(primary);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_GT(restarted->replayed_commits, 0u);
  testing::RunBurst(cluster, 4, Millis(100));
  cluster.sim().RunUntil(cluster.sim().now() + Millis(100));
  ASSERT_TRUE(cluster.CheckAgreement().ok());

  uint64_t view_changes = 0;
  for (int i = 0; i < cluster.n(); ++i) {
    ReplicaBase* replica = cluster.replica(i);
    view_changes += replica->stats().view_changes_completed;
    Result<RecoveredImage> image =
        storage::FileDurableStore::Recover(*cluster.medium(i));
    ASSERT_TRUE(image.ok()) << image.status().ToString();
    std::map<uint64_t, Digest> logged;
    for (const auto& [seq, batch] : image->commits) {
      logged[seq] = Digest::Of(batch.encoded());
    }
    const ExecutedDigestLog& trail = replica->exec().executed_digests();
    ASSERT_FALSE(trail.empty()) << "replica " << i;
    for (uint64_t seq = trail.floor(); seq <= trail.ceil(); ++seq) {
      auto it = logged.find(seq);
      ASSERT_NE(it, logged.end()) << "replica " << i << " seq " << seq;
      ASSERT_EQ(trail.at(seq), it->second) << "replica " << i << " seq "
                                           << seq;
    }
  }
  EXPECT_GT(view_changes, 0u);
}

int SeeMoRePrimary(Cluster& cluster) {
  return cluster.seemore(0)->current_primary();
}
int FlatPrimary(Cluster& cluster) { return cluster.config().FlatPrimary(0); }

TEST(DigestReuseTest, AuditTrailMatchesCommittedBytesSeeMoReLion) {
  ExpectTrailMatchesCommittedBytes(
      {"lion", testing::SeeMoReOptions(SeeMoReMode::kLion, 1, 1),
       SeeMoRePrimary});
}

TEST(DigestReuseTest, AuditTrailMatchesCommittedBytesSeeMoReDog) {
  ExpectTrailMatchesCommittedBytes(
      {"dog", testing::SeeMoReOptions(SeeMoReMode::kDog, 1, 1),
       SeeMoRePrimary});
}

TEST(DigestReuseTest, AuditTrailMatchesCommittedBytesSeeMoRePeacock) {
  ExpectTrailMatchesCommittedBytes(
      {"peacock", testing::SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1),
       SeeMoRePrimary});
}

TEST(DigestReuseTest, AuditTrailMatchesCommittedBytesPbft) {
  ExpectTrailMatchesCommittedBytes(
      {"pbft", testing::BftOptions(1), FlatPrimary});
}

TEST(DigestReuseTest, AuditTrailMatchesCommittedBytesPaxos) {
  ExpectTrailMatchesCommittedBytes(
      {"paxos", testing::CftOptions(1), FlatPrimary});
}

TEST(DigestReuseTest, ProposerDigestServesEveryPrepareReceiver) {
  // 4 KB requests under Peacock: the batch field of every PREPARE is found
  // in the memo (the proposer recorded it), so no receiver hashes it.
  ClusterOptions options =
      testing::SeeMoReOptions(SeeMoReMode::kPeacock, 1, 1);
  options.config.checkpoint_period = 1024;
  options.config.view_change_timeout = Millis(200);
  Cluster cluster(options);
  const RunResult result = RunClosedLoop(cluster, 8, EchoWorkload(4, 0),
                                         /*warmup=*/0, Millis(60));
  ASSERT_GT(result.completed, 0u);
  SeeMoReReplica* primary =
      cluster.seemore(cluster.seemore(0)->current_primary());
  ASSERT_EQ(primary->stats().view_changes_started, 0u);

  CryptoMemo& memo = cluster.memo();
  EXPECT_EQ(memo.digest_misses(), 0u);
  EXPECT_GT(memo.digest_hits(), 0u);

  // Each recorded entry is D() of the frame tail it keys: look up the
  // proposer's slot batches (the tails of the frames it multicast).
  uint64_t checked = 0;
  for (uint64_t seq = 1; seq <= primary->last_executed(); ++seq) {
    const SlotCore* slot = primary->slot(seq);
    ASSERT_NE(slot, nullptr) << "seq " << seq;
    const Payload tail = slot->batch.encoded();
    ASSERT_NE(tail.id(), 0u);
    const uint64_t hits = memo.digest_hits();
    const Digest recorded =
        memo.DigestOf(tail.id(), tail.offset(), tail.data(), tail.size());
    EXPECT_EQ(memo.digest_hits(), hits + 1) << "seq " << seq;
    EXPECT_EQ(recorded, Digest::Of(tail)) << "seq " << seq;
    EXPECT_EQ(recorded, slot->digest) << "seq " << seq;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(memo.digest_misses(), 0u);
}

}  // namespace
}  // namespace seemore
