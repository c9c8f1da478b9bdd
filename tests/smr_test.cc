// State machines (KV, ledger), request/reply wire types, execution engine.

#include <gtest/gtest.h>

#include "consensus/execution.h"
#include "smr/command.h"
#include "smr/kv_store.h"
#include "smr/ledger.h"

namespace seemore {
namespace {

TEST(KvStoreTest, PutGetDelete) {
  KvStateMachine kv;
  EXPECT_EQ(ParseKvReply(kv.Execute(MakePut("a", "1"))).status, KvResult::kOk);
  KvReply get = ParseKvReply(kv.Execute(MakeGet("a")));
  EXPECT_EQ(get.status, KvResult::kOk);
  EXPECT_EQ(get.value, "1");
  EXPECT_EQ(ParseKvReply(kv.Execute(MakeDelete("a"))).status, KvResult::kOk);
  EXPECT_EQ(ParseKvReply(kv.Execute(MakeGet("a"))).status, KvResult::kNotFound);
  EXPECT_EQ(ParseKvReply(kv.Execute(MakeDelete("a"))).status,
            KvResult::kNotFound);
}

TEST(KvStoreTest, CompareAndSwap) {
  KvStateMachine kv;
  kv.Execute(MakePut("x", "old"));
  KvReply mismatch = ParseKvReply(kv.Execute(MakeCas("x", "wrong", "new")));
  EXPECT_EQ(mismatch.status, KvResult::kMismatch);
  EXPECT_EQ(mismatch.value, "old");  // current value reported
  EXPECT_EQ(ParseKvReply(kv.Execute(MakeCas("x", "old", "new"))).status,
            KvResult::kOk);
  EXPECT_EQ(ParseKvReply(kv.Execute(MakeGet("x"))).value, "new");
  EXPECT_EQ(ParseKvReply(kv.Execute(MakeCas("nope", "a", "b"))).status,
            KvResult::kNotFound);
}

TEST(KvStoreTest, EchoSizes) {
  KvStateMachine kv;
  KvReply reply = ParseKvReply(kv.Execute(MakeEcho(4096, 1024)));
  EXPECT_EQ(reply.status, KvResult::kOk);
  EXPECT_EQ(reply.value.size(), 4096u);
  // Oversized echo rejected (Byzantine client defense).
  EXPECT_EQ(ParseKvReply(kv.Execute(MakeEcho(1u << 30, 0))).status,
            KvResult::kBadRequest);
}

TEST(KvStoreTest, MalformedOpIsRejectedNotFatal) {
  KvStateMachine kv;
  EXPECT_EQ(ParseKvReply(kv.Execute(Bytes{})).status, KvResult::kBadRequest);
  EXPECT_EQ(ParseKvReply(kv.Execute(Bytes{99, 1, 2})).status,
            KvResult::kBadRequest);
  EXPECT_EQ(ParseKvReply(kv.Execute(Bytes{1 /*PUT, truncated*/})).status,
            KvResult::kBadRequest);
}

TEST(KvStoreTest, SnapshotRestoreRoundTrip) {
  KvStateMachine kv;
  kv.Execute(MakePut("k1", "v1"));
  kv.Execute(MakePut("k2", "v2"));
  Bytes snapshot = kv.Snapshot();
  Digest digest = kv.StateDigest();

  KvStateMachine other;
  ASSERT_TRUE(other.Restore(snapshot).ok());
  EXPECT_EQ(other.StateDigest(), digest);
  EXPECT_EQ(other.ops_applied(), kv.ops_applied());
  EXPECT_EQ(ParseKvReply(other.Execute(MakeGet("k2"))).value, "v2");
}

TEST(KvStoreTest, RestoreRejectsCorruptSnapshot) {
  KvStateMachine kv;
  kv.Execute(MakePut("a", "b"));
  Bytes snapshot = kv.Snapshot();
  snapshot.resize(snapshot.size() / 2);
  KvStateMachine other;
  EXPECT_FALSE(other.Restore(snapshot).ok());
}

TEST(LedgerTest, AppendChainsHashes) {
  LedgerStateMachine ledger;
  LedgerReply r1 = ParseLedgerReply(ledger.Execute(MakeLedgerAppend("tx-1")));
  EXPECT_TRUE(r1.ok);
  EXPECT_EQ(r1.index, 0u);
  LedgerReply r2 = ParseLedgerReply(ledger.Execute(MakeLedgerAppend("tx-2")));
  EXPECT_EQ(r2.index, 1u);
  EXPECT_NE(r1.chain_head, r2.chain_head);

  LedgerReply head = ParseLedgerReply(ledger.Execute(MakeLedgerHead()));
  EXPECT_EQ(head.index, 2u);  // length
  EXPECT_EQ(head.chain_head, r2.chain_head);

  LedgerReply read = ParseLedgerReply(ledger.Execute(MakeLedgerReadAt(0)));
  EXPECT_TRUE(read.ok);
  EXPECT_EQ(read.data, "tx-1");
  EXPECT_FALSE(ParseLedgerReply(ledger.Execute(MakeLedgerReadAt(9))).ok);
}

TEST(LedgerTest, DeterministicChain) {
  LedgerStateMachine a, b;
  for (const char* tx : {"t1", "t2", "t3"}) {
    a.Execute(MakeLedgerAppend(tx));
    b.Execute(MakeLedgerAppend(tx));
  }
  EXPECT_EQ(a.chain_head(), b.chain_head());
  EXPECT_EQ(a.StateDigest(), b.StateDigest());
}

TEST(LedgerTest, SnapshotRestore) {
  LedgerStateMachine ledger;
  ledger.Execute(MakeLedgerAppend("entry"));
  Bytes snapshot = ledger.Snapshot();
  LedgerStateMachine other;
  ASSERT_TRUE(other.Restore(snapshot).ok());
  EXPECT_EQ(other.chain_head(), ledger.chain_head());
  EXPECT_EQ(other.length(), 1u);
}

TEST(RequestTest, SignEncodeDecodeVerify) {
  KeyStore store(3);
  Signer client_signer(kClientIdBase, store);
  Request request;
  request.client = kClientIdBase;
  request.timestamp = 17;
  request.op = MakePut("k", "v");
  request.Sign(client_signer);
  EXPECT_TRUE(request.VerifySignature(store));

  Bytes message = request.ToMessage();
  Decoder dec(message);
  EXPECT_EQ(dec.GetU8(), kMsgRequest);
  auto decoded = Request::DecodeFrom(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(dec.AtEnd());
  EXPECT_EQ(*decoded, request);
  EXPECT_TRUE(decoded->VerifySignature(store));
  EXPECT_EQ(decoded->ComputeDigest(), request.ComputeDigest());

  // Tampering breaks the signature.
  decoded->timestamp = 18;
  EXPECT_FALSE(decoded->VerifySignature(store));
}

TEST(ReplyTest, SignEncodeDecodeVerify) {
  KeyStore store(3);
  Signer replica_signer(2, store);
  Reply reply;
  reply.mode = 1;
  reply.view = 4;
  reply.timestamp = 9;
  reply.replica = 2;
  reply.result = {1, 2, 3};
  reply.Sign(replica_signer);

  Bytes message = reply.ToMessage();
  Decoder dec(message);
  EXPECT_EQ(dec.GetU8(), kMsgReply);
  auto decoded = Reply::DecodeFrom(dec);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->VerifySignature(store));
  decoded->result[0] ^= 1;
  EXPECT_FALSE(decoded->VerifySignature(store));
}

Request MakeTestRequest(PrincipalId client, uint64_t ts) {
  Request r;
  r.client = client;
  r.timestamp = ts;
  r.op = MakeNoop();
  return r;
}

/// Commit a batch the way WAL replay does: with its freshly computed digest.
std::vector<ExecutedRequest> CommitBatch(ExecutionEngine& engine, uint64_t seq,
                                         const Batch& batch) {
  return engine.Commit(seq, batch, batch.ComputeDigest());
}

TEST(ExecutionEngineTest, InOrderExecution) {
  ExecutionEngine engine(std::make_unique<KvStateMachine>());
  Batch b1{{MakeTestRequest(kClientIdBase, 1)}};
  Batch b2{{MakeTestRequest(kClientIdBase, 2)}};
  EXPECT_EQ(CommitBatch(engine, 1, b1).size(), 1u);
  EXPECT_EQ(engine.last_executed(), 1u);
  EXPECT_EQ(CommitBatch(engine, 2, b2).size(), 1u);
  EXPECT_EQ(engine.last_executed(), 2u);
}

TEST(ExecutionEngineTest, BuffersGaps) {
  ExecutionEngine engine(std::make_unique<KvStateMachine>());
  Batch b1{{MakeTestRequest(kClientIdBase, 1)}};
  Batch b3{{MakeTestRequest(kClientIdBase, 3)}};
  EXPECT_TRUE(CommitBatch(engine, 3, b3).empty());  // gap: waits for 1, 2
  EXPECT_EQ(engine.last_executed(), 0u);
  EXPECT_TRUE(engine.HasCommitted(3));
  Batch b2{{MakeTestRequest(kClientIdBase, 2)}};
  EXPECT_EQ(CommitBatch(engine, 1, b1).size(), 1u);
  // Committing 2 releases both 2 and 3.
  EXPECT_EQ(CommitBatch(engine, 2, b2).size(), 2u);
  EXPECT_EQ(engine.last_executed(), 3u);
}

TEST(ExecutionEngineTest, ExactlyOnceDeduplication) {
  ExecutionEngine engine(std::make_unique<KvStateMachine>());
  Request put = MakeTestRequest(kClientIdBase, 5);
  put.op = MakePut("a", "1");
  auto first = CommitBatch(engine, 1, Batch{{put}});
  ASSERT_EQ(first.size(), 1u);
  EXPECT_FALSE(first[0].duplicate);

  // The same (client, timestamp) committed again at a later seq must NOT
  // re-execute, and the cached reply is returned.
  auto second = CommitBatch(engine, 2, Batch{{put}});
  ASSERT_EQ(second.size(), 1u);
  EXPECT_TRUE(second[0].duplicate);
  EXPECT_EQ(second[0].result, first[0].result);
  EXPECT_TRUE(engine.SeenTimestamp(kClientIdBase, 5));
  EXPECT_TRUE(engine.CachedReply(kClientIdBase, 5).has_value());
  EXPECT_FALSE(engine.CachedReply(kClientIdBase, 4).has_value());
}

TEST(ExecutionEngineTest, DuplicateSeqIgnored) {
  ExecutionEngine engine(std::make_unique<KvStateMachine>());
  Batch b{{MakeTestRequest(kClientIdBase, 1)}};
  EXPECT_EQ(CommitBatch(engine, 1, b).size(), 1u);
  EXPECT_TRUE(CommitBatch(engine, 1, b).empty());
}

TEST(ExecutionEngineTest, SnapshotRestoreCarriesReplyCache) {
  ExecutionEngine engine(std::make_unique<KvStateMachine>());
  Request put = MakeTestRequest(kClientIdBase, 1);
  put.op = MakePut("k", "v");
  CommitBatch(engine, 1, Batch{{put}});
  Bytes snapshot = engine.Snapshot();
  Digest digest = engine.StateDigest();

  ExecutionEngine other(std::make_unique<KvStateMachine>());
  ASSERT_TRUE(other.Restore(snapshot, 1).ok());
  EXPECT_EQ(other.last_executed(), 1u);
  EXPECT_EQ(other.StateDigest(), digest);
  EXPECT_TRUE(other.SeenTimestamp(kClientIdBase, 1));
  // Restore validates the claimed sequence number.
  ExecutionEngine third(std::make_unique<KvStateMachine>());
  EXPECT_FALSE(third.Restore(snapshot, 2).ok());
}

TEST(ExecutionEngineTest, ExecutedDigestsTrackHistory) {
  ExecutionEngine engine(std::make_unique<KvStateMachine>());
  Batch b1{{MakeTestRequest(kClientIdBase, 1)}};
  CommitBatch(engine, 1, b1);
  ASSERT_EQ(engine.executed_digests().size(), 1u);
  EXPECT_EQ(engine.executed_digests().at(1), b1.ComputeDigest());
}

TEST(ExecutionEngineTest, AuditTrailRecordsTheCommittedDigestAsGiven) {
  // The engine never rehashes: the trail holds the digest the committing
  // slot passed in, including for batches released from the gap buffer.
  ExecutionEngine engine(std::make_unique<KvStateMachine>());
  const Digest d1 = Digest::Of(std::string("slot-1"));
  const Digest d2 = Digest::Of(std::string("slot-2"));
  EXPECT_TRUE(engine.Commit(2, Batch{{MakeTestRequest(kClientIdBase, 2)}}, d2)
                  .empty());
  EXPECT_EQ(engine.Commit(1, Batch{{MakeTestRequest(kClientIdBase, 1)}}, d1)
                .size(),
            2u);
  EXPECT_EQ(engine.executed_digests().at(1), d1);
  EXPECT_EQ(engine.executed_digests().at(2), d2);
}

TEST(ExecutionEngineTest, ReplyRetentionBoundsCacheSize) {
  // Property: with retention R, after any committed prefix the cache holds
  // only clients whose latest request executed within the last R seqs — so
  // its size never exceeds the number of clients active in that window,
  // no matter how many one-shot clients pass through.
  constexpr uint64_t kRetention = 8;
  ExecutionEngine engine(std::make_unique<KvStateMachine>());
  engine.SetReplyRetention(kRetention);

  // One returning client plus a fresh one-shot client per seq. Unbounded
  // cache growth would retain every one-shot client forever.
  for (uint64_t seq = 1; seq <= 200; ++seq) {
    Batch batch{{MakeTestRequest(kClientIdBase, seq),
                 MakeTestRequest(kClientIdBase + static_cast<PrincipalId>(seq),
                                 1)}};
    ASSERT_EQ(CommitBatch(engine, seq, batch).size(), 2u);
    // Active-client bound: the returning client + the one-shots whose seq
    // lies in the retention window [last_executed - R, last_executed].
    EXPECT_LE(engine.reply_cache_size(), kRetention + 2);
  }

  // The returning client's entry survives (it stays within the window)...
  EXPECT_TRUE(engine.SeenTimestamp(kClientIdBase, 200));
  EXPECT_TRUE(engine.CachedReply(kClientIdBase, 200).has_value());
  // ...while a long-idle one-shot client has been evicted: its reply is
  // gone and a retransmission would re-execute (the documented tradeoff).
  EXPECT_FALSE(engine.SeenTimestamp(kClientIdBase + 1, 1));

  // Eviction only trims entries older than the window, never the frontier:
  // all clients from the last R seqs are still deduplicable.
  for (uint64_t seq = 200 - kRetention + 1; seq <= 200; ++seq) {
    EXPECT_TRUE(
        engine.SeenTimestamp(kClientIdBase + static_cast<PrincipalId>(seq), 1));
  }
}

TEST(ExecutionEngineTest, ReplyRetentionSurvivesSnapshotRestore) {
  // With retention enabled, snapshots carry each cache entry's last
  // execution seq, so a restored engine evicts on exactly the donor's
  // schedule. If Restore guessed last_seq instead (say, re-stamping every
  // entry to the snapshot seq), the restored cache would outlive the
  // donor's and every later state digest would diverge.
  constexpr uint64_t kRetention = 4;
  constexpr PrincipalId kIdle = kClientIdBase;
  constexpr PrincipalId kActive = kClientIdBase + 1;

  ExecutionEngine donor(std::make_unique<KvStateMachine>());
  donor.SetReplyRetention(kRetention);
  // The idle client executes only at seq 1; the active client every seq.
  CommitBatch(donor, 1, Batch{{MakeTestRequest(kIdle, 1), MakeTestRequest(kActive, 1)}});
  for (uint64_t seq = 2; seq <= 3; ++seq) {
    CommitBatch(donor, seq, Batch{{MakeTestRequest(kActive, seq)}});
  }
  ASSERT_EQ(donor.reply_cache_size(), 2u);

  ExecutionEngine restored(std::make_unique<KvStateMachine>());
  restored.SetReplyRetention(kRetention);
  ASSERT_TRUE(restored.Restore(donor.Snapshot(), 3).ok());
  EXPECT_EQ(restored.reply_cache_size(), 2u);
  EXPECT_EQ(restored.StateDigest(), donor.StateDigest());

  // Drive both engines through the same committed suffix. The idle client's
  // entry (last_seq = 1) must fall out of both caches at the same commit —
  // seq 6 is the first with 1 < last_executed - kRetention — and the state
  // digests must stay pairwise identical the whole way.
  for (uint64_t seq = 4; seq <= 8; ++seq) {
    Batch batch{{MakeTestRequest(kActive, seq)}};
    CommitBatch(donor, seq, batch);
    CommitBatch(restored, seq, batch);
    EXPECT_EQ(restored.StateDigest(), donor.StateDigest()) << "seq " << seq;
    EXPECT_EQ(restored.reply_cache_size(), donor.reply_cache_size())
        << "seq " << seq;
  }
  EXPECT_FALSE(donor.SeenTimestamp(kIdle, 1));
  EXPECT_FALSE(restored.SeenTimestamp(kIdle, 1));
  EXPECT_TRUE(restored.SeenTimestamp(kActive, 8));
}

TEST(ExecutionEngineTest, RetentionOffSnapshotKeepsHistoricalLayout) {
  // reply_cache_retention = 0 (the default) must leave snapshot bytes
  // exactly as they were before the knob existed: the per-entry last_seq
  // field is only serialized when retention is on. Guards the "wire bytes
  // unchanged in default config" invariant.
  Request put = MakeTestRequest(kClientIdBase, 1);
  put.op = MakePut("k", "v");

  ExecutionEngine plain(std::make_unique<KvStateMachine>());
  CommitBatch(plain, 1, Batch{{put}});

  ExecutionEngine bounded(std::make_unique<KvStateMachine>());
  bounded.SetReplyRetention(16);
  CommitBatch(bounded, 1, Batch{{put}});

  Bytes plain_snap = plain.Snapshot();
  Bytes bounded_snap = bounded.Snapshot();
  // One cache entry -> exactly one extra u64 when retention is enabled.
  EXPECT_EQ(bounded_snap.size(), plain_snap.size() + 8);
  // And the retention-on bytes are a faithful superset: restoring them into
  // a retention-on engine reproduces the same logical state.
  ExecutionEngine check(std::make_unique<KvStateMachine>());
  check.SetReplyRetention(16);
  ASSERT_TRUE(check.Restore(bounded_snap, 1).ok());
  EXPECT_EQ(check.StateDigest(), bounded.StateDigest());
}

}  // namespace
}  // namespace seemore
