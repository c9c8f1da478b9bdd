// Common plumbing for every protocol replica: transport registration, CPU
// cost accounting, signing, timers that die with the replica, crash/recover
// fault injection, and Byzantine-behaviour flags consulted by the protocol
// logic.
//
// Replicas see the outside world only through the Transport / TimerService /
// CpuMeter interfaces (net/transport.h); no protocol code knows whether it
// runs on the simulator or a real backend.

#ifndef SEEMORE_CONSENSUS_REPLICA_BASE_H_
#define SEEMORE_CONSENSUS_REPLICA_BASE_H_

#include <functional>
#include <memory>
#include <utility>

#include "consensus/commit_queue.h"
#include "consensus/config.h"
#include "consensus/execution.h"
#include "consensus/quorum_tracker.h"
#include "crypto/memo.h"
#include "net/cost_model.h"
#include "net/transport.h"
#include "smr/command.h"

namespace seemore {

/// Misbehaviours a (public-cloud) replica can be configured to exhibit.
/// kSilent is enforced by the base class; the rest are consulted by
/// protocol code at the relevant decision points.
enum ByzantineFlag : uint32_t {
  kByzNone = 0,
  /// Drop all incoming messages (fail-stop-looking Byzantine node).
  kByzSilent = 1u << 0,
  /// As primary, send conflicting proposals for the same sequence number to
  /// different replicas (equivocation).
  kByzEquivocate = 1u << 1,
  /// Vote (accept/prepare/commit) for a corrupted digest.
  kByzWrongVotes = 1u << 2,
  /// Send clients corrupted results.
  kByzLieToClients = 1u << 3,
};

class ReplicaBase : public MessageHandler {
 public:
  /// `memo` is the run's digest/verify memo (owned by the composition root,
  /// e.g. the Cluster); every replica of one run shares it, and runs on
  /// different threads each have their own. Null runs the replica
  /// memo-less: every digest and verdict is computed directly. A process
  /// that hosts a single replica (rt::Node) passes null, because a memo
  /// only pays off when several receivers of one buffer share a process.
  ReplicaBase(Transport* transport, TimerService* timers,
              const KeyStore* keystore, CryptoMemo* memo, PrincipalId id,
              const ClusterConfig& config,
              std::unique_ptr<StateMachine> state_machine,
              const CostModel& costs);
  ~ReplicaBase() override;

  ReplicaBase(const ReplicaBase&) = delete;
  ReplicaBase& operator=(const ReplicaBase&) = delete;

  PrincipalId id() const { return id_; }
  const ClusterConfig& config() const { return config_; }
  ExecutionEngine& exec() { return exec_; }
  const ExecutionEngine& exec() const { return exec_; }
  const ReplicaStats& stats() const { return stats_; }
  CpuMeter* cpu() { return cpu_; }
  bool crashed() const { return crashed_; }

  /// Fault injection: stop processing and detach from the network. State is
  /// retained in memory (a restart models a reboot with a durable log).
  void Crash();
  void Recover();

  /// --- durability (storage/durable_store.h) ------------------------------
  /// Attach a durable store (null restores the no-op default). Binds the
  /// replica's CPU meter so storage work is charged, and arms the commit
  /// funnel's WAL hook.
  void AttachDurable(DurableStore* store);
  DurableStore& durable() { return *durable_; }

  /// Rebuild in-memory state from a recovered disk image: execution restores
  /// from the newest snapshot, commit records replay above it (gap/dup
  /// tolerant, no CPU charged — recovery runs while the replica is down),
  /// then OnDurableRestore lets the protocol restore view/checkpoint state.
  /// Call exactly once, on a freshly constructed replica, before any
  /// message can arrive.
  void RestoreFromImage(const RecoveredImage& image);

  /// Fault injection: configure Byzantine behaviour (only meaningful for
  /// untrusted replicas; tests assert trusted replicas are never flagged).
  void SetByzantine(uint32_t flags) { byzantine_flags_ = flags; }
  bool HasByz(ByzantineFlag flag) const {
    return (byzantine_flags_ & flag) != 0;
  }

  /// MessageHandler: charges receive costs, filters crashed/silent states,
  /// then dispatches to HandleMessage.
  void OnMessage(PrincipalId from, Payload payload) final;

 protected:
  /// Protocol logic entry point. Runs on the replica's (virtual) CPU;
  /// charge crypto/execution work via the Charge* helpers. The frame is the
  /// shared immutable buffer the transport delivered (also available via
  /// current_frame() while handling).
  virtual void HandleMessage(PrincipalId from, const Payload& frame) = 0;

  /// The frame currently being dispatched by OnMessage (empty outside a
  /// delivery). Its buffer identity keys the digest/verify memo below.
  const Payload& current_frame() const { return current_frame_; }

  /// --- digest / verify memo ----------------------------------------------
  /// These helpers elide *host* CPU only: callers charge the full simulated
  /// cost (ChargeHash / ChargeVerify) exactly as if the work were done, so
  /// simulated time is bit-identical whether the memo hits or misses (the
  /// charge-vs-compute rule, DESIGN.md §"Engine internals"). Without a memo
  /// they compute directly.

  /// D(field) for an encoded field decoded from a delivered frame. The
  /// field's (id, offset) names its bytes within that frame, so the
  /// proposer's recorded digest (ProposeBatch) serves every receiver of a
  /// multicast proposal, and other fields are hashed by the first receiver
  /// and reused by the rest; a field copied out of a pooled read block has
  /// an id of its own and is simply hashed.
  Digest FrameFieldDigest(const Payload& field) const {
    if (memo_ == nullptr) return Digest::Of(field.data(), field.size());
    return memo_->DigestOf(field.id(), field.offset(), field.data(),
                           field.size());
  }

  /// Memoized `verify()` keyed on (buffer, signer, slot). `signer` and
  /// `slot` must be derived purely from the buffer's contents so every
  /// receiver asks the same question (use the message tag, or
  /// tag<<16|index for per-entry checks). Templated: bare lambdas, no
  /// std::function allocation on the hot path.
  template <typename F>
  bool VerifyMemoized(uint64_t buffer_id, PrincipalId signer, uint32_t slot,
                      F&& verify) const {
    if (memo_ == nullptr) return verify();
    return memo_->Verify(buffer_id, signer, slot, std::forward<F>(verify));
  }
  /// VerifyMemoized keyed on the frame being handled.
  template <typename F>
  bool FrameVerifyMemoized(PrincipalId signer, uint32_t slot,
                           F&& verify) const {
    return VerifyMemoized(current_frame_.id(), signer, slot,
                          std::forward<F>(verify));
  }

  /// A proposal as its proposer framed it.
  struct FramedBatch {
    Payload frame;  // what to multicast; ends with the encoded batch
    Batch batch;    // the slot's batch, decoded zero-copy from the frame
    Digest digest;  // D(batch), computed from the encoded bytes
  };

  /// The proposer's one SHA-256 pass over a batch: charges and computes
  /// D(encoded), lets `make_frame(digest)` build (and sign) the frame that
  /// ends with `encoded`, and decodes the slot's batch from the frame tail.
  /// The digest is recorded in the memo under the tail's key, so every
  /// receiver's FrameFieldDigest of the batch field hits. Byzantine
  /// equivocation paths frame batches of their own and never come here.
  template <typename MakeFrame>
  FramedBatch ProposeBatch(const Payload& encoded, MakeFrame&& make_frame) {
    ChargeHash(encoded.size());
    FramedBatch proposal;
    proposal.digest = Digest::Of(encoded);
    proposal.frame = make_frame(proposal.digest);
    proposal.batch = Batch::DecodeFrameTail(proposal.frame, encoded.size());
    if (memo_ != nullptr) {
      const Payload tail = proposal.batch.encoded();
      memo_->RecordDigest(tail.id(), tail.offset(), tail.size(),
                          proposal.digest);
    }
    return proposal;
  }

  /// Decoder over `frame` carrying the run's memo — what every protocol's
  /// HandleMessage switch decodes from.
  Decoder FrameDecoder(const Payload& frame) const {
    return MakeDecoder(frame, memo_);
  }

  /// Hook invoked after Recover() re-attaches the replica.
  virtual void OnRecover() {}

  /// Hook invoked by RestoreFromImage after execution replay: protocols
  /// restore their view/mode and checkpoint tracker from the image here.
  virtual void OnDurableRestore(const RecoveredImage& /*image*/) {}

  /// True from RestoreFromImage until the protocol next enters a view. A
  /// restarted replica must not resume the primary/leader role in its
  /// restored view: the WAL records commits, not proposals, so the
  /// pre-crash incarnation may already have signed proposals for the next
  /// sequence numbers — re-proposing them with different batches would be
  /// self-equivocation. Propose paths check this; EnterView clears it
  /// (either the restored replica was never current primary, or the view
  /// change that its silence provokes hands leadership elsewhere).
  bool proposer_quiesced() const { return proposer_quiesced_; }
  void ClearProposerQuiescence() { proposer_quiesced_ = false; }

  /// --- voting -----------------------------------------------------------
  /// Offer a vote to a slot tracker, folding any equivocation flag into the
  /// replica's stats. Returns true when the vote was new and counts.
  bool RecordVote(QuorumTracker& tracker, const Digest& value,
                  PrincipalId voter, const Signature& sig) {
    const VoteOutcome outcome = tracker.Add(value, voter, sig);
    if (outcome.equivocation) ++stats_.equivocations_detected;
    return outcome.counted;
  }
  bool RecordVote(VoteTracker& tracker, const Digest& value,
                  PrincipalId voter) {
    const VoteOutcome outcome = tracker.Add(value, voter);
    if (outcome.equivocation) ++stats_.equivocations_detected;
    return outcome.counted;
  }

  /// The commit funnel feeding the execution engine (consensus/commit_queue.h).
  CommitQueue& commits() { return commits_; }

  /// --- time -------------------------------------------------------------
  SimTime now() const { return timers_->Now(); }
  /// CPU work charged but not yet drained. Failure detectors add this to
  /// their timeouts so a replica's own backlog never counts against a peer.
  SimTime CpuBacklog() const {
    const SimTime backlog = cpu_->AvailableAt() - now();
    return backlog > 0 ? backlog : 0;
  }

  /// --- CPU accounting ---------------------------------------------------
  void Charge(SimTime cost) { cpu_->Charge(cost); }
  void ChargeVerify(int count = 1) { cpu_->Charge(costs_.verify * count); }
  void ChargeSign(int count = 1) { cpu_->Charge(costs_.sign * count); }
  void ChargeMac(int count = 1) { cpu_->Charge(costs_.mac * count); }
  void ChargeHash(size_t bytes) { cpu_->Charge(costs_.HashCost(bytes)); }
  void ChargeExecute(int requests) { cpu_->Charge(costs_.execute * requests); }

  /// --- network ----------------------------------------------------------
  /// Send one message (charges the fixed + payload send cost). Accepts a
  /// Payload (or Bytes, implicitly wrapped once).
  void SendTo(PrincipalId to, const Payload& msg);
  /// Send `msg` to every target except this replica. The payload is
  /// encoded and allocated once; each receiver shares the buffer (the
  /// simulated per-target send cost is still charged).
  void SendToMany(const std::vector<PrincipalId>& targets, const Payload& msg);

  /// --- timers -----------------------------------------------------------
  /// Timers are invalidated by Crash(); callbacks never fire on a crashed
  /// replica or across a Crash()/Recover() cycle.
  EventId StartTimer(SimTime delay, std::function<void()> fn);
  void CancelTimer(EventId& id);

  Transport* transport_;
  TimerService* timers_;
  const KeyStore* keystore_;
  CryptoMemo* const memo_;  // the run's memo (not owned), or null
  const PrincipalId id_;
  const ClusterConfig config_;
  const CostModel costs_;
  Signer signer_;
  CpuMeter* cpu_;  // owned by the transport
  ExecutionEngine exec_;
  ReplicaStats stats_;
  CommitQueue commits_;

 private:
  bool crashed_ = false;
  bool proposer_quiesced_ = false;
  uint32_t byzantine_flags_ = kByzNone;
  uint64_t epoch_ = 0;  // bumped by Crash(); stale timers are ignored
  /// Never null; DurableStore::Null() until AttachDurable. Not owned.
  DurableStore* durable_;
  /// Timer closures hold this token and bail once the replica is destroyed
  /// — a restart replaces the object while its timers may still be queued
  /// in the simulator.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  Payload current_frame_;  // frame being handled (empty when idle)
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_REPLICA_BASE_H_
