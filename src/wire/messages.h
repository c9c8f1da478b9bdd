// Typed wire messages for every protocol in the repository.
//
// One struct per protocol message, with centralized Encode/Decode and (for
// signed messages) signature-domain helpers. Replicas never hand-parse a
// Decoder: HandleMessage reads the tag byte and routes the body through
// DispatchTyped / the per-message DecodeFrom, so well-formedness is checked
// once, here, instead of ad hoc in every handler.
//
// Framing: the first byte of every network message is a tag. Tags 1/2 are
// the shared REQUEST/REPLY (smr/command.h); protocol-internal messages use
// tags >= 10, scoped per protocol (clusters are homogeneous, so the spaces
// may overlap).
//
// Decode rules: decoders are bounds-checked and sticky (wire/wire.h); every
// DecodeFrom returns Corruption on truncated or malformed input. Messages
// whose size is attacker-controlled (view changes, new views) take explicit
// entry-count bounds so a Byzantine sender cannot force huge allocations.

#ifndef SEEMORE_WIRE_MESSAGES_H_
#define SEEMORE_WIRE_MESSAGES_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "consensus/batch.h"
#include "consensus/checkpoint.h"
#include "consensus/config.h"
#include "consensus/proofs.h"
#include "crypto/digest.h"
#include "crypto/keystore.h"
#include "util/status.h"
#include "wire/payload.h"
#include "wire/wire.h"

namespace seemore {

// ---------------------------------------------------------------------------
// Tags
// ---------------------------------------------------------------------------

/// SeeMoRe protocol tags (§5).
enum SeeMoReMsgType : uint8_t {
  kSmPrepare = 10,        // Lion/Dog proposal; Peacock pre-prepare
  kSmAcceptPlain = 11,    // Lion accept (unsigned, replica -> primary)
  kSmAcceptSigned = 12,   // Dog accept / Peacock prepare echo (proxy n-to-n)
  kSmCommitPrimary = 13,  // Lion commit (signed by primary, carries batch)
  kSmCommitVote = 14,     // Dog/Peacock commit vote (proxy n-to-n)
  kSmInform = 15,         // proxies -> passive nodes
  kSmCheckpoint = 16,
  kSmViewChange = 17,
  kSmNewView = 18,
  kSmModeChange = 19,
  kSmStateRequest = 20,
  kSmStateResponse = 21,
  kSmNewViewRequest = 22,  // laggard -> any replica: relay the NEW-VIEW
};

/// PBFT / S-UpRight tags (Castro & Liskov message flow).
enum PbftMsgType : uint8_t {
  kPbftPrePrepare = 10,
  kPbftPrepare = 11,
  kPbftCommit = 12,
  kPbftCheckpoint = 13,
  kPbftViewChange = 14,
  kPbftNewView = 15,
  kPbftStateRequest = 16,
  kPbftStateResponse = 17,
};

/// Paxos / VR (crash model) tags.
enum PaxosMsgType : uint8_t {
  kPaxAccept = 10,
  kPaxAck = 11,
  kPaxCommit = 12,
  kPaxViewChange = 13,
  kPaxNewView = 14,
  kPaxCheckpoint = 15,
  kPaxStateRequest = 16,
  kPaxStateResponse = 17,
};

// ---------------------------------------------------------------------------
// Framing and dispatch helpers
// ---------------------------------------------------------------------------

/// Frame a typed message body under `tag` (tag byte + encoded body).
template <typename M>
Bytes FrameMessage(uint8_t tag, const M& body) {
  Encoder enc;
  enc.PutU8(tag);
  body.EncodeTo(enc);
  return enc.Take();
}

/// The single decode-and-dispatch helper behind every replica's
/// HandleMessage switch: decodes M's body from `dec` (tag already consumed)
/// and invokes `handler` on success. Malformed bodies are dropped — a
/// Byzantine peer may send arbitrary bytes and must never crash a replica.
template <typename M, typename R>
void DispatchTyped(R* replica, PrincipalId from, Decoder& dec,
                   void (R::*handler)(PrincipalId, M)) {
  Result<M> msg = M::DecodeFrom(dec);
  if (!msg.ok()) return;
  (replica->*handler)(from, std::move(msg).value());
}

// ---------------------------------------------------------------------------
// SeeMoRe messages (§5.1-§5.4)
// ---------------------------------------------------------------------------

/// <PREPARE, π, v, n, d, σp, µ>: Lion/Dog proposal, Peacock pre-prepare.
/// `batch` stays raw: d is the digest over exactly these bytes, and the
/// receiver charges the hash before checking.
///
/// Every encoded-batch field below is a Payload. Decoded, it is a slice of
/// the received frame (Decoder::GetPayload), so its (id, offset) keys the
/// per-process digest memo on the frame's identity and a receiver that
/// keeps the batch keeps no private copy of it.
struct SmPrepareMsg {
  static constexpr uint8_t kTag = kSmPrepare;

  uint8_t mode = 0;
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest;
  Signature sig;  // proposer's signature over Header()
  Payload batch;  // encoded Batch

  void EncodeTo(Encoder& enc) const;
  static Result<SmPrepareMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }

  Bytes Header() const {
    return ProposalHeader(kDomainPrePrepare, mode, view, seq, digest);
  }
  bool VerifySignature(const KeyStore& keystore, PrincipalId signer) const {
    return keystore.Verify(signer, Header(), sig);
  }
};

/// <ACCEPT, π, v, n, d, r>: Lion's unsigned accept (flows only to the
/// trusted primary, §5.1 — the paper's headline saving over PBFT).
struct SmAcceptPlainMsg {
  static constexpr uint8_t kTag = kSmAcceptPlain;

  uint8_t mode = 0;
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest;
  PrincipalId voter = 0;

  void EncodeTo(Encoder& enc) const;
  static Result<SmAcceptPlainMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

/// Shape shared by the three signed SeeMoRe votes:
/// <tag, π, v, n, d, i, σi> with a per-type signature domain.
struct SmSignedVoteBody {
  uint8_t mode = 0;
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest;
  PrincipalId voter = 0;
  Signature sig;

  void EncodeTo(Encoder& enc) const;

  Bytes Header(SigDomain domain) const {
    return VoteHeader(domain, mode, view, seq, digest, voter);
  }
  bool VerifyAs(SigDomain domain, const KeyStore& keystore) const {
    return keystore.Verify(voter, Header(domain), sig);
  }
};

/// Dog signed accept / Peacock prepare echo (kDomainPrepare).
struct SmAcceptSignedMsg : SmSignedVoteBody {
  static constexpr uint8_t kTag = kSmAcceptSigned;
  static constexpr SigDomain kDomain = kDomainPrepare;

  static Result<SmAcceptSignedMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
  bool Verify(const KeyStore& keystore) const {
    return VerifyAs(kDomain, keystore);
  }
};

/// Dog/Peacock commit vote (kDomainCommit).
struct SmCommitVoteMsg : SmSignedVoteBody {
  static constexpr uint8_t kTag = kSmCommitVote;
  static constexpr SigDomain kDomain = kDomainCommit;

  static Result<SmCommitVoteMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
  bool Verify(const KeyStore& keystore) const {
    return VerifyAs(kDomain, keystore);
  }
};

/// Proxy -> passive node INFORM (kDomainInform).
struct SmInformMsg : SmSignedVoteBody {
  static constexpr uint8_t kTag = kSmInform;
  static constexpr SigDomain kDomain = kDomainInform;

  static Result<SmInformMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
  bool Verify(const KeyStore& keystore) const {
    return VerifyAs(kDomain, keystore);
  }
};

/// <<COMMIT, π, v, n, d>_σp, µ>: Lion's primary-signed commit (§5.1).
struct SmCommitPrimaryMsg {
  static constexpr uint8_t kTag = kSmCommitPrimary;

  uint8_t mode = 0;
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest;
  Signature sig;
  Payload batch;  // encoded Batch (carried so laggards can commit directly)

  void EncodeTo(Encoder& enc) const;
  static Result<SmCommitPrimaryMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }

  Bytes Header() const {
    return ProposalHeader(kDomainCommit, mode, view, seq, digest);
  }
  bool VerifySignature(const KeyStore& keystore, PrincipalId signer) const {
    return keystore.Verify(signer, Header(), sig);
  }
};

/// One re-proposable entry carried in a SeeMoRe view-change message.
/// Decode verifies the digest against the embedded batch bytes and decodes
/// the batch (structural well-formedness); signature validity is semantic
/// and stays with the replica.
struct SmVcEntry {
  SeeMoReMode mode = SeeMoReMode::kLion;  // signature domain of `sig`
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest;
  Batch batch;
  Signature sig;  // primary's prepare sig (P set) or commit sig (C set)

  void EncodeTo(Encoder& enc) const;
  /// Exact size EncodeTo appends (Encoder::Reserve hints).
  size_t EncodedSize() const;
  static Result<SmVcEntry> DecodeFrom(Decoder& dec);
};

/// <VIEW-CHANGE, π, v', n_stable, ξ, P, C, proofs, i> (§5.1-§5.3).
struct SmViewChangeMsg {
  static constexpr uint8_t kTag = kSmViewChange;

  uint8_t mode = 0;  // mode the sender is currently running
  uint64_t new_view = 0;
  uint64_t stable_seq = 0;
  CheckpointCert cert;
  std::vector<SmVcEntry> prepares;      // Lion/Dog P set
  std::vector<SmVcEntry> commits;       // Lion C set
  std::vector<PreparedProof> proofs;    // Peacock prepared certificates
  PrincipalId sender = 0;

  void EncodeTo(Encoder& enc) const;
  /// `max_entries` bounds each of the three sets (the receiver's window);
  /// requires the input to be fully consumed.
  static Result<SmViewChangeMsg> DecodeFrom(Decoder& dec,
                                            uint64_t max_entries);
  /// Cheap peek at the target view of a body decoder positioned after the
  /// tag (0 on malformed input), so receivers can drop stale frames before
  /// paying the full structural decode. Takes a copy; `dec` is untouched.
  static uint64_t PeekNewView(Decoder dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

/// One re-proposed entry in a NEW-VIEW (signed by the new-view authority).
struct SmNewViewEntry {
  uint64_t view = 0;  // must equal the enclosing message's new_view
  uint64_t seq = 0;
  Digest digest;
  Payload batch;  // raw: the receiver charges + checks the digest itself
  Signature sig;

  void EncodeTo(Encoder& enc) const;
  /// Exact size EncodeTo appends (Encoder::Reserve hints).
  size_t EncodedSize() const;
  static Result<SmNewViewEntry> DecodeFrom(Decoder& dec);
};

/// <NEW-VIEW, π, v', l, σ, C', P'> (§5.1 step 4; C' only under Lion).
struct SmNewViewMsg {
  static constexpr uint8_t kTag = kSmNewView;

  uint8_t mode = 0;  // target mode of the new view
  uint64_t new_view = 0;
  uint64_t low = 0;  // l: latest stable checkpoint across the quorum
  Signature header_sig;
  std::vector<SmNewViewEntry> commits;
  std::vector<SmNewViewEntry> prepares;

  void EncodeTo(Encoder& enc) const;
  static Result<SmNewViewMsg> DecodeFrom(Decoder& dec, uint64_t max_entries);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }

  /// Binds the full C'/P' entry sets (set sizes and each entry's view, seq,
  /// digest — batches are in turn bound by their digests) so one header
  /// signature covers the whole frame. NEW-VIEW may be relayed by untrusted
  /// peers, so a frame whose entry sets were pruned or reordered by the
  /// relayer must not verify.
  Digest EntrySetDigest() const;

  Bytes Header() const {
    return ProposalHeader(kDomainNewView, mode, new_view, low,
                          EntrySetDigest());
  }
  bool VerifySignature(const KeyStore& keystore, PrincipalId signer) const {
    return keystore.Verify(signer, Header(), header_sig);
  }
};

/// <MODE-CHANGE, π', v+1, i, σi> (§5.4), signed by a trusted replica.
struct SmModeChangeMsg {
  static constexpr uint8_t kTag = kSmModeChange;

  uint8_t mode = 0;  // requested new mode π'
  uint64_t new_view = 0;
  PrincipalId sender = 0;
  Signature sig;

  void EncodeTo(Encoder& enc) const;
  static Result<SmModeChangeMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }

  Bytes Header() const {
    return ProposalHeader(kDomainModeChange, mode, new_view, 0, Digest());
  }
  bool VerifySignature(const KeyStore& keystore) const {
    return keystore.Verify(sender, Header(), sig);
  }
};

// ---------------------------------------------------------------------------
// State transfer (shared by SeeMoRe and PBFT/S-UpRight; Paxos has its own
// certificate-free response)
// ---------------------------------------------------------------------------

/// <STATE-REQUEST, last_executed>. Tag differs per protocol.
struct StateRequestMsg {
  uint64_t last_executed = 0;

  void EncodeTo(Encoder& enc) const;
  static Result<StateRequestMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage(uint8_t tag) const { return FrameMessage(tag, *this); }
};

/// <STATE-RESPONSE, ξ, snapshot>: a checkpoint certificate plus the state.
struct StateResponseMsg {
  CheckpointCert cert;
  Bytes snapshot;

  void EncodeTo(Encoder& enc) const;
  static Result<StateResponseMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage(uint8_t tag) const { return FrameMessage(tag, *this); }
};

/// <NEW-VIEW-REQUEST, v>: "my current view is v — if yours is higher, relay
/// the NEW-VIEW that activated it." Sent by a replica that sees protocol
/// traffic for a view above its own that it cannot self-certify (a recovered
/// Peacock replica that slept through a view change: the untrusted primary's
/// prepares prove nothing, and the transferer's NEW-VIEW was delivered while
/// it was down). Unsigned: it only solicits a relay of a message that is
/// itself signed by the trusted authority, so a forged request can at worst
/// cost the responder one send.
struct NewViewRequestMsg {
  static constexpr uint8_t kTag = kSmNewViewRequest;

  uint64_t view = 0;

  void EncodeTo(Encoder& enc) const;
  static Result<NewViewRequestMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

// ---------------------------------------------------------------------------
// PBFT / S-UpRight messages
// ---------------------------------------------------------------------------

/// <PRE-PREPARE, v, n, d, σp, µ>.
struct PbftPrePrepareMsg {
  static constexpr uint8_t kTag = kPbftPrePrepare;

  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest;
  Signature sig;
  Payload batch;  // encoded Batch

  void EncodeTo(Encoder& enc) const;
  static Result<PbftPrePrepareMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }

  Bytes Header() const {
    return ProposalHeader(kDomainPrePrepare, 0, view, seq, digest);
  }
  bool VerifySignature(const KeyStore& keystore, PrincipalId signer) const {
    return keystore.Verify(signer, Header(), sig);
  }
};

/// Vote shape shared by PBFT PREPARE and COMMIT: <tag, v, n, d, i, σi>.
struct PbftVoteBody {
  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest;
  PrincipalId voter = 0;
  Signature sig;

  void EncodeTo(Encoder& enc) const;

  Bytes Header(SigDomain domain) const {
    return VoteHeader(domain, 0, view, seq, digest, voter);
  }
  bool VerifyAs(SigDomain domain, const KeyStore& keystore) const {
    return keystore.Verify(voter, Header(domain), sig);
  }
};

struct PbftPrepareMsg : PbftVoteBody {
  static constexpr uint8_t kTag = kPbftPrepare;
  static constexpr SigDomain kDomain = kDomainPrepare;

  static Result<PbftPrepareMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
  bool Verify(const KeyStore& keystore) const {
    return VerifyAs(kDomain, keystore);
  }
};

struct PbftCommitMsg : PbftVoteBody {
  static constexpr uint8_t kTag = kPbftCommit;
  static constexpr SigDomain kDomain = kDomainCommit;

  static Result<PbftCommitMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
  bool Verify(const KeyStore& keystore) const {
    return VerifyAs(kDomain, keystore);
  }
};

/// <VIEW-CHANGE, v', n_stable, ξ, proofs, i>_σi. The signature covers the
/// whole frame prefix (tag included), so decoding records `signed_len`.
struct PbftViewChangeMsg {
  static constexpr uint8_t kTag = kPbftViewChange;

  uint64_t new_view = 0;
  uint64_t stable_seq = 0;
  CheckpointCert cert;
  std::vector<PreparedProof> proofs;
  PrincipalId sender = 0;
  Signature sig;
  /// Length of the raw-frame prefix covered by `sig` (set by DecodeFrom).
  size_t signed_len = 0;

  /// Build and sign a complete frame (the only way to produce one, so the
  /// body-prefix signature can never be assembled inconsistently).
  static Bytes Build(uint64_t new_view, uint64_t stable_seq,
                     const CheckpointCert& cert,
                     const std::vector<PreparedProof>& proofs,
                     const Signer& signer);

  /// Decodes a whole frame (including the tag byte) and requires it to be
  /// fully consumed. `max_proofs` bounds the proof set. The proofs'
  /// batches are slices of `raw`.
  static Result<PbftViewChangeMsg> DecodeFrom(const Payload& raw,
                                              uint64_t max_proofs);

  /// Cheap peek at the target view of a raw frame (0 on malformed input),
  /// so receivers can skip stale view-changes before paying validation.
  static uint64_t PeekNewView(ByteSpan raw);
  bool VerifySignature(const KeyStore& keystore, ByteSpan raw) const {
    return signed_len <= raw.size() &&
           keystore.Verify(sender, raw.data(), signed_len, sig);
  }
};

/// One re-proposed (seq, digest) pair signed by the new primary.
struct PbftNewViewEntry {
  uint64_t seq = 0;
  Digest digest;
  Signature sig;

  void EncodeTo(Encoder& enc) const;
  static Result<PbftNewViewEntry> DecodeFrom(Decoder& dec);
};

/// <NEW-VIEW, v', V, O>: the view-change quorum V travels as the raw signed
/// VIEW-CHANGE frames (re-validated by every backup), O as signed entries.
struct PbftNewViewMsg {
  static constexpr uint8_t kTag = kPbftNewView;

  uint64_t new_view = 0;
  std::vector<Payload> view_changes;  // raw PbftViewChangeMsg frames
  std::vector<PbftNewViewEntry> entries;

  void EncodeTo(Encoder& enc) const;
  static Result<PbftNewViewMsg> DecodeFrom(Decoder& dec, uint64_t max_vcs,
                                           uint64_t max_entries);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

// ---------------------------------------------------------------------------
// Paxos (crash model: channel-authenticated, no signatures)
// ---------------------------------------------------------------------------

/// <ACCEPT, v, n, µ>.
struct PaxosAcceptMsg {
  static constexpr uint8_t kTag = kPaxAccept;

  uint64_t view = 0;
  uint64_t seq = 0;
  Payload batch;  // encoded Batch

  void EncodeTo(Encoder& enc) const;
  static Result<PaxosAcceptMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

/// <ACK, v, n, d> (replica -> leader).
struct PaxosAckMsg {
  static constexpr uint8_t kTag = kPaxAck;

  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest;

  void EncodeTo(Encoder& enc) const;
  static Result<PaxosAckMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

/// <COMMIT, v, n, d> (leader -> all).
struct PaxosCommitMsg {
  static constexpr uint8_t kTag = kPaxCommit;

  uint64_t view = 0;
  uint64_t seq = 0;
  Digest digest;

  void EncodeTo(Encoder& enc) const;
  static Result<PaxosCommitMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

/// <CHECKPOINT, n, d> (crash model: no signature).
struct PaxosCheckpointMsg {
  static constexpr uint8_t kTag = kPaxCheckpoint;

  uint64_t seq = 0;
  Digest digest;

  void EncodeTo(Encoder& enc) const;
  static Result<PaxosCheckpointMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

/// One accepted entry reported in a Paxos VIEW-CHANGE.
struct PaxosVcEntry {
  uint64_t seq = 0;
  uint64_t view = 0;  // view the batch was accepted in
  Batch batch;

  void EncodeTo(Encoder& enc) const;
};

/// <VIEW-CHANGE, v', n_stable, entries>. Decode enforces the sanity window:
/// no honest replica holds entries at or below its stable point nor more
/// than `window` above it.
struct PaxosViewChangeMsg {
  static constexpr uint8_t kTag = kPaxViewChange;

  uint64_t new_view = 0;
  uint64_t stable_seq = 0;
  std::vector<PaxosVcEntry> entries;

  void EncodeTo(Encoder& enc) const;
  static Result<PaxosViewChangeMsg> DecodeFrom(Decoder& dec, uint64_t window);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

/// One re-proposed entry in a Paxos NEW-VIEW.
struct PaxosNewViewEntry {
  uint64_t seq = 0;
  Payload batch;  // raw: receiver decodes + hashes (and charges) itself

  void EncodeTo(Encoder& enc) const;
  static Result<PaxosNewViewEntry> DecodeFrom(Decoder& dec);
};

/// <NEW-VIEW, v', n_stable, entries>.
struct PaxosNewViewMsg {
  static constexpr uint8_t kTag = kPaxNewView;

  uint64_t new_view = 0;
  uint64_t stable_seq = 0;
  std::vector<PaxosNewViewEntry> entries;

  void EncodeTo(Encoder& enc) const;
  static Result<PaxosNewViewMsg> DecodeFrom(Decoder& dec,
                                            uint64_t max_entries);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

/// <STATE-RESPONSE, n, d, snapshot> (crash model: the sender is honest, a
/// digest suffices — no certificate).
struct PaxosStateResponseMsg {
  static constexpr uint8_t kTag = kPaxStateResponse;

  uint64_t seq = 0;
  Digest digest;
  Bytes snapshot;

  void EncodeTo(Encoder& enc) const;
  static Result<PaxosStateResponseMsg> DecodeFrom(Decoder& dec);
  Bytes ToMessage() const { return FrameMessage(kTag, *this); }
};

}  // namespace seemore

#endif  // SEEMORE_WIRE_MESSAGES_H_
