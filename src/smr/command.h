// Client-facing request/reply types shared by every protocol in the repo.
//
// Wire framing convention: the first byte of every network message is a
// message-type tag. Tags 1 (REQUEST) and 2 (REPLY) are reserved here and
// have the same meaning in all protocols; protocol-internal messages use
// tags >= 10 defined per protocol.

#ifndef SEEMORE_SMR_COMMAND_H_
#define SEEMORE_SMR_COMMAND_H_

#include <cstdint>

#include "crypto/digest.h"
#include "crypto/keystore.h"
#include "util/status.h"
#include "wire/payload.h"
#include "wire/wire.h"

namespace seemore {

/// Shared message-type tags (first byte of every message).
inline constexpr uint8_t kMsgRequest = 1;
inline constexpr uint8_t kMsgReply = 2;

/// <REQUEST, op, ts, client>_σc (paper §5.1). The timestamp totally orders
/// one client's requests and provides exactly-once semantics.
///
/// The signed fields are client, timestamp and op, encoded as EncodeTo
/// writes them (everything but sig). Sign, VerifySignature and
/// ComputeDigest feed that encoding to the MAC/hash in two parts — the
/// fixed header, then op in place — so a 4 KB op is never copied to be
/// signed. A decoded op is a slice of the frame it arrived in
/// (Decoder::GetPayload).
struct Request {
  PrincipalId client = 0;
  uint64_t timestamp = 0;
  Payload op;
  Signature sig;

  /// D(µ): digest over the signed fields.
  Digest ComputeDigest() const;

  void Sign(const Signer& signer);
  bool VerifySignature(const KeyStore& keystore) const;

  void EncodeTo(Encoder& enc) const;
  static Result<Request> DecodeFrom(Decoder& dec);
  /// Exact size EncodeTo appends (Encoder::Reserve hints).
  size_t EncodedSize() const;

  /// Full framed message (kMsgRequest tag + body).
  Bytes ToMessage() const;

  bool operator==(const Request& other) const {
    return client == other.client && timestamp == other.timestamp &&
           op == other.op;
  }
};

/// <REPLY, π, v, ts, u>_σr (paper §5.1). `mode` is the SeeMoRe mode π
/// (0 for the baselines); clients use (mode, view) to track the current
/// primary across view and mode changes.
struct Reply {
  uint8_t mode = 0;
  uint64_t view = 0;
  uint64_t timestamp = 0;
  PrincipalId replica = 0;
  Bytes result;
  Signature sig;

  Bytes SignedPayload() const;
  void Sign(const Signer& signer);
  bool VerifySignature(const KeyStore& keystore) const;

  void EncodeTo(Encoder& enc) const;
  static Result<Reply> DecodeFrom(Decoder& dec);

  Bytes ToMessage() const;
};

}  // namespace seemore

#endif  // SEEMORE_SMR_COMMAND_H_
