// Simulated digital-signature scheme.
//
// The paper assumes standard PKI: every machine holds the public keys of all
// other machines, and "the adversary cannot produce a valid signature of a
// non-faulty node" (§3.1). In a real deployment this would be Ed25519/ECDSA.
// Here we substitute an HMAC-based scheme mediated by a KeyStore:
//
//   key_p   = HMAC(master_seed, p)          -- per-principal secret
//   Sign    = HMAC(key_p, message)
//   Verify  = recompute and compare
//
// The trust model is preserved because each node only ever receives a Signer
// handle for its *own* principal id; the KeyStore (verification oracle) plays
// the role of the public-key directory. Byzantine replica implementations in
// this repo deviate in protocol logic but cannot mint other nodes'
// signatures, exactly matching the paper's adversary. The CPU cost of
// public-key sign/verify is charged separately by the network cost model
// (src/net/cost_model.h) so performance experiments still reflect
// asymmetric-crypto prices.

#ifndef SEEMORE_CRYPTO_KEYSTORE_H_
#define SEEMORE_CRYPTO_KEYSTORE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/hmac_sha256.h"
#include "wire/wire.h"

namespace seemore {

/// Identifies a replica (0..N-1) or a client (>= kClientIdBase).
using PrincipalId = int32_t;

/// Client principal ids start here so replica ids stay small and dense.
inline constexpr PrincipalId kClientIdBase = 1 << 20;

inline bool IsClientPrincipal(PrincipalId id) { return id >= kClientIdBase; }

/// Fixed-size signature value type.
class Signature {
 public:
  static constexpr size_t kSize = HmacSha256::kTagSize;

  Signature() { bytes_.fill(0); }
  explicit Signature(const std::array<uint8_t, kSize>& bytes)
      : bytes_(bytes) {}

  const std::array<uint8_t, kSize>& bytes() const { return bytes_; }
  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

  void EncodeTo(Encoder& enc) const { enc.PutRaw(bytes_.data(), kSize); }
  static Signature DecodeFrom(Decoder& dec) {
    Signature s;
    dec.GetRawInto(s.bytes_.data(), kSize);
    return s;
  }

  friend bool operator==(const Signature& a, const Signature& b) {
    return HmacSha256::Equal(a.bytes_.data(), b.bytes_.data(), kSize);
  }

 private:
  std::array<uint8_t, kSize> bytes_;
};

/// Verification oracle shared by every node (stands in for the public-key
/// directory). Verify memoizes per-principal HMAC key schedules, so the
/// store is NOT thread-safe — but each run (Cluster) owns its own KeyStore
/// and runs on one thread (the parallel scenario engine builds one cluster
/// per worker), so no synchronization is needed.
class KeyStore {
 public:
  explicit KeyStore(uint64_t master_seed);

  /// Verify that `sig` is principal `signer`'s signature over `msg`.
  bool Verify(PrincipalId signer, const uint8_t* msg, size_t len,
              const Signature& sig) const;
  /// Span-like overload: Bytes, or a stack-built HeaderBuf (consensus/
  /// proofs.h) — anything exposing contiguous data()/size().
  template <typename B>
  bool Verify(PrincipalId signer, const B& msg, const Signature& sig) const {
    return Verify(signer, msg.data(), msg.size(), sig);
  }
  /// Two-part form: verifies a signature over head || body without
  /// building the concatenation (Request signs its header, then op).
  bool Verify(PrincipalId signer, const uint8_t* head, size_t head_len,
              const uint8_t* body, size_t body_len,
              const Signature& sig) const;

  /// Derive the secret key for a principal. Only the Signer factory below
  /// should call this; protocol code never touches raw keys.
  std::vector<uint8_t> DeriveKey(PrincipalId id) const;

 private:
  /// The cached HMAC key schedule for a principal (key derivation plus pad
  /// expansion run once per principal per run, not once per Verify).
  const HmacKeySchedule& ScheduleFor(PrincipalId id) const;

  std::vector<uint8_t> master_;
  mutable std::unordered_map<PrincipalId, HmacKeySchedule> schedules_;
};

/// Per-principal signing handle. A node owns exactly one; the key schedule
/// is expanded once at construction and reused for every signature.
class Signer {
 public:
  Signer(PrincipalId id, const KeyStore& store)
      : id_(id), schedule_(store.DeriveKey(id)) {}

  PrincipalId id() const { return id_; }

  Signature Sign(const uint8_t* msg, size_t len) const {
    return Signature(HmacSha256::Mac(schedule_, msg, len));
  }
  /// Span-like overload (Bytes or a stack-built HeaderBuf).
  template <typename B>
  Signature Sign(const B& msg) const {
    return Sign(msg.data(), msg.size());
  }
  /// Two-part form: signs head || body without building the concatenation
  /// (same signature as Sign over the concatenated bytes).
  Signature Sign(const uint8_t* head, size_t head_len, const uint8_t* body,
                 size_t body_len) const {
    return Signature(
        HmacSha256::Mac(schedule_, head, head_len, body, body_len));
  }

 private:
  PrincipalId id_;
  HmacKeySchedule schedule_;
};

}  // namespace seemore

#endif  // SEEMORE_CRYPTO_KEYSTORE_H_
