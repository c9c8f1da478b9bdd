// Per-run digest / signature-verification memo keyed on payload identity.
//
// A multicast delivers the *same* immutable buffer (wire/payload.h) to n
// receivers, and each receiver re-derives the same facts from it: the
// SHA-256 digest of an embedded batch, whether the proposer's signature
// checks out, whether the requests inside the batch carry valid client
// signatures. Those are pure functions of immutable bytes, so the first
// receiver computes them for real and everyone else reuses the answer.
// A proposal's batch is hashed by nobody downstream at all: its proposer
// records the digest it computed from the batch bytes (RecordDigest) under
// the frame tail's key before multicasting, so every receiver hits.
// Together with execution reusing the slot's checked digest, a batch gets
// one SHA-256 pass per simulated cluster (8 before: proposer, first
// backup, and each of 6 replicas at execution, for Peacock c = m = 1).
//
// Where a memo exists: only where several receivers of one buffer share a
// process, i.e. the simulator's Cluster. An rt::Node hosts one replica, so
// nothing there could ever hit; it passes no memo and its replica computes
// every digest and verdict directly (one pass per batch per node, 2
// before).
//
// The charge-vs-compute contract (DESIGN.md §"Engine internals"): the memo
// only elides *host* CPU work. Every caller still charges the full
// simulated cost (ChargeHash / ChargeVerify) before consulting the memo, so
// simulated time, Stats and seeded runs are bit-identical with the memo on,
// off, hitting or missing. A memo entry may only be keyed by a nonzero
// buffer id, because (id, offset, length) names immutable bytes for the
// whole process; id 0 (plain, unshared bytes) always computes for real.
//
// Ownership (DESIGN.md §"Concurrency model"): one CryptoMemo per simulated
// run, owned by the Cluster and threaded to its replicas and their
// decoders.
// There is deliberately NO process-wide instance: a memo is single-threaded
// like the simulator it serves, and giving each concurrently-executing run
// its own table is what lets scenario::RunMany fan runs out across cores
// with no locks on the crypto hot path. Payload ids stay process-unique
// (an atomic counter), so per-run tables are simply disjoint key spaces.
// Both tables are bounded: they are pure caches, so wholesale eviction is
// always correct.

#ifndef SEEMORE_CRYPTO_MEMO_H_
#define SEEMORE_CRYPTO_MEMO_H_

#include <cstdint>

#include "crypto/digest.h"
#include "crypto/keystore.h"
#include "util/flat_hash_map.h"

namespace seemore {

class CryptoMemo {
 public:
  CryptoMemo() = default;

  CryptoMemo(const CryptoMemo&) = delete;
  CryptoMemo& operator=(const CryptoMemo&) = delete;

  /// Digest of `len` bytes at `data`. PRECONDITION (caller's
  /// responsibility, not checked here): the bytes are the verbatim subrange
  /// [offset, offset+len) of the immutable buffer `buffer_id` — pass 0 when
  /// that cannot be guaranteed (e.g. bytes re-decoded from a nested copy),
  /// which computes without caching.
  Digest DigestOf(uint64_t buffer_id, size_t offset, const uint8_t* data,
                  size_t len);

  /// Record `digest` as D(bytes) for [offset, offset+len) of buffer
  /// `buffer_id`, so later DigestOf calls on that range hit. Same
  /// precondition as DigestOf, plus: `digest` was computed from exactly
  /// those bytes (a proposer that hashed the batch it then framed). Never
  /// record a digest copied from a message header. buffer_id 0 is ignored.
  void RecordDigest(uint64_t buffer_id, size_t offset, size_t len,
                    const Digest& digest);

  /// Memoized signature verification: returns `verify()` for the first
  /// caller and the cached boolean afterwards. `signer` and `slot`
  /// disambiguate the (possibly several) signatures checked against one
  /// frame; callers must derive both purely from the frame contents so
  /// every receiver asks the same question. buffer_id 0 always verifies.
  /// Templated so hot-path call sites pass bare lambdas with no
  /// std::function allocation.
  template <typename F>
  bool Verify(uint64_t buffer_id, PrincipalId signer, uint32_t slot,
              F&& verify) {
    if (buffer_id == 0) return verify();
    const VerifyKey key{
        buffer_id,
        (static_cast<uint64_t>(static_cast<uint32_t>(signer)) << 32) | slot};
    if (const bool* cached = FindVerdict(key)) return *cached;
    return StoreVerdict(key, verify());
  }

  /// Cache-effectiveness counters (benchmarks and tests).
  uint64_t digest_hits() const { return digest_hits_; }
  uint64_t digest_misses() const { return digest_misses_; }
  uint64_t verify_hits() const { return verify_hits_; }
  uint64_t verify_misses() const { return verify_misses_; }

  void Clear();

 private:
  struct DigestKey {
    uint64_t buffer_id;
    uint64_t offset;
    uint64_t len;
    bool operator==(const DigestKey& o) const {
      return buffer_id == o.buffer_id && offset == o.offset && len == o.len;
    }
  };
  struct DigestKeyHash {
    size_t operator()(const DigestKey& k) const {
      uint64_t h = k.buffer_id * 0x9e3779b97f4a7c15ull;
      h ^= (k.offset + 0x100) * 0xff51afd7ed558ccdull;
      h ^= (k.len + 0x10000) * 0xc4ceb9fe1a85ec53ull;
      return static_cast<size_t>(h ^ (h >> 33));
    }
  };
  struct VerifyKey {
    uint64_t buffer_id;
    uint64_t signer_slot;  // (signer << 32) | slot
    bool operator==(const VerifyKey& o) const {
      return buffer_id == o.buffer_id && signer_slot == o.signer_slot;
    }
  };
  struct VerifyKeyHash {
    size_t operator()(const VerifyKey& k) const {
      uint64_t h = k.buffer_id * 0x9e3779b97f4a7c15ull;
      h ^= k.signer_slot * 0xff51afd7ed558ccdull;
      return static_cast<size_t>(h ^ (h >> 29));
    }
  };

  /// Cached verdict for `key`, or nullptr on miss (counts the hit/miss).
  const bool* FindVerdict(const VerifyKey& key);
  /// Insert and return `verdict` (evicting wholesale when full).
  bool StoreVerdict(const VerifyKey& key, bool verdict);

  // Old buffer ids are never reissued, so stale entries are merely dead
  // weight; dropping everything when full is correct and keeps the worst
  // case O(1) amortized.
  static constexpr size_t kMaxEntries = 1 << 15;

  // Open-addressing tables (util/flat_hash_map.h): the memo is consulted
  // per received frame, so lookup cost matters more than anything else.
  FlatHashMap<DigestKey, Digest, DigestKeyHash> digests_;
  FlatHashMap<VerifyKey, bool, VerifyKeyHash> verdicts_;
  uint64_t digest_hits_ = 0;
  uint64_t digest_misses_ = 0;
  uint64_t verify_hits_ = 0;
  uint64_t verify_misses_ = 0;
};

}  // namespace seemore

#endif  // SEEMORE_CRYPTO_MEMO_H_
