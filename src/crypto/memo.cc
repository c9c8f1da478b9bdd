#include "crypto/memo.h"

namespace seemore {

Digest CryptoMemo::DigestOf(uint64_t buffer_id, size_t offset,
                            const uint8_t* data, size_t len) {
  if (buffer_id == 0) return Digest::Of(data, len);
  const DigestKey key{buffer_id, offset, len};
  auto it = digests_.find(key);
  if (it != digests_.end()) {
    ++digest_hits_;
    return it->second;
  }
  ++digest_misses_;
  Digest digest = Digest::Of(data, len);
  if (digests_.size() >= kMaxEntries) digests_.clear();
  digests_.emplace(key, digest);
  return digest;
}

void CryptoMemo::RecordDigest(uint64_t buffer_id, size_t offset, size_t len,
                              const Digest& digest) {
  if (buffer_id == 0) return;
  if (digests_.size() >= kMaxEntries) digests_.clear();
  digests_.emplace(DigestKey{buffer_id, offset, len}, digest);
}

const bool* CryptoMemo::FindVerdict(const VerifyKey& key) {
  auto it = verdicts_.find(key);
  if (it != verdicts_.end()) {
    ++verify_hits_;
    return &it->second;
  }
  ++verify_misses_;
  return nullptr;
}

bool CryptoMemo::StoreVerdict(const VerifyKey& key, bool verdict) {
  if (verdicts_.size() >= kMaxEntries) verdicts_.clear();
  verdicts_.emplace(key, verdict);
  return verdict;
}

void CryptoMemo::Clear() {
  digests_.clear();
  verdicts_.clear();
  digest_hits_ = digest_misses_ = verify_hits_ = verify_misses_ = 0;
}

}  // namespace seemore
