#include "consensus/proofs.h"

#include <set>

namespace seemore {

namespace {

// Little-endian fixed-width writes, byte-identical to Encoder::PutU64/PutU32.
void PutU64LE(uint8_t* p, uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}
void PutU32LE(uint8_t* p, uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<uint8_t>(v >> (8 * i));
}

}  // namespace

HeaderBuf ProposalHeader(SigDomain domain, uint8_t mode, uint64_t view,
                         uint64_t seq, const Digest& digest) {
  HeaderBuf h;
  h.buf_[0] = static_cast<uint8_t>(domain);
  h.buf_[1] = mode;
  PutU64LE(h.buf_ + 2, view);
  PutU64LE(h.buf_ + 10, seq);
  std::memcpy(h.buf_ + 18, digest.data(), Digest::kSize);
  h.len_ = 18 + Digest::kSize;
  return h;
}

HeaderBuf VoteHeader(SigDomain domain, uint8_t mode, uint64_t view,
                     uint64_t seq, const Digest& digest, PrincipalId voter) {
  HeaderBuf h = ProposalHeader(domain, mode, view, seq, digest);
  PutU32LE(h.buf_ + h.len_, static_cast<uint32_t>(voter));
  h.len_ += 4;
  return h;
}

void PreparedProof::EncodeTo(Encoder& enc) const {
  enc.Reserve(EncodedSize());
  enc.PutU8(mode);
  enc.PutU64(view);
  enc.PutU64(seq);
  digest.EncodeTo(enc);
  // Size-hinted in-place batch encode: the length prefix is computed, not
  // discovered by materializing a temporary buffer.
  enc.PutVarint(batch.EncodedSize());
  batch.EncodeTo(enc);
  primary_sig.EncodeTo(enc);
  enc.PutVarint(prepares.size());
  for (const auto& [voter, sig] : prepares) {
    enc.PutU32(static_cast<uint32_t>(voter));
    sig.EncodeTo(enc);
  }
}

size_t PreparedProof::EncodedSize() const {
  const size_t batch_size = batch.EncodedSize();
  return 1 + 8 + 8 + Digest::kSize + VarintSize(batch_size) + batch_size +
         Signature::kSize + VarintSize(prepares.size()) +
         prepares.size() * (4 + Signature::kSize);
}

Result<PreparedProof> PreparedProof::DecodeFrom(Decoder& dec) {
  PreparedProof proof;
  proof.mode = dec.GetU8();
  proof.view = dec.GetU64();
  proof.seq = dec.GetU64();
  proof.digest = Digest::DecodeFrom(dec);
  const Payload batch_bytes = dec.GetPayload();
  if (!dec.ok()) return dec.status();
  SEEMORE_ASSIGN_OR_RETURN(proof.batch, Batch::Decode(batch_bytes));
  proof.primary_sig = Signature::DecodeFrom(dec);
  const uint64_t count = dec.GetVarint();
  if (!dec.ok()) return dec.status();
  constexpr uint64_t kMaxVotes = 4096;
  if (count > kMaxVotes) return Status::Corruption("oversized prepared proof");
  for (uint64_t i = 0; i < count; ++i) {
    PrincipalId voter = static_cast<PrincipalId>(dec.GetU32());
    Signature sig = Signature::DecodeFrom(dec);
    if (!dec.ok()) return dec.status();
    proof.prepares.emplace_back(voter, sig);
  }
  return proof;
}

bool PreparedProof::Verify(
    const KeyStore& keystore, PrincipalId primary, size_t prepares_needed,
    const std::function<bool(PrincipalId)>& authorized) const {
  if (batch.ComputeDigest() != digest) return false;
  const HeaderBuf proposal =
      ProposalHeader(kDomainPrePrepare, mode, view, seq, digest);
  if (!keystore.Verify(primary, proposal, primary_sig)) return false;
  std::set<PrincipalId> valid;
  for (const auto& [voter, sig] : prepares) {
    if (!authorized(voter)) return false;
    const HeaderBuf vote =
        VoteHeader(kDomainPrepare, mode, view, seq, digest, voter);
    if (!keystore.Verify(voter, vote, sig)) return false;
    valid.insert(voter);
  }
  return valid.size() >= prepares_needed;
}

}  // namespace seemore
