#include "smr/command.h"

namespace seemore {

namespace {

/// The signed fields ahead of op's bytes: client, timestamp and op's length
/// prefix, byte-identical to what Request::EncodeTo writes first.
struct SignedHead {
  uint8_t bytes[4 + 8 + 10];
  size_t len = 0;
};

SignedHead SignedHeadOf(const Request& request) {
  SignedHead head;
  const uint32_t client = static_cast<uint32_t>(request.client);
  for (int i = 0; i < 4; ++i) {
    head.bytes[head.len++] = static_cast<uint8_t>(client >> (8 * i));
  }
  for (int i = 0; i < 8; ++i) {
    head.bytes[head.len++] = static_cast<uint8_t>(request.timestamp >> (8 * i));
  }
  uint64_t len = request.op.size();
  while (len >= 0x80) {
    head.bytes[head.len++] = static_cast<uint8_t>(len) | 0x80;
    len >>= 7;
  }
  head.bytes[head.len++] = static_cast<uint8_t>(len);
  return head;
}

}  // namespace

Digest Request::ComputeDigest() const {
  const SignedHead head = SignedHeadOf(*this);
  Sha256 hasher;
  hasher.Update(head.bytes, head.len);
  if (!op.empty()) hasher.Update(op.data(), op.size());
  std::array<uint8_t, Sha256::kDigestSize> out;
  hasher.Final(out.data());
  return Digest(out);
}

void Request::Sign(const Signer& signer) {
  const SignedHead head = SignedHeadOf(*this);
  sig = signer.Sign(head.bytes, head.len, op.data(), op.size());
}

bool Request::VerifySignature(const KeyStore& keystore) const {
  const SignedHead head = SignedHeadOf(*this);
  return keystore.Verify(client, head.bytes, head.len, op.data(), op.size(),
                         sig);
}

void Request::EncodeTo(Encoder& enc) const {
  enc.PutU32(static_cast<uint32_t>(client));
  enc.PutU64(timestamp);
  enc.PutBytes(op.data(), op.size());
  sig.EncodeTo(enc);
}

size_t Request::EncodedSize() const {
  return 4 + 8 + VarintSize(op.size()) + op.size() + Signature::kSize;
}

Result<Request> Request::DecodeFrom(Decoder& dec) {
  Request req;
  req.client = static_cast<PrincipalId>(dec.GetU32());
  req.timestamp = dec.GetU64();
  req.op = dec.GetPayload();
  req.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return req;
}

Bytes Request::ToMessage() const {
  Encoder enc;
  enc.PutU8(kMsgRequest);
  EncodeTo(enc);
  return enc.Take();
}

Bytes Reply::SignedPayload() const {
  Encoder enc;
  enc.PutU8(mode);
  enc.PutU64(view);
  enc.PutU64(timestamp);
  enc.PutU32(static_cast<uint32_t>(replica));
  enc.PutBytes(result);
  return enc.Take();
}

void Reply::Sign(const Signer& signer) { sig = signer.Sign(SignedPayload()); }

bool Reply::VerifySignature(const KeyStore& keystore) const {
  return keystore.Verify(replica, SignedPayload(), sig);
}

void Reply::EncodeTo(Encoder& enc) const {
  enc.PutU8(mode);
  enc.PutU64(view);
  enc.PutU64(timestamp);
  enc.PutU32(static_cast<uint32_t>(replica));
  enc.PutBytes(result);
  sig.EncodeTo(enc);
}

Result<Reply> Reply::DecodeFrom(Decoder& dec) {
  Reply rep;
  rep.mode = dec.GetU8();
  rep.view = dec.GetU64();
  rep.timestamp = dec.GetU64();
  rep.replica = static_cast<PrincipalId>(dec.GetU32());
  rep.result = dec.GetBytes();
  rep.sig = Signature::DecodeFrom(dec);
  if (!dec.ok()) return dec.status();
  return rep;
}

Bytes Reply::ToMessage() const {
  Encoder enc;
  enc.PutU8(kMsgReply);
  EncodeTo(enc);
  return enc.Take();
}

}  // namespace seemore
