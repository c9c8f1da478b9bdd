#include "consensus/batch.h"

#include "util/logging.h"

namespace seemore {

Bytes Batch::Encode() const {
  Encoder enc;
  enc.Reserve(EncodedSize());
  EncodeTo(enc);
  return enc.Take();
}

void Batch::EncodeTo(Encoder& enc) const {
  if (!encoded_.empty()) {
    enc.PutRaw(encoded_.data(), encoded_.size());
    return;
  }
  enc.PutVarint(requests.size());
  for (const Request& request : requests) request.EncodeTo(enc);
}

size_t Batch::EncodedSize() const {
  if (!encoded_.empty()) return encoded_.size();
  size_t total = VarintSize(requests.size());
  for (const Request& request : requests) total += request.EncodedSize();
  return total;
}

Result<Batch> Batch::Decode(const Payload& bytes) {
  Decoder dec = MakeDecoder(bytes);
  SEEMORE_ASSIGN_OR_RETURN(Batch batch, DecodeFrom(dec));
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  batch.encoded_ = bytes;
  return batch;
}

Batch Batch::DecodeFrameTail(const Payload& frame, size_t len) {
  SEEMORE_CHECK(len <= frame.size());
  Result<Batch> batch = Decode(frame.Slice(frame.size() - len, len));
  SEEMORE_CHECK(batch.ok()) << batch.status().ToString();
  return std::move(batch).value();
}

Result<Batch> Batch::DecodeFrom(Decoder& dec) {
  Batch batch;
  const uint64_t count = dec.GetVarint();
  if (!dec.ok()) return dec.status();
  // A count limit keeps a Byzantine primary from forcing huge allocations.
  constexpr uint64_t kMaxBatch = 1 << 16;
  if (count > kMaxBatch) return Status::Corruption("batch too large");
  batch.requests.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    SEEMORE_ASSIGN_OR_RETURN(Request req, Request::DecodeFrom(dec));
    batch.requests.push_back(std::move(req));
  }
  return batch;
}

Digest Batch::ComputeDigest() const { return Digest::Of(encoded()); }

Batch Batch::Noop() { return Batch{}; }

}  // namespace seemore
