// A batch of client requests ordered as one consensus instance (the "µ" of
// one sequence number). Batching follows BFT-SMaRt practice: the primary
// folds requests that arrive while earlier instances are in flight into the
// next instance. batch_max = 1 degenerates to the paper's one-request-per-
// sequence-number presentation.
//
// A decoded batch keeps the bytes it was decoded from (encoded()): its
// requests' ops are slices of them, and every later use of the batch's
// encoding — digests, Lion COMMIT, view-change and NEW-VIEW entries, WAL
// records — reuses those exact bytes instead of encoding again. A decoded
// batch is read-only; only a batch under construction (no retained bytes)
// has its requests edited.

#ifndef SEEMORE_CONSENSUS_BATCH_H_
#define SEEMORE_CONSENSUS_BATCH_H_

#include <utility>
#include <vector>

#include "crypto/digest.h"
#include "smr/command.h"
#include "util/status.h"
#include "wire/payload.h"

namespace seemore {

struct Batch {
  Batch() = default;
  explicit Batch(std::vector<Request> reqs) : requests(std::move(reqs)) {}

  std::vector<Request> requests;

  bool empty() const { return requests.empty(); }
  size_t size() const { return requests.size(); }

  Bytes Encode() const;
  /// Append the canonical encoding (same bytes as Encode()) to `enc` —
  /// batch-carrying messages size-hint with EncodedSize() and encode in
  /// place instead of materializing a temporary.
  void EncodeTo(Encoder& enc) const;
  /// Exact size of the canonical encoding.
  size_t EncodedSize() const;
  /// Zero-copy decode: request ops are slices of `bytes` (wire/payload.h
  /// retention rule) and the batch retains `bytes` as encoded().
  static Result<Batch> Decode(const Payload& bytes);
  static Result<Batch> DecodeFrom(Decoder& dec);
  /// The batch a proposer just framed as the last `len` bytes of `frame`,
  /// decoded zero-copy: the proposer's slot then retains the very frame
  /// its receivers retain instead of a private encode.
  static Batch DecodeFrameTail(const Payload& frame, size_t len);

  /// The bytes this batch was decoded from; a batch built in memory
  /// encodes now.
  Payload encoded() const { return encoded_.empty() ? Encode() : encoded_; }

  /// D(µ) of the batch: digest over the canonical encoding.
  Digest ComputeDigest() const;

  /// A batch containing the special no-op command µ∅ used by view changes
  /// to fill sequence-number holes (paper §5.1 step 3).
  static Batch Noop();
  bool IsNoop() const { return requests.empty(); }

 private:
  Payload encoded_;  // set by Decode only
};

}  // namespace seemore

#endif  // SEEMORE_CONSENSUS_BATCH_H_
