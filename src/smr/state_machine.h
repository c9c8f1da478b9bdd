// Deterministic state machine interface (the replicated service).
//
// Requirements from the paper §5: operations are atomic and deterministic,
// and the initial state is identical on every replica. Snapshot/Restore and
// StateDigest support checkpointing and state transfer.

#ifndef SEEMORE_SMR_STATE_MACHINE_H_
#define SEEMORE_SMR_STATE_MACHINE_H_

#include <memory>

#include "crypto/digest.h"
#include "util/status.h"
#include "wire/wire.h"

namespace seemore {

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  /// Apply one operation and return its result. Must be deterministic:
  /// identical op + identical prior state => identical result and new state.
  /// Malformed operations must return an encoded error result, not crash
  /// (ops may originate from Byzantine clients).
  /// `op` is read-only and only valid for the call.
  virtual Bytes Execute(ByteSpan op) = 0;

  /// Serialize the full state.
  virtual Bytes Snapshot() const = 0;

  /// Replace the state from a snapshot.
  virtual Status Restore(const Bytes& snapshot) = 0;

  /// Digest of the current state (for checkpoint certificates). Must equal
  /// Digest::Of(Snapshot()) semantically; implementations may compute it
  /// incrementally.
  virtual Digest StateDigest() const = 0;

  /// Fresh instance with the same initial state (used to build clusters).
  virtual std::unique_ptr<StateMachine> CloneEmpty() const = 0;
};

}  // namespace seemore

#endif  // SEEMORE_SMR_STATE_MACHINE_H_
