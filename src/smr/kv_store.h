// Replicated key-value store state machine, plus helpers for building and
// parsing its operations. This is the service used by the examples and by
// most integration tests; the micro-benchmarks use the ECHO operation to
// reproduce the paper's 0/0, 0/4 and 4/0 payload benchmarks (request
// padding in, reply payload out).

#ifndef SEEMORE_SMR_KV_STORE_H_
#define SEEMORE_SMR_KV_STORE_H_

#include <cstdint>
#include <map>
#include <string>

#include "smr/state_machine.h"

namespace seemore {

/// Operation opcodes (first byte of the op payload).
enum class KvOp : uint8_t {
  kNoop = 0,
  kPut = 1,     // key, value -> "OK"
  kGet = 2,     // key -> value | NOT_FOUND
  kDelete = 3,  // key -> "OK" | NOT_FOUND
  kCas = 4,     // key, expected, new -> "OK" | MISMATCH | NOT_FOUND
  kEcho = 5,    // reply_size, padding -> reply_size zero bytes
};

/// Result status byte (first byte of every result payload).
enum class KvResult : uint8_t {
  kOk = 0,
  kNotFound = 1,
  kMismatch = 2,
  kBadRequest = 3,
};

/// Operation builders (client side).
Bytes MakeNoop();
Bytes MakePut(const std::string& key, const std::string& value);
Bytes MakeGet(const std::string& key);
Bytes MakeDelete(const std::string& key);
Bytes MakeCas(const std::string& key, const std::string& expected,
              const std::string& desired);
/// ECHO with `request_padding` bytes of request payload, asking for a
/// `reply_size`-byte result. The paper's x/y micro-benchmark is
/// MakeEcho(y_bytes, x_bytes).
Bytes MakeEcho(uint32_t reply_size, uint32_t request_padding);

/// Parsed result (server -> client).
struct KvReply {
  KvResult status = KvResult::kBadRequest;
  std::string value;
};
KvReply ParseKvReply(const Bytes& result);

class KvStateMachine : public StateMachine {
 public:
  KvStateMachine() = default;

  Bytes Execute(ByteSpan op) override;
  Bytes Snapshot() const override;
  Status Restore(const Bytes& snapshot) override;
  Digest StateDigest() const override;
  std::unique_ptr<StateMachine> CloneEmpty() const override;

  size_t size() const { return data_.size(); }
  uint64_t ops_applied() const { return ops_applied_; }

 private:
  std::map<std::string, std::string> data_;
  uint64_t ops_applied_ = 0;
};

}  // namespace seemore

#endif  // SEEMORE_SMR_KV_STORE_H_
