// Append-only ledger state machine with a hash chain, in the style of a
// permissioned-blockchain ordering service (the paper's §1 motivates
// SeeMoRe as a pluggable consensus module for Hyperledger Fabric).

#ifndef SEEMORE_SMR_LEDGER_H_
#define SEEMORE_SMR_LEDGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "smr/state_machine.h"

namespace seemore {

/// Ledger operations.
enum class LedgerOp : uint8_t {
  kAppend = 1,  // data -> (index, chain head)
  kHead = 2,    // -> (length, chain head)
  kReadAt = 3,  // index -> data | NOT_FOUND
};

Bytes MakeLedgerAppend(const std::string& data);
Bytes MakeLedgerHead();
Bytes MakeLedgerReadAt(uint64_t index);

struct LedgerReply {
  bool ok = false;
  uint64_t index = 0;   // for kAppend: index of the new entry; kHead: length
  Digest chain_head;    // hash chain after the operation
  std::string data;     // for kReadAt
};
LedgerReply ParseLedgerReply(const Bytes& result);

class LedgerStateMachine : public StateMachine {
 public:
  LedgerStateMachine() = default;

  Bytes Execute(ByteSpan op) override;
  Bytes Snapshot() const override;
  Status Restore(const Bytes& snapshot) override;
  Digest StateDigest() const override;
  std::unique_ptr<StateMachine> CloneEmpty() const override;

  uint64_t length() const { return entries_.size(); }
  const Digest& chain_head() const { return chain_head_; }

 private:
  std::vector<std::string> entries_;
  Digest chain_head_;  // H(head_{i-1} || entry_i), starting from zero digest
};

}  // namespace seemore

#endif  // SEEMORE_SMR_LEDGER_H_
