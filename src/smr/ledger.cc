#include "smr/ledger.h"

#include <memory>

#include "crypto/sha256.h"

namespace seemore {

namespace {

Bytes EncodeLedgerReply(bool ok, uint64_t index, const Digest& head,
                        const std::string& data) {
  Encoder enc;
  enc.PutU8(ok ? 1 : 0);
  enc.PutU64(index);
  head.EncodeTo(enc);
  enc.PutString(data);
  return enc.Take();
}

Digest ChainNext(const Digest& head, const std::string& entry) {
  Sha256 h;
  h.Update(head.data(), Digest::kSize);
  h.Update(entry);
  std::array<uint8_t, Sha256::kDigestSize> out;
  h.Final(out.data());
  return Digest(out);
}

}  // namespace

Bytes MakeLedgerAppend(const std::string& data) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(LedgerOp::kAppend));
  enc.PutString(data);
  return enc.Take();
}

Bytes MakeLedgerHead() {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(LedgerOp::kHead));
  return enc.Take();
}

Bytes MakeLedgerReadAt(uint64_t index) {
  Encoder enc;
  enc.PutU8(static_cast<uint8_t>(LedgerOp::kReadAt));
  enc.PutU64(index);
  return enc.Take();
}

LedgerReply ParseLedgerReply(const Bytes& result) {
  Decoder dec(result);
  LedgerReply out;
  out.ok = dec.GetU8() == 1;
  out.index = dec.GetU64();
  out.chain_head = Digest::DecodeFrom(dec);
  out.data = dec.GetString();
  if (!dec.ok()) out = LedgerReply{};
  return out;
}

Bytes LedgerStateMachine::Execute(ByteSpan op) {
  Decoder dec(op);
  const LedgerOp code = static_cast<LedgerOp>(dec.GetU8());
  switch (code) {
    case LedgerOp::kAppend: {
      std::string data = dec.GetString();
      if (!dec.ok()) break;
      chain_head_ = ChainNext(chain_head_, data);
      entries_.push_back(std::move(data));
      return EncodeLedgerReply(true, entries_.size() - 1, chain_head_, "");
    }
    case LedgerOp::kHead:
      return EncodeLedgerReply(true, entries_.size(), chain_head_, "");
    case LedgerOp::kReadAt: {
      uint64_t index = dec.GetU64();
      if (!dec.ok()) break;
      if (index >= entries_.size()) {
        return EncodeLedgerReply(false, index, chain_head_, "");
      }
      return EncodeLedgerReply(true, index, chain_head_, entries_[index]);
    }
  }
  return EncodeLedgerReply(false, 0, chain_head_, "");
}

Bytes LedgerStateMachine::Snapshot() const {
  Encoder enc;
  enc.PutVarint(entries_.size());
  for (const std::string& entry : entries_) enc.PutString(entry);
  chain_head_.EncodeTo(enc);
  return enc.Take();
}

Status LedgerStateMachine::Restore(const Bytes& snapshot) {
  Decoder dec(snapshot);
  uint64_t count = dec.GetVarint();
  std::vector<std::string> entries;
  entries.reserve(count);
  for (uint64_t i = 0; i < count && dec.ok(); ++i) {
    entries.push_back(dec.GetString());
  }
  Digest head = Digest::DecodeFrom(dec);
  SEEMORE_RETURN_IF_ERROR(dec.Finish());
  entries_ = std::move(entries);
  chain_head_ = head;
  return Status::Ok();
}

Digest LedgerStateMachine::StateDigest() const { return Digest::Of(Snapshot()); }

std::unique_ptr<StateMachine> LedgerStateMachine::CloneEmpty() const {
  return std::make_unique<LedgerStateMachine>();
}

}  // namespace seemore
