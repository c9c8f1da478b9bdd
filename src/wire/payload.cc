#include "wire/payload.h"

#include <atomic>
#include <cstring>

#include "util/logging.h"

namespace seemore {

namespace {
std::atomic<uint64_t> g_next_payload_id{1};

uint64_t NextPayloadId() {
  return g_next_payload_id.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Payload::Rep::Rep(Bytes b)
    : storage(std::move(b)),
      block(nullptr),
      data(storage.data()),
      size(storage.size()),
      id(NextPayloadId()) {}

Payload::Rep::Rep(std::shared_ptr<const Bytes> block_in, size_t offset,
                  size_t len)
    : storage(),
      block(std::move(block_in)),
      data(block->data() + offset),
      size(len),
      id(NextPayloadId()) {}

Payload::Payload(Bytes bytes) {
  size_ = bytes.size();
  rep_ = std::make_shared<const Rep>(std::move(bytes));
}

Payload Payload::View(std::shared_ptr<const Bytes> block, size_t offset,
                      size_t len) {
  return Payload(std::make_shared<const Rep>(std::move(block), offset, len),
                 0, len);
}

Payload Payload::Slice(size_t offset, size_t len) const {
  SEEMORE_CHECK(offset <= size_ && len <= size_ - offset)
      << "slice [" << offset << ", +" << len << ") of a " << size_
      << "-byte payload";
  if (len == 0) return Payload();
  if (rep_->block != nullptr) {
    return Payload(Bytes(data() + offset, data() + offset + len));
  }
  return Payload(rep_, offset_ + offset, len);
}

bool operator==(const Payload& a, const Payload& b) {
  if (a.size() != b.size()) return false;
  return a.size() == 0 || a.data() == b.data() ||
         std::memcmp(a.data(), b.data(), a.size()) == 0;
}

// Decoder members that depend on Payload (wire/wire.h only forward-declares
// it).

Decoder::Decoder(const Payload& source, CryptoMemo* memo)
    : data_(source.data()),
      len_(source.size()),
      source_(&source),
      memo_(memo) {}

Payload Decoder::GetPayload() {
  size_t offset = 0;
  size_t len = 0;
  if (!SkipField(&offset, &len) || len == 0) return {};
  if (source_ != nullptr) return source_->Slice(offset, len);
  return Payload(Bytes(data_ + offset, data_ + offset + len));
}

}  // namespace seemore
