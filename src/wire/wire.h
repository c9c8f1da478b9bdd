// Binary wire format for all protocol messages.
//
// Encoding rules (little-endian throughout):
//   - u8 / u16 / u32 / u64: fixed width
//   - varint: LEB128, for sequence numbers and lengths
//   - bytes:  varint length prefix + raw bytes
//   - string: same as bytes
// The Decoder is bounds-checked and returns Status on any truncated or
// malformed input: Byzantine replicas may send arbitrary bytes, so a decode
// failure must never crash a correct replica.

#ifndef SEEMORE_WIRE_WIRE_H_
#define SEEMORE_WIRE_WIRE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace seemore {

class CryptoMemo;
class Payload;  // wire/payload.h

using Bytes = std::vector<uint8_t>;

/// Read-only view of contiguous bytes that someone else owns (the C++17
/// stand-in for std::span<const uint8_t>): converts implicitly from Bytes,
/// Payload or anything else exposing uint8_t data()/size().
class ByteSpan {
 public:
  ByteSpan() = default;
  ByteSpan(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  template <typename B,
            typename = std::enable_if_t<std::is_convertible_v<
                decltype(std::declval<const B&>().data()), const uint8_t*>>>
  ByteSpan(const B& bytes)  // NOLINT(google-explicit-constructor)
      : data_(bytes.data()), size_(bytes.size()) {}

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Encoded length of PutVarint(v), for exact Encoder::Reserve hints.
constexpr size_t VarintSize(uint64_t v) {
  size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Appends primitive values to a growing byte buffer.
class Encoder {
 public:
  Encoder() = default;

  /// Pre-size the buffer for `n` further bytes. Large messages (batches,
  /// view changes) pass an exact or near-exact hint so one allocation
  /// replaces the doubling-growth churn of byte-at-a-time appends.
  void Reserve(size_t n) { buf_.reserve(buf_.size() + n); }

  void PutU8(uint8_t v) { buf_.push_back(v); }
  void PutU16(uint16_t v);
  void PutU32(uint32_t v);
  void PutU64(uint64_t v);
  void PutI64(int64_t v) { PutU64(static_cast<uint64_t>(v)); }
  void PutVarint(uint64_t v);
  void PutBytes(const uint8_t* data, size_t len);
  void PutBytes(ByteSpan data) { PutBytes(data.data(), data.size()); }
  void PutString(const std::string& s) {
    PutBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  /// Raw append with no length prefix (for fixed-size fields like digests).
  void PutRaw(const uint8_t* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }
  void PutRaw(ByteSpan data) { PutRaw(data.data(), data.size()); }

  const Bytes& bytes() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

/// Bounds-checked reader over a byte span. All getters fail with
/// kCorruption once the input is exhausted or malformed; after a failure
/// every subsequent getter also fails (sticky error), so callers may batch
/// reads and check `status()` once.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t len) : data_(data), len_(len) {}
  explicit Decoder(ByteSpan data) : Decoder(data.data(), data.size()) {}
  /// Decoder over a refcounted payload (wire/payload.h, MakeDecoder), which
  /// must outlive it: GetPayload then returns slices of `source` instead of
  /// copies. `memo` is the run's digest memo (crypto/memo.h), letting
  /// decode-time digest checks reuse work another receiver of the same
  /// frame already paid for. `memo` may be null: digests then compute for
  /// real, which is observationally identical — the memo elides host CPU
  /// only.
  Decoder(const Payload& source, CryptoMemo* memo);
  Decoder(Payload&& source, CryptoMemo* memo) = delete;

  uint8_t GetU8();
  uint16_t GetU16();
  uint32_t GetU32();
  uint64_t GetU64();
  int64_t GetI64() { return static_cast<int64_t>(GetU64()); }
  uint64_t GetVarint();
  Bytes GetBytes();
  /// A length-prefixed field like GetBytes, as a refcounted payload: a
  /// Payload::Slice of the source when decoding one (zero-copy for owned
  /// payloads, wire/payload.h), an owned copy when decoding plain bytes.
  Payload GetPayload();
  std::string GetString();
  /// Reads past a length-prefixed field without copying it.
  void SkipBytes() {
    size_t offset = 0;
    size_t len = 0;
    SkipField(&offset, &len);
  }
  /// Read exactly `len` raw bytes (no length prefix).
  Bytes GetRaw(size_t len);
  /// Copy exactly `len` raw bytes into `out`.
  bool GetRawInto(uint8_t* out, size_t len);

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  size_t remaining() const { return len_ - pos_; }
  /// Current read offset from the start of the input. A field decoded by
  /// the immediately preceding getter occupies [pos() - field_size, pos()).
  size_t pos() const { return pos_; }
  /// The run's digest/verify memo, or null when decoding outside a run (or
  /// plain bytes); see the Payload constructor.
  CryptoMemo* memo() const { return memo_; }
  /// True if the whole input has been consumed and no error occurred.
  bool AtEnd() const { return ok() && pos_ == len_; }
  /// Fails the decoder unless the input was fully consumed.
  Status Finish();

 private:
  bool Require(size_t n);
  void Fail(const char* what);
  /// Reads a length prefix and skips that many bytes; returns the field's
  /// offset, or fails the decoder (and returns false) when it overruns.
  bool SkipField(size_t* offset, size_t* len);

  const uint8_t* data_;
  size_t len_;
  size_t pos_ = 0;
  const Payload* source_ = nullptr;
  CryptoMemo* memo_ = nullptr;
  Status status_;
};

}  // namespace seemore

#endif  // SEEMORE_WIRE_WIRE_H_
