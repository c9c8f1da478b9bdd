// 32-byte message digest value type, D(µ) in the paper's notation.

#ifndef SEEMORE_CRYPTO_DIGEST_H_
#define SEEMORE_CRYPTO_DIGEST_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "crypto/sha256.h"
#include "wire/wire.h"

namespace seemore {

class Digest {
 public:
  static constexpr size_t kSize = Sha256::kDigestSize;

  Digest() { bytes_.fill(0); }
  explicit Digest(const std::array<uint8_t, kSize>& bytes) : bytes_(bytes) {}

  /// D(µ): SHA-256 of the message bytes.
  static Digest Of(const uint8_t* data, size_t len) {
    return Digest(Sha256::Hash(data, len));
  }
  static Digest Of(ByteSpan data) { return Of(data.data(), data.size()); }
  static Digest Of(const std::string& data) {
    return Of(reinterpret_cast<const uint8_t*>(data.data()), data.size());
  }

  const std::array<uint8_t, kSize>& bytes() const { return bytes_; }
  uint8_t* data() { return bytes_.data(); }
  const uint8_t* data() const { return bytes_.data(); }

  bool IsZero() const {
    for (uint8_t b : bytes_) {
      if (b != 0) return false;
    }
    return true;
  }

  /// First 8 hex characters, for logs.
  std::string ShortHex() const;
  std::string ToHex() const;

  void EncodeTo(Encoder& enc) const { enc.PutRaw(bytes_.data(), kSize); }
  static Digest DecodeFrom(Decoder& dec) {
    Digest d;
    dec.GetRawInto(d.bytes_.data(), kSize);
    return d;
  }

  friend bool operator==(const Digest& a, const Digest& b) {
    return a.bytes_ == b.bytes_;
  }
  friend bool operator!=(const Digest& a, const Digest& b) {
    return !(a == b);
  }
  friend bool operator<(const Digest& a, const Digest& b) {
    return std::memcmp(a.bytes_.data(), b.bytes_.data(), kSize) < 0;
  }

  struct Hasher {
    size_t operator()(const Digest& d) const {
      size_t h;
      std::memcpy(&h, d.bytes_.data(), sizeof(h));
      return h;
    }
  };

 private:
  std::array<uint8_t, kSize> bytes_;
};

}  // namespace seemore

#endif  // SEEMORE_CRYPTO_DIGEST_H_
