#include "wire/wire.h"

namespace seemore {

void Encoder::PutU16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void Encoder::PutU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void Encoder::PutVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void Encoder::PutBytes(const uint8_t* data, size_t len) {
  PutVarint(len);
  buf_.insert(buf_.end(), data, data + len);
}

bool Decoder::Require(size_t n) {
  if (!status_.ok()) return false;
  if (len_ - pos_ < n) {
    Fail("truncated input");
    return false;
  }
  return true;
}

void Decoder::Fail(const char* what) {
  if (status_.ok()) status_ = Status::Corruption(what);
}

uint8_t Decoder::GetU8() {
  if (!Require(1)) return 0;
  return data_[pos_++];
}

uint16_t Decoder::GetU16() {
  if (!Require(2)) return 0;
  uint16_t v = static_cast<uint16_t>(data_[pos_]) |
               static_cast<uint16_t>(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

uint32_t Decoder::GetU32() {
  if (!Require(4)) return 0;
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

uint64_t Decoder::GetU64() {
  if (!Require(8)) return 0;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

uint64_t Decoder::GetVarint() {
  uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (!Require(1)) return 0;
    uint8_t byte = data_[pos_++];
    if (shift == 63 && (byte & 0xfe) != 0) {
      Fail("varint overflow");
      return 0;
    }
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) {
      Fail("varint too long");
      return 0;
    }
  }
}

bool Decoder::SkipField(size_t* offset, size_t* len) {
  const uint64_t field_len = GetVarint();
  if (!status_.ok()) return false;
  if (field_len > remaining()) {
    Fail("bytes length exceeds input");
    return false;
  }
  *offset = pos_;
  *len = static_cast<size_t>(field_len);
  pos_ += *len;
  return true;
}

Bytes Decoder::GetBytes() {
  size_t offset = 0;
  size_t len = 0;
  if (!SkipField(&offset, &len)) return {};
  return Bytes(data_ + offset, data_ + offset + len);
}

std::string Decoder::GetString() {
  Bytes b = GetBytes();
  return std::string(b.begin(), b.end());
}

Bytes Decoder::GetRaw(size_t len) {
  if (!Require(len)) return {};
  Bytes out(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return out;
}

bool Decoder::GetRawInto(uint8_t* out, size_t len) {
  if (!Require(len)) return false;
  std::memcpy(out, data_ + pos_, len);
  pos_ += len;
  return true;
}

Status Decoder::Finish() {
  if (!status_.ok()) return status_;
  if (pos_ != len_) {
    status_ = Status::Corruption("trailing bytes after message");
  }
  return status_;
}

}  // namespace seemore
