#include "fileio/varint.h"

#include <cstring>

namespace hepq {

void PutVarint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

void PutSignedVarint(std::vector<uint8_t>* out, int64_t value) {
  const uint64_t zz =
      (static_cast<uint64_t>(value) << 1) ^ static_cast<uint64_t>(value >> 63);
  PutVarint(out, zz);
}

Status ByteReader::GetVarint(uint64_t* out) {
  uint64_t result = 0;
  int shift = 0;
  while (pos_ < size_) {
    const uint8_t byte = data_[pos_++];
    result |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = result;
      return Status::OK();
    }
    shift += 7;
    if (shift >= 64) return Status::Corruption("varint too long");
  }
  return Status::Corruption("truncated varint");
}

Status ByteReader::GetSignedVarint(int64_t* out) {
  uint64_t zz = 0;
  HEPQ_RETURN_NOT_OK(GetVarint(&zz));
  *out = static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
  return Status::OK();
}

Status ByteReader::GetFixed32(uint32_t* out) {
  if (remaining() < 4) return Status::Corruption("truncated fixed32");
  std::memcpy(out, data_ + pos_, 4);
  pos_ += 4;
  return Status::OK();
}

Status ByteReader::GetFixed64(uint64_t* out) {
  if (remaining() < 8) return Status::Corruption("truncated fixed64");
  std::memcpy(out, data_ + pos_, 8);
  pos_ += 8;
  return Status::OK();
}

Status ByteReader::GetDouble(double* out) {
  uint64_t bits = 0;
  HEPQ_RETURN_NOT_OK(GetFixed64(&bits));
  std::memcpy(out, &bits, 8);
  return Status::OK();
}

Status ByteReader::GetString(std::string* out) {
  uint64_t n = 0;
  HEPQ_RETURN_NOT_OK(GetVarint(&n));
  if (remaining() < n) return Status::Corruption("truncated string");
  out->assign(reinterpret_cast<const char*>(data_ + pos_),
              static_cast<size_t>(n));
  pos_ += static_cast<size_t>(n);
  return Status::OK();
}

Status ByteReader::GetBytes(void* out, size_t n) {
  if (remaining() < n) return Status::Corruption("truncated bytes");
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

void PutFixed32(std::vector<uint8_t>* out, uint32_t v) {
  const size_t n = out->size();
  out->resize(n + 4);
  std::memcpy(out->data() + n, &v, 4);
}

void PutFixed64(std::vector<uint8_t>* out, uint64_t v) {
  const size_t n = out->size();
  out->resize(n + 8);
  std::memcpy(out->data() + n, &v, 8);
}

void PutDouble(std::vector<uint8_t>* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, 8);
  PutFixed64(out, bits);
}

void PutString(std::vector<uint8_t>* out, const std::string& s) {
  PutVarint(out, s.size());
  out->insert(out->end(), s.begin(), s.end());
}

}  // namespace hepq
