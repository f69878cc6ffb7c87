#ifndef HEPQUERY_FILEIO_VARINT_H_
#define HEPQUERY_FILEIO_VARINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace hepq {

/// LEB128-style unsigned varint append.
void PutVarint(std::vector<uint8_t>* out, uint64_t value);

/// Zig-zag-encoded signed varint append.
void PutSignedVarint(std::vector<uint8_t>* out, int64_t value);

/// Cursor over a byte buffer for decoding. All Get* methods fail cleanly on
/// truncated input (required for robust footer parsing of damaged files).
class ByteReader {
 public:
  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  size_t position() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ >= size_; }

  Status GetVarint(uint64_t* out);
  Status GetSignedVarint(int64_t* out);
  Status GetFixed32(uint32_t* out);
  Status GetFixed64(uint64_t* out);
  Status GetDouble(double* out);
  Status GetString(std::string* out);
  Status GetBytes(void* out, size_t n);

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Append helpers used by the footer serializer.
void PutFixed32(std::vector<uint8_t>* out, uint32_t v);
void PutFixed64(std::vector<uint8_t>* out, uint64_t v);
void PutDouble(std::vector<uint8_t>* out, double v);
void PutString(std::vector<uint8_t>* out, const std::string& s);

}  // namespace hepq

#endif  // HEPQUERY_FILEIO_VARINT_H_
