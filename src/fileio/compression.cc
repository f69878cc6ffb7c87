#include "fileio/compression.h"

#include <cstring>

namespace hepq {

const char* CodecName(Codec codec) {
  switch (codec) {
    case Codec::kNone:
      return "none";
    case Codec::kLz:
      return "lz";
  }
  return "unknown";
}

namespace {

constexpr size_t kMinMatch = 4;
constexpr size_t kMaxOffset = 65535;
constexpr int kHashBits = 14;

inline uint32_t Hash4(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

// Emits a literal run + match pair in LZ4-block token format.
void EmitSequence(const uint8_t* literals, size_t literal_len,
                  size_t match_len, size_t offset,
                  std::vector<uint8_t>* out) {
  const size_t lit_token = literal_len < 15 ? literal_len : 15;
  // match_len == 0 encodes "trailing literals only" (end of block).
  const size_t match_code = match_len == 0 ? 0 : match_len - kMinMatch;
  const size_t match_token = match_code < 15 ? match_code : 15;
  out->push_back(static_cast<uint8_t>((lit_token << 4) | match_token));
  if (lit_token == 15) {
    size_t rest = literal_len - 15;
    while (rest >= 255) {
      out->push_back(255);
      rest -= 255;
    }
    out->push_back(static_cast<uint8_t>(rest));
  }
  out->insert(out->end(), literals, literals + literal_len);
  if (match_len == 0) return;
  out->push_back(static_cast<uint8_t>(offset & 0xff));
  out->push_back(static_cast<uint8_t>(offset >> 8));
  if (match_token == 15) {
    size_t rest = match_code - 15;
    while (rest >= 255) {
      out->push_back(255);
      rest -= 255;
    }
    out->push_back(static_cast<uint8_t>(rest));
  }
}

void LzCompress(const uint8_t* input, size_t n, std::vector<uint8_t>* out) {
  out->reserve(n / 2 + 64);
  std::vector<uint32_t> table(static_cast<size_t>(1) << kHashBits, 0);
  // Positions in `table` are stored +1 so 0 means "empty".
  size_t anchor = 0;  // start of the pending literal run
  size_t pos = 0;
  while (n >= kMinMatch && pos + kMinMatch <= n) {
    const uint32_t h = Hash4(input + pos);
    const uint32_t candidate_plus1 = table[h];
    table[h] = static_cast<uint32_t>(pos) + 1;
    if (candidate_plus1 != 0) {
      const size_t cand = candidate_plus1 - 1;
      const size_t offset = pos - cand;
      if (offset > 0 && offset <= kMaxOffset &&
          std::memcmp(input + cand, input + pos, kMinMatch) == 0) {
        size_t match_len = kMinMatch;
        while (pos + match_len < n &&
               input[cand + match_len] == input[pos + match_len]) {
          ++match_len;
        }
        EmitSequence(input + anchor, pos - anchor, match_len, offset, out);
        pos += match_len;
        anchor = pos;
        continue;
      }
    }
    ++pos;
  }
  // Trailing literals.
  EmitSequence(input + anchor, n - anchor, 0, 0, out);
}

Status LzDecompress(const uint8_t* input, size_t n, size_t expected,
                    std::vector<uint8_t>* out) {
  // `out` is sized once and written through `dst`; `produced <= expected`
  // is an invariant, checked before every copy, so no write leaves it.
  out->resize(expected);
  uint8_t* const dst = out->data();
  size_t produced = 0;
  // On failure `out` keeps exactly the bytes decoded before the bad field.
  auto fail = [&](const char* message) {
    out->resize(produced);
    return Status::Corruption(message);
  };
  size_t pos = 0;
  while (pos < n) {
    const uint8_t token = input[pos++];
    size_t literal_len = token >> 4;
    if (literal_len == 15) {
      uint8_t b;
      do {
        if (pos >= n) return fail("lz: truncated literal len");
        b = input[pos++];
        literal_len += b;
      } while (b == 255);
    }
    if (pos + literal_len > n) {
      return fail("lz: literal run past end");
    }
    if (literal_len > expected - produced) {
      return fail("lz: output exceeds expected size");
    }
    std::memcpy(dst + produced, input + pos, literal_len);
    produced += literal_len;
    pos += literal_len;
    if (pos >= n) break;  // final sequence carries no match
    if (pos + 2 > n) return fail("lz: truncated offset");
    const size_t offset = static_cast<size_t>(input[pos]) |
                          (static_cast<size_t>(input[pos + 1]) << 8);
    pos += 2;
    size_t match_code = token & 0x0f;
    if (match_code == 15) {
      uint8_t b;
      do {
        if (pos >= n) return fail("lz: truncated match len");
        b = input[pos++];
        match_code += b;
      } while (b == 255);
    }
    const size_t match_len = match_code + kMinMatch;
    if (offset == 0 || offset > produced) {
      return fail("lz: invalid match offset");
    }
    // `out` holds exactly `expected` bytes, so every expansion is capped up
    // front: a crafted run of overlapping matches must not write past it.
    if (match_len > expected - produced) {
      return fail("lz: output exceeds expected size");
    }
    uint8_t* const to = dst + produced;
    const uint8_t* const from = to - offset;
    if (offset >= match_len) {
      std::memcpy(to, from, match_len);
    } else {
      // The match overlaps its own output: copy forward byte by byte so
      // each byte reads one already written.
      for (size_t i = 0; i < match_len; ++i) to[i] = from[i];
    }
    produced += match_len;
  }
  if (produced != expected) {
    return fail("lz: decompressed size mismatch");
  }
  return Status::OK();
}

}  // namespace

Status Compress(Codec codec, const uint8_t* input, size_t input_size,
                std::vector<uint8_t>* out) {
  out->clear();
  switch (codec) {
    case Codec::kNone:
      out->assign(input, input + input_size);
      return Status::OK();
    case Codec::kLz:
      if (input_size == 0) return Status::OK();
      LzCompress(input, input_size, out);
      return Status::OK();
  }
  return Status::Invalid("unknown codec");
}

Status Decompress(Codec codec, const uint8_t* input, size_t input_size,
                  size_t decompressed_size, std::vector<uint8_t>* out) {
  switch (codec) {
    case Codec::kNone:
      if (input_size != decompressed_size) {
        return Status::Corruption("uncompressed chunk size mismatch");
      }
      out->assign(input, input + input_size);
      return Status::OK();
    case Codec::kLz:
      if (decompressed_size == 0) {
        out->clear();
        return input_size == 0
                   ? Status::OK()
                   : Status::Corruption("lz: nonempty stream for empty chunk");
      }
      return LzDecompress(input, input_size, decompressed_size, out);
  }
  return Status::Invalid("unknown codec");
}

}  // namespace hepq
