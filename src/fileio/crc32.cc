#include "fileio/crc32.h"

#include <cstring>

namespace hepq {

namespace {

// The word load below reads stream bytes in little-endian order, as every
// other on-disk field of the format does.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "Crc32's word load assumes a little-endian host");

// Slice-by-16 tables: t[0] is the classic byte table of the reflected IEEE
// polynomial, and t[k][i] is the CRC contribution of byte i followed by k
// zero bytes, so sixteen lookups fold a 16-byte block at once.
struct Crc32Tables {
  uint32_t t[16][256] = {};
  constexpr Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (int k = 1; k < 16; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
  }
};

constexpr Crc32Tables kTables;

}  // namespace

uint32_t Crc32(const void* data, size_t length, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  const auto& t = kTables.t;
  uint32_t c = seed ^ 0xffffffffu;
  for (; length >= 16; p += 16, length -= 16) {
    // Only the first four bytes mix with the running CRC, so they are one
    // word load; the other twelve index their tables straight from memory,
    // which costs fewer instructions than shifting them out of words.
    uint32_t w;
    std::memcpy(&w, p, sizeof(w));
    w ^= c;
    c = t[15][w & 0xffu] ^ t[14][(w >> 8) & 0xffu] ^
        t[13][(w >> 16) & 0xffu] ^ t[12][w >> 24] ^ t[11][p[4]] ^
        t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^ t[7][p[8]] ^ t[6][p[9]] ^
        t[5][p[10]] ^ t[4][p[11]] ^ t[3][p[12]] ^ t[2][p[13]] ^
        t[1][p[14]] ^ t[0][p[15]];
  }
  for (; length > 0; ++p, --length) {
    c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

}  // namespace hepq
