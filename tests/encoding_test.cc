#include <algorithm>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "fileio/compression.h"
#include "fileio/crc32.h"
#include "fileio/encoding.h"
#include "fileio/varint.h"

namespace hepq {
namespace {

// ---------------------------------------------------------------------------
// CRC32
// ---------------------------------------------------------------------------

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (IEEE reference vector).
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32("", 0), 0u); }

// Bitwise CRC-32 over the reflected IEEE polynomial: the oracle the
// table-driven Crc32 must match bit for bit, including seed chaining.
uint32_t ReferenceCrc32(const uint8_t* p, size_t n, uint32_t seed) {
  uint32_t c = ~seed;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xedb88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.NextU64());
  return bytes;
}

TEST(Crc32Test, MatchesOracleAtEveryLengthAndAlignment) {
  // Lengths 0..300 cover the byte tail alone, every tail after whole
  // 16-byte blocks, and many blocks; alignments 0..15 move the word loads
  // across every offset from the allocation's alignment.
  const std::vector<uint8_t> buf = RandomBytes(300 + 16, 5);
  Rng rng(9);
  for (size_t align = 0; align < 16; ++align) {
    for (size_t len = 0; len <= 300; ++len) {
      const uint32_t seed = static_cast<uint32_t>(rng.NextU64());
      const uint8_t* p = buf.data() + align;
      ASSERT_EQ(Crc32(p, len, seed), ReferenceCrc32(p, len, seed))
          << "align " << align << " len " << len << " seed " << seed;
    }
  }
}

TEST(Crc32Test, MatchesOracleOnOneMebibyte) {
  const std::vector<uint8_t> buf = RandomBytes(1 << 20, 11);
  EXPECT_EQ(Crc32(buf.data(), buf.size()),
            ReferenceCrc32(buf.data(), buf.size(), 0));
}

TEST(Crc32Test, SeedChainingIsSplitInvariant) {
  // The writer's chunk CRC chains page CRCs through `seed`:
  // Crc32(a || b) == Crc32(b, |b|, Crc32(a)) at every split point.
  const std::vector<uint8_t> buf = RandomBytes(300, 17);
  const uint32_t whole = Crc32(buf.data(), buf.size());
  ASSERT_EQ(whole, ReferenceCrc32(buf.data(), buf.size(), 0));
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = Crc32(buf.data(), split);
    ASSERT_EQ(Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(1024);
  Rng rng(3);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  const uint32_t crc = Crc32(data.data(), data.size());
  data[517] ^= 0x10;
  EXPECT_NE(Crc32(data.data(), data.size()), crc);
}

// ---------------------------------------------------------------------------
// Varint
// ---------------------------------------------------------------------------

TEST(VarintTest, RoundTripUnsigned) {
  std::vector<uint8_t> buf;
  const uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20, ~0ull};
  for (uint64_t v : values) PutVarint(&buf, v);
  ByteReader reader(buf.data(), buf.size());
  for (uint64_t v : values) {
    uint64_t out = 0;
    ASSERT_TRUE(reader.GetVarint(&out).ok());
    EXPECT_EQ(out, v);
  }
  EXPECT_TRUE(reader.AtEnd());
}

TEST(VarintTest, RoundTripSigned) {
  std::vector<uint8_t> buf;
  const int64_t values[] = {0, -1, 1, -64, 64, -1000000, 1000000,
                            INT64_MIN, INT64_MAX};
  for (int64_t v : values) PutSignedVarint(&buf, v);
  ByteReader reader(buf.data(), buf.size());
  for (int64_t v : values) {
    int64_t out = 0;
    ASSERT_TRUE(reader.GetSignedVarint(&out).ok());
    EXPECT_EQ(out, v);
  }
}

TEST(VarintTest, TruncatedFails) {
  std::vector<uint8_t> buf;
  PutVarint(&buf, 1u << 30);
  ByteReader reader(buf.data(), buf.size() - 1);
  uint64_t out;
  EXPECT_EQ(reader.GetVarint(&out).code(), StatusCode::kCorruption);
}

TEST(VarintTest, StringsAndFixed) {
  std::vector<uint8_t> buf;
  PutString(&buf, "hello");
  PutFixed32(&buf, 0xdeadbeef);
  PutDouble(&buf, 3.25);
  ByteReader reader(buf.data(), buf.size());
  std::string s;
  uint32_t u;
  double d;
  ASSERT_TRUE(reader.GetString(&s).ok());
  ASSERT_TRUE(reader.GetFixed32(&u).ok());
  ASSERT_TRUE(reader.GetDouble(&d).ok());
  EXPECT_EQ(s, "hello");
  EXPECT_EQ(u, 0xdeadbeefu);
  EXPECT_DOUBLE_EQ(d, 3.25);
}

// ---------------------------------------------------------------------------
// Value encodings
// ---------------------------------------------------------------------------

TEST(EncodingTest, PlainFloatRoundTrip) {
  const std::vector<float> values = {1.5f, -2.25f, 0.0f, 1e30f};
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kFloat32, Encoding::kPlain,
                           values.data(), values.size(), &encoded)
                  .ok());
  EXPECT_EQ(encoded.size(), values.size() * 4);
  std::vector<float> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kFloat32, Encoding::kPlain,
                           encoded.data(), encoded.size(), values.size(),
                           decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, RleCompressesRuns) {
  std::vector<int32_t> values(10000, 7);
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt32, Encoding::kRleVarint,
                           values.data(), values.size(), &encoded)
                  .ok());
  EXPECT_LT(encoded.size(), 16u);
  std::vector<int32_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt32, Encoding::kRleVarint,
                           encoded.data(), encoded.size(), values.size(),
                           decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, RleRejectsFloat) {
  const float v = 1.0f;
  std::vector<uint8_t> out;
  EXPECT_FALSE(
      EncodeValues(TypeId::kFloat32, Encoding::kRleVarint, &v, 1, &out).ok());
}

TEST(EncodingTest, BitPackBools) {
  std::vector<uint8_t> values = {1, 0, 1, 1, 0, 0, 0, 1, 1};
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kBool, Encoding::kBitPack, values.data(),
                           values.size(), &encoded)
                  .ok());
  EXPECT_EQ(encoded.size(), 2u);
  std::vector<uint8_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kBool, Encoding::kBitPack, encoded.data(),
                           encoded.size(), values.size(), decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, DecodeRleDetectsOverrun) {
  std::vector<uint8_t> encoded;
  PutVarint(&encoded, 100);       // run of 100 ...
  PutSignedVarint(&encoded, 42);  // ... but we only ask for 5 values
  int32_t out[5];
  EXPECT_EQ(DecodeValues(TypeId::kInt32, Encoding::kRleVarint,
                         encoded.data(), encoded.size(), 5, out)
                .code(),
            StatusCode::kCorruption);
}

TEST(EncodingTest, DeltaCompressesMonotonicIds) {
  std::vector<int64_t> ids(10000);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = 1000000 + static_cast<int64_t>(i);
  }
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt64, Encoding::kDeltaVarint,
                           ids.data(), ids.size(), &encoded)
                  .ok());
  // First value is a multi-byte varint; every delta is one byte.
  EXPECT_LT(encoded.size(), ids.size() + 8);
  std::vector<int64_t> decoded(ids.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt64, Encoding::kDeltaVarint,
                           encoded.data(), encoded.size(), ids.size(),
                           decoded.data())
                  .ok());
  EXPECT_EQ(decoded, ids);
}

TEST(EncodingTest, DeltaRoundTripsNegativeJumps) {
  const std::vector<int32_t> values = {5, -1000000, 5, 0, INT32_MAX,
                                       INT32_MIN, 7};
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt32, Encoding::kDeltaVarint,
                           values.data(), values.size(), &encoded)
                  .ok());
  std::vector<int32_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt32, Encoding::kDeltaVarint,
                           encoded.data(), encoded.size(), values.size(),
                           decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, DeltaRejectsFloats) {
  const float v = 1.0f;
  std::vector<uint8_t> out;
  EXPECT_FALSE(
      EncodeValues(TypeId::kFloat32, Encoding::kDeltaVarint, &v, 1, &out)
          .ok());
}

// ---------------------------------------------------------------------------
// Dictionary and frame-of-reference encodings (the advanced integer set)
// ---------------------------------------------------------------------------

TEST(EncodingTest, DictRoundTripLowCardinality) {
  // Scattered magnitudes with only four distinct values: the dictionary
  // case that plain/RLE/delta all handle badly.
  std::vector<int32_t> values(4096);
  const int32_t alphabet[] = {-2000000, 13, 999999, INT32_MAX};
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = alphabet[(i * 7 + i / 3) % 4];
  }
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt32, Encoding::kDict, values.data(),
                           values.size(), &encoded)
                  .ok());
  // Two index bits per value plus a tiny dictionary.
  EXPECT_LT(encoded.size(), values.size() / 2);
  std::vector<int32_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt32, Encoding::kDict, encoded.data(),
                           encoded.size(), values.size(), decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, DictRoundTripInt64Extremes) {
  const std::vector<int64_t> values = {INT64_MIN, 0, INT64_MAX, 0,
                                       INT64_MIN, INT64_MAX, -1};
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt64, Encoding::kDict, values.data(),
                           values.size(), &encoded)
                  .ok());
  std::vector<int64_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt64, Encoding::kDict, encoded.data(),
                           encoded.size(), values.size(), decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, DictSingleValueCarriesNoIndices) {
  std::vector<int32_t> values(1000, 42);
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt32, Encoding::kDict, values.data(),
                           values.size(), &encoded)
                  .ok());
  // varint(1) + zig-zag varint(42): the indices are width 0.
  EXPECT_EQ(encoded.size(), 2u);
  std::vector<int32_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt32, Encoding::kDict, encoded.data(),
                           encoded.size(), values.size(), decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, DictAllDistinctRoundTrips) {
  std::vector<int32_t> values(257);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int32_t>(static_cast<uint32_t>(i) * 2654435761u);
  }
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt32, Encoding::kDict, values.data(),
                           values.size(), &encoded)
                  .ok());
  std::vector<int32_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt32, Encoding::kDict, encoded.data(),
                           encoded.size(), values.size(), decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, DictRejectsFloat) {
  const float v = 1.0f;
  std::vector<uint8_t> out;
  EXPECT_FALSE(
      EncodeValues(TypeId::kFloat32, Encoding::kDict, &v, 1, &out).ok());
}

TEST(EncodingTest, DecodeDictRejectsOversizedDictionary) {
  // A dictionary larger than the page's value count cannot come from an
  // honest encoder; a crafted count must not trigger a huge allocation.
  std::vector<uint8_t> encoded;
  PutVarint(&encoded, 1u << 30);
  int32_t out[4];
  EXPECT_EQ(DecodeValues(TypeId::kInt32, Encoding::kDict, encoded.data(),
                         encoded.size(), 4, out)
                .code(),
            StatusCode::kCorruption);
}

TEST(EncodingTest, DecodeDictRejectsIndexOutOfRange) {
  // Three dictionary entries -> width 2; a packed index of 3 points past
  // the dictionary.
  std::vector<uint8_t> encoded;
  PutVarint(&encoded, 3);
  PutSignedVarint(&encoded, 10);
  PutSignedVarint(&encoded, 20);
  PutSignedVarint(&encoded, 30);
  encoded.push_back(0x03);  // indices {3, 0}; padding bits zero
  int32_t out[2];
  EXPECT_EQ(DecodeValues(TypeId::kInt32, Encoding::kDict, encoded.data(),
                         encoded.size(), 2, out)
                .code(),
            StatusCode::kCorruption);
}

TEST(EncodingTest, DecodeDictRejectsValueOutsideInt32) {
  std::vector<uint8_t> encoded;
  PutVarint(&encoded, 1);
  PutSignedVarint(&encoded, int64_t{1} << 40);
  int32_t out[3];
  EXPECT_EQ(DecodeValues(TypeId::kInt32, Encoding::kDict, encoded.data(),
                         encoded.size(), 3, out)
                .code(),
            StatusCode::kCorruption);
}

TEST(EncodingTest, DecodeDictRejectsTrailingBytes) {
  std::vector<uint8_t> encoded;
  PutVarint(&encoded, 1);
  PutSignedVarint(&encoded, 5);
  encoded.push_back(0xff);
  int32_t out[4];
  EXPECT_EQ(DecodeValues(TypeId::kInt32, Encoding::kDict, encoded.data(),
                         encoded.size(), 4, out)
                .code(),
            StatusCode::kCorruption);
}

TEST(EncodingTest, DecodeDictRejectsNonzeroPaddingBits) {
  // Two entries -> width 1; three values use 3 bits, so bits 3..7 of the
  // single index byte are padding and must be zero.
  std::vector<uint8_t> encoded;
  PutVarint(&encoded, 2);
  PutSignedVarint(&encoded, 1);
  PutSignedVarint(&encoded, 2);
  encoded.push_back(0xf8);
  int32_t out[3];
  EXPECT_EQ(DecodeValues(TypeId::kInt32, Encoding::kDict, encoded.data(),
                         encoded.size(), 3, out)
                .code(),
            StatusCode::kCorruption);
}

TEST(EncodingTest, ForRoundTripNarrowSpan) {
  // A large base with a narrow spread: frame-of-reference's home turf.
  std::vector<int32_t> values(4096);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 1000000000 + static_cast<int32_t>((i * 37) % 8192);
  }
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt32, Encoding::kFor, values.data(),
                           values.size(), &encoded)
                  .ok());
  // 13 offset bits per value instead of 32.
  EXPECT_LT(encoded.size(), values.size() * 2);
  std::vector<int32_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt32, Encoding::kFor, encoded.data(),
                           encoded.size(), values.size(), decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, ForRoundTripInt64FullSpan) {
  // INT64_MIN..INT64_MAX spans the whole 64-bit range; the offsets must
  // wrap in uint64 arithmetic rather than overflow.
  const std::vector<int64_t> values = {INT64_MIN, -1, 0, 1, INT64_MAX};
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt64, Encoding::kFor, values.data(),
                           values.size(), &encoded)
                  .ok());
  std::vector<int64_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt64, Encoding::kFor, encoded.data(),
                           encoded.size(), values.size(), decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, ForConstantIsTwoBytes) {
  std::vector<int32_t> values(5000, -7);
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt32, Encoding::kFor, values.data(),
                           values.size(), &encoded)
                  .ok());
  EXPECT_EQ(encoded.size(), 2u);  // base varint + width byte 0
  std::vector<int32_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt32, Encoding::kFor, encoded.data(),
                           encoded.size(), values.size(), decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

TEST(EncodingTest, ForRejectsFloat) {
  const float v = 1.0f;
  std::vector<uint8_t> out;
  EXPECT_FALSE(
      EncodeValues(TypeId::kFloat32, Encoding::kFor, &v, 1, &out).ok());
}

TEST(EncodingTest, DecodeForRejectsWidthOver64) {
  std::vector<uint8_t> encoded;
  PutSignedVarint(&encoded, 0);
  encoded.push_back(65);
  int32_t out[1];
  EXPECT_EQ(DecodeValues(TypeId::kInt32, Encoding::kFor, encoded.data(),
                         encoded.size(), 1, out)
                .code(),
            StatusCode::kCorruption);
}

TEST(EncodingTest, DecodeForRejectsValueOutsideInt32) {
  // base INT32_MAX + offset 1 lands outside the leaf's physical type.
  std::vector<uint8_t> encoded;
  PutSignedVarint(&encoded, INT32_MAX);
  encoded.push_back(1);
  encoded.push_back(0x01);
  int32_t out[1];
  EXPECT_EQ(DecodeValues(TypeId::kInt32, Encoding::kFor, encoded.data(),
                         encoded.size(), 1, out)
                .code(),
            StatusCode::kCorruption);
}

TEST(EncodingTest, DecodeForRejectsSizeMismatch) {
  // Width 8 with two values needs exactly two offset bytes; one is short,
  // three has a trailing byte — both must be rejected.
  for (const size_t extra : {size_t{1}, size_t{3}}) {
    std::vector<uint8_t> encoded;
    PutSignedVarint(&encoded, 100);
    encoded.push_back(8);
    for (size_t i = 0; i < extra; ++i) encoded.push_back(0);
    int32_t out[2];
    EXPECT_EQ(DecodeValues(TypeId::kInt32, Encoding::kFor, encoded.data(),
                           encoded.size(), 2, out)
                  .code(),
              StatusCode::kCorruption);
  }
}

TEST(EncodingTest, DictAndForEmptyPages) {
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(
      EncodeValues(TypeId::kInt32, Encoding::kDict, nullptr, 0, &encoded)
          .ok());
  ASSERT_TRUE(DecodeValues(TypeId::kInt32, Encoding::kDict, encoded.data(),
                           encoded.size(), 0, nullptr)
                  .ok());
  ASSERT_TRUE(
      EncodeValues(TypeId::kInt64, Encoding::kFor, nullptr, 0, &encoded)
          .ok());
  ASSERT_TRUE(DecodeValues(TypeId::kInt64, Encoding::kFor, encoded.data(),
                           encoded.size(), 0, nullptr)
                  .ok());
}

/// Property sweep: dict and FOR round-trip random low-cardinality data
/// (the distribution the optimizer targets them at).
class AdvancedEncodingProperty : public ::testing::TestWithParam<int> {};

TEST_P(AdvancedEncodingProperty, RoundTripRandom) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 131);
  const size_t n = 1 + rng.NextBelow(3000);
  const uint64_t cardinality = 1 + rng.NextBelow(40);
  std::vector<int64_t> values(n);
  for (auto& v : values) {
    v = static_cast<int64_t>(rng.NextBelow(cardinality)) * 1000003 - 500;
  }
  for (const Encoding enc : {Encoding::kDict, Encoding::kFor}) {
    std::vector<uint8_t> encoded;
    ASSERT_TRUE(
        EncodeValues(TypeId::kInt64, enc, values.data(), n, &encoded).ok());
    std::vector<int64_t> decoded(n);
    ASSERT_TRUE(DecodeValues(TypeId::kInt64, enc, encoded.data(),
                             encoded.size(), n, decoded.data())
                    .ok());
    EXPECT_EQ(decoded, values);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdvancedEncodingProperty,
                         ::testing::Range(1, 9));

TEST(EncodingTest, ChooseEncodingPicksDeltaForMonotonicData) {
  std::vector<int64_t> ids(4096);
  for (size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int64_t>(i);
  }
  EXPECT_EQ(ChooseEncoding(TypeId::kInt64, ids.data(), ids.size()),
            Encoding::kDeltaVarint);
}

TEST(EncodingTest, ChooseEncodingHeuristics) {
  std::vector<int32_t> runs(1000, -1);
  EXPECT_EQ(ChooseEncoding(TypeId::kInt32, runs.data(), runs.size()),
            Encoding::kRleVarint);
  std::vector<int32_t> distinct(1000);
  for (int i = 0; i < 1000; ++i) {
    // Scattered values: no runs, large deltas -> plain is best.
    distinct[static_cast<size_t>(i)] =
        static_cast<int32_t>(static_cast<uint32_t>(i) * 2654435761u);
  }
  EXPECT_EQ(ChooseEncoding(TypeId::kInt32, distinct.data(), distinct.size()),
            Encoding::kPlain);
  const float f = 0.0f;
  EXPECT_EQ(ChooseEncoding(TypeId::kFloat32, &f, 1), Encoding::kPlain);
  const uint8_t b = 1;
  EXPECT_EQ(ChooseEncoding(TypeId::kBool, &b, 1), Encoding::kBitPack);
}

TEST(EncodingTest, ChooseEncodingAdvancedPicksDictAndFor) {
  // Low cardinality, scattered magnitudes: classic selection settles on
  // plain, advanced finds the dictionary.
  std::vector<int32_t> low_card(4096);
  const int32_t alphabet[] = {-2000000, 13, 999999, 77};
  for (size_t i = 0; i < low_card.size(); ++i) {
    // (i*3)%4 cycles with period 4: no runs for RLE, no small deltas.
    low_card[i] = alphabet[(i * 3) % 4];
  }
  EXPECT_EQ(ChooseEncoding(TypeId::kInt32, low_card.data(), low_card.size()),
            Encoding::kPlain);
  EXPECT_EQ(ChooseEncoding(TypeId::kInt32, low_card.data(), low_card.size(),
                           /*advanced=*/true),
            Encoding::kDict);

  // High cardinality, narrow span on a large base, scattered order (so
  // delta cannot claim it): the dictionary is bigger than the data,
  // frame-of-reference wins.
  std::vector<int32_t> narrow(4096);
  for (size_t i = 0; i < narrow.size(); ++i) {
    narrow[i] = 1000000000 +
                static_cast<int32_t>((static_cast<uint32_t>(i) * 2654435761u) %
                                     8192u);
  }
  EXPECT_EQ(ChooseEncoding(TypeId::kInt32, narrow.data(), narrow.size(),
                           /*advanced=*/true),
            Encoding::kFor);
}

TEST(EncodingTest, ChooseEncodingAdvancedKeepsClassicUnlessClearlyBetter) {
  // Span just under 2^28 -> 28 offset bits -> exactly 7/8 of plain's 32.
  // That misses the "at least 1/8 smaller" margin, so plain stays.
  std::vector<int32_t> wide(4096);
  for (size_t i = 0; i < wide.size(); ++i) {
    wide[i] = static_cast<int32_t>((static_cast<uint32_t>(i) * 2654435761u) &
                                   0x0fffffffu);
  }
  EXPECT_EQ(ChooseEncoding(TypeId::kInt32, wide.data(), wide.size(),
                           /*advanced=*/true),
            Encoding::kPlain);
  // Advanced selection never touches floats or bools.
  const float f = 0.0f;
  EXPECT_EQ(ChooseEncoding(TypeId::kFloat32, &f, 1, /*advanced=*/true),
            Encoding::kPlain);
  const uint8_t b = 1;
  EXPECT_EQ(ChooseEncoding(TypeId::kBool, &b, 1, /*advanced=*/true),
            Encoding::kBitPack);
}

/// Whatever ChooseEncoding picks must round-trip: sweep distributions
/// through the full pick-encode-decode path with advanced selection on.
TEST(EncodingTest, ChooseEncodingAdvancedAlwaysRoundTrips) {
  Rng rng(977);
  for (int trial = 0; trial < 24; ++trial) {
    const size_t n = 1 + rng.NextBelow(2000);
    const uint64_t cardinality = 1 + rng.NextBelow(1 + (trial * 97) % 512);
    std::vector<int64_t> values(n);
    for (auto& v : values) {
      v = static_cast<int64_t>(rng.NextBelow(cardinality)) * 37 +
          (trial % 3 == 0 ? 1000000000 : -64);
    }
    const Encoding enc = ChooseEncoding(TypeId::kInt64, values.data(), n,
                                        /*advanced=*/true);
    std::vector<uint8_t> encoded;
    ASSERT_TRUE(
        EncodeValues(TypeId::kInt64, enc, values.data(), n, &encoded).ok());
    std::vector<int64_t> decoded(n);
    ASSERT_TRUE(DecodeValues(TypeId::kInt64, enc, encoded.data(),
                             encoded.size(), n, decoded.data())
                    .ok());
    EXPECT_EQ(decoded, values);
  }
}

/// Property sweep: RLE round-trips arbitrary int sequences with varying
/// run structure.
class RleProperty : public ::testing::TestWithParam<int> {};

TEST_P(RleProperty, RoundTripRandomRuns) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  std::vector<int64_t> values;
  while (values.size() < 5000) {
    const int64_t v = static_cast<int64_t>(rng.NextU64() % 1000) - 500;
    const uint64_t run = 1 + rng.NextBelow(20);
    for (uint64_t k = 0; k < run; ++k) values.push_back(v);
  }
  std::vector<uint8_t> encoded;
  ASSERT_TRUE(EncodeValues(TypeId::kInt64, Encoding::kRleVarint,
                           values.data(), values.size(), &encoded)
                  .ok());
  std::vector<int64_t> decoded(values.size());
  ASSERT_TRUE(DecodeValues(TypeId::kInt64, Encoding::kRleVarint,
                           encoded.data(), encoded.size(), values.size(),
                           decoded.data())
                  .ok());
  EXPECT_EQ(decoded, values);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RleProperty, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// LZ compression
// ---------------------------------------------------------------------------

std::vector<uint8_t> RoundTrip(const std::vector<uint8_t>& input) {
  std::vector<uint8_t> compressed;
  EXPECT_TRUE(
      Compress(Codec::kLz, input.data(), input.size(), &compressed).ok());
  std::vector<uint8_t> output;
  EXPECT_TRUE(Decompress(Codec::kLz, compressed.data(), compressed.size(),
                         input.size(), &output)
                  .ok());
  return output;
}

TEST(LzTest, EmptyInput) {
  EXPECT_TRUE(RoundTrip({}).empty());
}

TEST(LzTest, ShortLiteralOnly) {
  const std::vector<uint8_t> input = {1, 2, 3};
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzTest, RepetitiveDataCompresses) {
  std::vector<uint8_t> input;
  for (int i = 0; i < 1000; ++i) {
    input.insert(input.end(), {'a', 'b', 'c', 'd', 'e', 'f'});
  }
  std::vector<uint8_t> compressed;
  ASSERT_TRUE(
      Compress(Codec::kLz, input.data(), input.size(), &compressed).ok());
  EXPECT_LT(compressed.size(), input.size() / 10);
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzTest, OverlappingMatch) {
  // A run of a single byte forces self-overlapping match copies.
  std::vector<uint8_t> input(5000, 'x');
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzTest, IncompressibleRandomData) {
  Rng rng(61);
  std::vector<uint8_t> input(65536);
  for (auto& b : input) b = static_cast<uint8_t>(rng.NextU64());
  EXPECT_EQ(RoundTrip(input), input);
}

TEST(LzTest, DecompressRejectsWrongSize) {
  const std::vector<uint8_t> input = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint8_t> compressed;
  ASSERT_TRUE(
      Compress(Codec::kLz, input.data(), input.size(), &compressed).ok());
  std::vector<uint8_t> output;
  const Status status = Decompress(Codec::kLz, compressed.data(),
                                   compressed.size(), input.size() + 1,
                                   &output);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(status.message(), "lz: decompressed size mismatch");
}

TEST(LzTest, DecompressRejectsGarbage) {
  // Token demanding a match with offset 0xffff into an empty window.
  const std::vector<uint8_t> garbage = {0x0f, 0xff, 0xff};
  std::vector<uint8_t> output;
  const Status status =
      Decompress(Codec::kLz, garbage.data(), garbage.size(), 100, &output);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(status.message(), "lz: truncated match len");
}

// Appends one sequence in the LZ token format, written independently of the
// codec's encoder: `literals`, then (match_len > 0) a match of `match_len`
// bytes starting `offset` bytes back.
void PutLzSequence(std::vector<uint8_t>* stream,
                   const std::vector<uint8_t>& literals, size_t match_len = 0,
                   size_t offset = 0) {
  auto put_extension = [stream](size_t rest) {
    for (; rest >= 255; rest -= 255) stream->push_back(255);
    stream->push_back(static_cast<uint8_t>(rest));
  };
  const size_t literal_len = literals.size();
  const size_t match_code = match_len == 0 ? 0 : match_len - 4;
  stream->push_back(
      static_cast<uint8_t>((std::min<size_t>(literal_len, 15) << 4) |
                           std::min<size_t>(match_code, 15)));
  if (literal_len >= 15) put_extension(literal_len - 15);
  stream->insert(stream->end(), literals.begin(), literals.end());
  if (match_len == 0) return;
  stream->push_back(static_cast<uint8_t>(offset & 0xff));
  stream->push_back(static_cast<uint8_t>(offset >> 8));
  if (match_code >= 15) put_extension(match_code - 15);
}

// The decoder's semantics spelled out one byte at a time: each match byte
// copies the byte `offset` positions before it, so overlaps repeat.
void AppendMatch(std::vector<uint8_t>* out, size_t match_len, size_t offset) {
  for (size_t i = 0; i < match_len; ++i) {
    out->push_back((*out)[out->size() - offset]);
  }
}

Status LzDecode(const std::vector<uint8_t>& stream, size_t expected,
                std::vector<uint8_t>* out) {
  return Decompress(Codec::kLz, stream.data(), stream.size(), expected, out);
}

TEST(LzTest, OverlappingMatchAtEveryShortOffset) {
  for (size_t offset = 1; offset <= 15; ++offset) {
    for (size_t match_len : {offset + 1, offset + 4, 2 * offset + 3,
                             size_t{64}, size_t{300}}) {
      if (match_len < 4 || match_len <= offset) continue;
      std::vector<uint8_t> want = RandomBytes(offset, 100 + offset);
      std::vector<uint8_t> stream;
      PutLzSequence(&stream, want, match_len, offset);
      AppendMatch(&want, match_len, offset);
      std::vector<uint8_t> out;
      ASSERT_TRUE(LzDecode(stream, want.size(), &out).ok())
          << "offset " << offset << " match_len " << match_len;
      EXPECT_EQ(out, want) << "offset " << offset << " match_len "
                           << match_len;
    }
  }
}

TEST(LzTest, MatchAdjacentToItsSource) {
  // offset == match_len: source and destination touch without overlapping.
  for (size_t len = 4; len <= 40; ++len) {
    std::vector<uint8_t> want = RandomBytes(len, 200 + len);
    std::vector<uint8_t> stream;
    PutLzSequence(&stream, want, len, len);
    PutLzSequence(&stream, {7, 8, 9});
    AppendMatch(&want, len, len);
    want.insert(want.end(), {7, 8, 9});
    std::vector<uint8_t> out;
    ASSERT_TRUE(LzDecode(stream, want.size(), &out).ok()) << "len " << len;
    EXPECT_EQ(out, want) << "len " << len;
  }
}

TEST(LzTest, LiteralLengthExtensionBoundaries) {
  // 14 fits the nibble; 15 needs one extension byte of 0; 15 + 255 needs
  // 255 then 0; 15 + 255 + 1 needs 255 then 1.
  for (size_t len : {14, 15, 15 + 255, 15 + 255 + 1}) {
    const std::vector<uint8_t> literals = RandomBytes(len, 300 + len);
    std::vector<uint8_t> stream;
    PutLzSequence(&stream, literals);
    const size_t extension_bytes = len < 15 ? 0 : 1 + (len - 15) / 255;
    EXPECT_EQ(stream.size(), 1 + extension_bytes + len);
    // Random bytes this short hold no 4-byte repeat, so the codec's own
    // encoder emits the same single literal run.
    std::vector<uint8_t> compressed;
    ASSERT_TRUE(
        Compress(Codec::kLz, literals.data(), len, &compressed).ok());
    EXPECT_EQ(compressed, stream) << "len " << len;
    std::vector<uint8_t> out;
    ASSERT_TRUE(LzDecode(stream, len, &out).ok()) << "len " << len;
    EXPECT_EQ(out, literals) << "len " << len;
  }
}

TEST(LzTest, MatchLengthExtensionBoundaries) {
  // Match codes (length - 4) at the same nibble/extension boundaries, each
  // as an overlapping match (offset 5) and as a disjoint one.
  for (size_t code : {14, 15, 15 + 255, 15 + 255 + 1}) {
    const size_t match_len = code + 4;
    for (size_t offset : {size_t{5}, match_len}) {
      std::vector<uint8_t> want = RandomBytes(offset, 400 + code + offset);
      std::vector<uint8_t> stream;
      PutLzSequence(&stream, want, match_len, offset);
      AppendMatch(&want, match_len, offset);
      std::vector<uint8_t> out;
      ASSERT_TRUE(LzDecode(stream, want.size(), &out).ok())
          << "code " << code << " offset " << offset;
      EXPECT_EQ(out, want) << "code " << code << " offset " << offset;
    }
  }
}

TEST(LzTest, FirstMatchMayReachTheFirstByte) {
  const std::vector<uint8_t> literals = {1, 2, 3, 4, 5, 6, 7};
  std::vector<uint8_t> stream;
  PutLzSequence(&stream, literals, 9, literals.size());
  std::vector<uint8_t> want = literals;
  AppendMatch(&want, 9, literals.size());
  std::vector<uint8_t> out;
  ASSERT_TRUE(LzDecode(stream, want.size(), &out).ok());
  EXPECT_EQ(out, want);
  // One byte further back is before the start of the output.
  stream.clear();
  PutLzSequence(&stream, literals, 9, literals.size() + 1);
  const Status status = LzDecode(stream, want.size(), &out);
  EXPECT_EQ(status.message(), "lz: invalid match offset");
}

TEST(LzTest, RejectionMessages) {
  struct Case {
    std::vector<uint8_t> stream;
    size_t expected;
    const char* message;
    size_t produced;  // bytes left in `out` by the failing call
  };
  const std::vector<Case> cases = {
      {{0xf0}, 100, "lz: truncated literal len", 0},
      {{0x30, 'a'}, 100, "lz: literal run past end", 0},
      {{0x30, 'a', 'b', 'c'}, 2, "lz: output exceeds expected size", 0},
      {{0x11, 'a', 0x01}, 100, "lz: truncated offset", 1},
      {{0x1f, 'a', 0x01, 0x00}, 100, "lz: truncated match len", 1},
      {{0x00, 0x01, 0x00}, 100, "lz: invalid match offset", 0},
      {{0x10, 'a', 0x00, 0x00}, 100, "lz: invalid match offset", 1},
      {{0x10, 'a', 0x01, 0x00}, 3, "lz: output exceeds expected size", 1},
      {{0x10, 'a', 0x01, 0x00, 0x10, 'b'},
       5,
       "lz: output exceeds expected size",
       5},
      {{0x10, 'a'}, 2, "lz: decompressed size mismatch", 1},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> out(7, 0xee);
    const Status status = LzDecode(c.stream, c.expected, &out);
    EXPECT_EQ(status.code(), StatusCode::kCorruption) << c.message;
    EXPECT_EQ(status.message(), c.message);
    EXPECT_EQ(out.size(), c.produced) << c.message;
  }
  const std::vector<uint8_t> nonempty = {0x10, 'a'};
  std::vector<uint8_t> out;
  EXPECT_EQ(LzDecode(nonempty, 0, &out).message(),
            "lz: nonempty stream for empty chunk");
}

TEST(LzTest, SeededRoundTrips) {
  // Random, run-heavy and repeated-pattern inputs of 0-64 KiB, decoded into
  // a reused buffer of unrelated size.
  std::vector<uint8_t> out;
  for (uint64_t seed = 1; seed <= 36; ++seed) {
    Rng rng(seed);
    const size_t n = static_cast<size_t>(rng.NextBelow(64 * 1024 + 1));
    std::vector<uint8_t> input;
    input.reserve(n);
    switch (seed % 3) {
      case 0:
        input = RandomBytes(n, 1000 + seed);
        break;
      case 1:
        while (input.size() < n) {
          const uint8_t v = static_cast<uint8_t>(rng.NextBelow(4));
          const size_t run = 1 + rng.NextBelow(300);
          input.insert(input.end(), std::min(run, n - input.size()), v);
        }
        break;
      default: {
        const std::vector<uint8_t> pattern =
            RandomBytes(1 + rng.NextBelow(40), 2000 + seed);
        while (input.size() < n) {
          input.push_back(pattern[input.size() % pattern.size()]);
          if (rng.NextBelow(500) == 0) input.back() ^= 0x5a;
        }
        break;
      }
    }
    std::vector<uint8_t> compressed;
    ASSERT_TRUE(
        Compress(Codec::kLz, input.data(), input.size(), &compressed).ok());
    out.assign(rng.NextBelow(2 * n + 1), 0xee);
    ASSERT_TRUE(Decompress(Codec::kLz, compressed.data(), compressed.size(),
                           input.size(), &out)
                    .ok())
        << "seed " << seed;
    EXPECT_EQ(out, input) << "seed " << seed << " n " << n;
  }
}

TEST(CodecTest, NoneCodecPassesThrough) {
  const std::vector<uint8_t> input = {9, 8, 7};
  std::vector<uint8_t> compressed, output;
  ASSERT_TRUE(
      Compress(Codec::kNone, input.data(), input.size(), &compressed).ok());
  EXPECT_EQ(compressed, input);
  ASSERT_TRUE(Decompress(Codec::kNone, compressed.data(), compressed.size(),
                         input.size(), &output)
                  .ok());
  EXPECT_EQ(output, input);
  EXPECT_FALSE(Decompress(Codec::kNone, compressed.data(),
                          compressed.size(), 2, &output)
                   .ok());
}

/// Property sweep over sizes: round-trip structured float-like data (the
/// realistic column content).
class LzSizeProperty : public ::testing::TestWithParam<int> {};

TEST_P(LzSizeProperty, RoundTrip) {
  const size_t n = static_cast<size_t>(GetParam());
  Rng rng(71 + n);
  std::vector<uint8_t> input(n);
  // Mix of runs and noise, like encoded int columns.
  size_t i = 0;
  while (i < n) {
    const uint8_t v = static_cast<uint8_t>(rng.NextBelow(8));
    const size_t run = 1 + rng.NextBelow(32);
    for (size_t k = 0; k < run && i < n; ++k) input[i++] = v;
  }
  EXPECT_EQ(RoundTrip(input), input);
}

INSTANTIATE_TEST_SUITE_P(Sizes, LzSizeProperty,
                         ::testing::Values(1, 2, 4, 15, 16, 17, 255, 256,
                                           1000, 65535, 65536, 300000));

}  // namespace
}  // namespace hepq
