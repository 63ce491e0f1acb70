#include "storage/compression.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "common/rng.h"

namespace gphtap {
namespace {

std::vector<Datum> Ints(std::initializer_list<int64_t> vs) {
  std::vector<Datum> out;
  for (int64_t v : vs) out.push_back(Datum(v));
  return out;
}

void ExpectRoundTrip(CompressionKind kind, TypeId type, const std::vector<Datum>& vals) {
  CompressedBlock block;
  ASSERT_TRUE(CompressColumn(kind, type, vals, &block).ok());
  auto back = DecompressColumn(block);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->size(), vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    EXPECT_EQ((*back)[i].is_null(), vals[i].is_null()) << i;
    if (!vals[i].is_null()) EXPECT_EQ((*back)[i].Compare(vals[i]), 0) << i;
  }
}

class CodecRoundTripTest : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(CodecRoundTripTest, EmptyBlock) { ExpectRoundTrip(GetParam(), TypeId::kInt64, {}); }

TEST_P(CodecRoundTripTest, SmallInts) {
  ExpectRoundTrip(GetParam(), TypeId::kInt64, Ints({1, 2, 3, -4, 0, 1 << 20}));
}

TEST_P(CodecRoundTripTest, IntsWithNulls) {
  std::vector<Datum> vals = Ints({5, 5, 5});
  vals.insert(vals.begin() + 1, Datum::Null());
  vals.push_back(Datum::Null());
  ExpectRoundTrip(GetParam(), TypeId::kInt64, vals);
}

TEST_P(CodecRoundTripTest, AllNulls) {
  ExpectRoundTrip(GetParam(), TypeId::kInt64,
                  {Datum::Null(), Datum::Null(), Datum::Null()});
}

TEST_P(CodecRoundTripTest, Strings) {
  std::vector<Datum> vals = {Datum(std::string("alpha")), Datum(std::string("beta")),
                             Datum(std::string("alpha")), Datum(std::string("")),
                             Datum::Null()};
  ExpectRoundTrip(GetParam(), TypeId::kString, vals);
}

TEST_P(CodecRoundTripTest, Doubles) {
  std::vector<Datum> vals = {Datum(1.5), Datum(-2.25), Datum(0.0), Datum(1e300)};
  ExpectRoundTrip(GetParam(), TypeId::kDouble, vals);
}

TEST_P(CodecRoundTripTest, RandomIntFuzz) {
  Rng rng(99);
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<Datum> vals;
    size_t n = rng.Uniform(500);
    for (size_t i = 0; i < n; ++i) {
      if (rng.Chance(0.1)) {
        vals.push_back(Datum::Null());
      } else if (rng.Chance(0.5)) {
        vals.push_back(Datum(static_cast<int64_t>(rng.Uniform(16))));  // runs likely
      } else {
        vals.push_back(Datum(static_cast<int64_t>(rng.Next())));
      }
    }
    ExpectRoundTrip(GetParam(), TypeId::kInt64, vals);
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTripTest,
                         ::testing::Values(CompressionKind::kNone, CompressionKind::kRle,
                                           CompressionKind::kDelta, CompressionKind::kDict,
                                           CompressionKind::kLz),
                         [](const auto& info) {
                           return CompressionKindName(info.param);
                         });

// ---------- typed decode (DecompressInto) ----------

enum class Nulls { kNone, kSome, kAll };

// 300 values of `type` (with runs and repeats, so every codec has something
// to compress) where `nulls` decides which slots are NULL.
std::vector<Datum> TypedValues(TypeId type, Nulls nulls) {
  Rng rng(17);
  std::vector<Datum> vals;
  for (int i = 0; i < 300; ++i) {
    if (nulls == Nulls::kAll || (nulls == Nulls::kSome && i % 7 == 3)) {
      vals.push_back(Datum::Null());
      continue;
    }
    const int64_t v = i < 100 ? i / 10 : static_cast<int64_t>(rng.Next() % 50) - 25;
    switch (type) {
      case TypeId::kInt64:
        vals.push_back(Datum(v * 1'000'003));
        break;
      case TypeId::kDouble:
        vals.push_back(Datum(static_cast<double>(v) / 3.0));
        break;
      case TypeId::kString:
        vals.push_back(Datum("s" + std::to_string(v)));
        break;
    }
  }
  return vals;
}

class TypedDecodeTest
    : public ::testing::TestWithParam<std::tuple<CompressionKind, TypeId, Nulls>> {};

TEST_P(TypedDecodeTest, DecompressIntoAndWrapperReproduceInput) {
  const auto [kind, type, nulls] = GetParam();
  const std::vector<Datum> vals = TypedValues(type, nulls);
  CompressedBlock block;
  ASSERT_TRUE(CompressColumn(kind, type, vals, &block).ok());

  ColumnVector col;
  ASSERT_TRUE(DecompressInto(block, &col).ok());
  ASSERT_EQ(col.size(), vals.size());
  const ColumnVector::Tag want_tag = type == TypeId::kInt64    ? ColumnVector::Tag::kInt64
                                     : type == TypeId::kDouble ? ColumnVector::Tag::kDouble
                                                               : ColumnVector::Tag::kDatum;
  EXPECT_EQ(col.tag, want_tag);
  // The mask is materialized exactly when a typed column holds a NULL.
  EXPECT_EQ(col.nulls.empty(), nulls == Nulls::kNone || type == TypeId::kString);
  for (size_t i = 0; i < vals.size(); ++i) {
    ASSERT_EQ(col.IsNull(i), vals[i].is_null()) << i;
    if (vals[i].is_null()) continue;
    switch (type) {
      case TypeId::kInt64:
        EXPECT_EQ(col.ints[i], vals[i].int_val()) << i;
        break;
      case TypeId::kDouble:
        EXPECT_EQ(col.dbls[i], vals[i].double_val()) << i;
        break;
      case TypeId::kString:
        EXPECT_EQ(col.datums[i].string_val(), vals[i].string_val()) << i;
        break;
    }
  }

  auto boxed = DecompressColumn(block);
  ASSERT_TRUE(boxed.ok()) << boxed.status().ToString();
  ASSERT_EQ(boxed->size(), vals.size());
  for (size_t i = 0; i < vals.size(); ++i) {
    ASSERT_EQ((*boxed)[i].is_null(), vals[i].is_null()) << i;
    if (vals[i].is_null()) continue;
    EXPECT_EQ((*boxed)[i].is_int(), vals[i].is_int()) << i;
    EXPECT_EQ((*boxed)[i].is_double(), vals[i].is_double()) << i;
    EXPECT_EQ((*boxed)[i].Compare(vals[i]), 0) << i;
  }
}

TEST_P(TypedDecodeTest, TruncatedBlockIsInvalidArgument) {
  const auto [kind, type, nulls] = GetParam();
  CompressedBlock block;
  ASSERT_TRUE(CompressColumn(kind, type, TypedValues(type, nulls), &block).ok());
  const std::vector<uint8_t> full = block.bytes;
  for (size_t len = 0; len < full.size(); ++len) {
    block.bytes.assign(full.begin(), full.begin() + static_cast<long>(len));
    ColumnVector col;
    Status st = DecompressInto(block, &col);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "prefix " << len;
    EXPECT_EQ(col.size(), 0u) << "prefix " << len;
    EXPECT_EQ(DecompressColumn(block).status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_P(TypedDecodeTest, CorruptBytesNeverReadOutOfBounds) {
  // Random byte flips must decode to a full-length column or fail with
  // InvalidArgument; AddressSanitizer catches any read past the block.
  const auto [kind, type, nulls] = GetParam();
  CompressedBlock block;
  ASSERT_TRUE(CompressColumn(kind, type, TypedValues(type, nulls), &block).ok());
  const std::vector<uint8_t> full = block.bytes;
  Rng rng(static_cast<uint64_t>(kind) * 31 + static_cast<uint64_t>(type));
  for (int iter = 0; iter < 200; ++iter) {
    block.bytes = full;
    for (int flips = 1 + static_cast<int>(rng.Next() % 3); flips > 0; --flips) {
      block.bytes[rng.Next() % block.bytes.size()] = static_cast<uint8_t>(rng.Next());
    }
    ColumnVector col;
    Status st = DecompressInto(block, &col);
    if (st.ok()) {
      EXPECT_EQ(col.size(), block.count);
    } else {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    }
  }
}

std::string TypedDecodeName(const ::testing::TestParamInfo<TypedDecodeTest::ParamType>& info) {
  static const char* const kNulls[] = {"NoNulls", "SomeNulls", "AllNulls"};
  return std::string(CompressionKindName(std::get<0>(info.param))) + "_" +
         TypeIdName(std::get<1>(info.param)) + "_" +
         kNulls[static_cast<int>(std::get<2>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsTypesNulls, TypedDecodeTest,
    ::testing::Combine(::testing::Values(CompressionKind::kNone, CompressionKind::kRle,
                                         CompressionKind::kDelta, CompressionKind::kDict,
                                         CompressionKind::kLz),
                       ::testing::Values(TypeId::kInt64, TypeId::kDouble, TypeId::kString),
                       ::testing::Values(Nulls::kNone, Nulls::kSome, Nulls::kAll)),
    TypedDecodeName);

TEST(TypedDecodeCorruptTest, MalformedHeadersAreInvalidArgument) {
  CompressedBlock good;
  ASSERT_TRUE(CompressColumn(CompressionKind::kDict, TypeId::kInt64,
                             Ints({1, 2, 1, 2}), &good).ok());
  ColumnVector col;
  // A dictionary code past the dictionary.
  CompressedBlock bad_code = good;
  bad_code.bytes.back() = 9;
  EXPECT_EQ(DecompressInto(bad_code, &col).code(), StatusCode::kInvalidArgument);
  // More values claimed than the payload holds.
  CompressedBlock bad_count = good;
  bad_count.count = 12;
  EXPECT_EQ(DecompressInto(bad_count, &col).code(), StatusCode::kInvalidArgument);
  // Delta is an int-only codec.
  CompressedBlock bad_delta;
  ASSERT_TRUE(CompressColumn(CompressionKind::kDelta, TypeId::kInt64, Ints({1, 2}),
                             &bad_delta).ok());
  bad_delta.type = TypeId::kDouble;
  EXPECT_EQ(DecompressInto(bad_delta, &col).code(), StatusCode::kInvalidArgument);
  // Out-of-range codec and type tags.
  CompressedBlock bad_kind = good;
  bad_kind.kind = static_cast<CompressionKind>(77);
  EXPECT_EQ(DecompressInto(bad_kind, &col).code(), StatusCode::kInvalidArgument);
  CompressedBlock bad_type = good;
  bad_type.type = static_cast<TypeId>(77);
  EXPECT_EQ(DecompressInto(bad_type, &col).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(col.size(), 0u);
}

TEST(CompressionTest, RleShrinksRuns) {
  std::vector<Datum> vals(10000, Datum(int64_t{7}));
  CompressedBlock rle, raw;
  ASSERT_TRUE(CompressColumn(CompressionKind::kRle, TypeId::kInt64, vals, &rle).ok());
  ASSERT_TRUE(CompressColumn(CompressionKind::kNone, TypeId::kInt64, vals, &raw).ok());
  EXPECT_LT(rle.bytes.size() * 5, raw.bytes.size());
}

TEST(CompressionTest, DeltaShrinksSortedSequences) {
  std::vector<Datum> vals;
  for (int64_t i = 0; i < 10000; ++i) vals.push_back(Datum(1'000'000'000 + i));
  CompressedBlock delta, raw;
  ASSERT_TRUE(CompressColumn(CompressionKind::kDelta, TypeId::kInt64, vals, &delta).ok());
  ASSERT_TRUE(CompressColumn(CompressionKind::kNone, TypeId::kInt64, vals, &raw).ok());
  EXPECT_LT(delta.bytes.size() * 2, raw.bytes.size());
}

TEST(CompressionTest, DictShrinksLowCardinalityStrings) {
  std::vector<Datum> vals;
  const char* names[] = {"frequent_flyer", "occasional", "rare_visitor"};
  for (int i = 0; i < 3000; ++i) vals.push_back(Datum(std::string(names[i % 3])));
  CompressedBlock dict, raw;
  ASSERT_TRUE(CompressColumn(CompressionKind::kDict, TypeId::kString, vals, &dict).ok());
  ASSERT_TRUE(CompressColumn(CompressionKind::kNone, TypeId::kString, vals, &raw).ok());
  EXPECT_LT(dict.bytes.size() * 4, raw.bytes.size());
}

TEST(CompressionTest, DeltaOnStringsFallsBackToRaw) {
  std::vector<Datum> vals = {Datum(std::string("a")), Datum(std::string("b"))};
  CompressedBlock block;
  ASSERT_TRUE(CompressColumn(CompressionKind::kDelta, TypeId::kString, vals, &block).ok());
  EXPECT_EQ(block.kind, CompressionKind::kNone);
  auto back = DecompressColumn(block);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ((*back)[1].string_val(), "b");
}

TEST(LzTest, RoundTripEmpty) {
  auto out = LzDecompress(LzCompress({}));
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(LzTest, RoundTripRepetitive) {
  std::vector<uint8_t> in;
  for (int i = 0; i < 5000; ++i) in.push_back(static_cast<uint8_t>("abcabcab"[i % 8]));
  auto packed = LzCompress(in);
  EXPECT_LT(packed.size(), in.size() / 4);
  auto out = LzDecompress(packed);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(LzTest, RoundTripRandom) {
  Rng rng(5);
  std::vector<uint8_t> in;
  for (int i = 0; i < 10000; ++i) in.push_back(static_cast<uint8_t>(rng.Next()));
  auto out = LzDecompress(LzCompress(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(LzTest, OverlappingMatch) {
  // "aaaa..." forces distance-1 overlapping copies.
  std::vector<uint8_t> in(1000, 'a');
  auto out = LzDecompress(LzCompress(in));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, in);
}

TEST(LzTest, CorruptInputRejected) {
  std::vector<uint8_t> bogus = {0xff, 0xff, 0xff, 0x01, 0x80};
  EXPECT_FALSE(LzDecompress(bogus).ok());
}

}  // namespace
}  // namespace gphtap
