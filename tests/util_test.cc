#include <gtest/gtest.h>

#include <vector>

#include "util/arena.h"
#include "util/bitset.h"
#include "util/csr.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"

namespace gsls {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad token");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kFailedPrecondition, StatusCode::kResourceExhausted,
        StatusCode::kUnimplemented, StatusCode::kInternal,
        StatusCode::kCancelled, StatusCode::kDeadlineExceeded}) {
    EXPECT_NE(std::string(StatusCodeName(c)), "Unknown");
  }
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);
  EXPECT_EQ(ok.ValueOr(7), 42);
  Result<int> err(Status::NotFound("nope"));
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.ValueOr(7), 7);
  EXPECT_EQ(err.status().code(), StatusCode::kNotFound);
}

TEST(ArenaTest, BumpAllocationAndAccounting) {
  Arena arena(1024);
  void* a = arena.Allocate(100);
  void* b = arena.Allocate(100);
  EXPECT_NE(a, b);
  EXPECT_GE(arena.bytes_allocated(), 200u);
  EXPECT_GE(arena.bytes_reserved(), arena.bytes_allocated());
}

TEST(ArenaTest, LargeAllocationsGetOwnBlocks) {
  Arena arena(256);
  void* big = arena.Allocate(10000);
  EXPECT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 10000u);
}

TEST(ArenaTest, AlignmentRespected) {
  Arena arena;
  arena.Allocate(1);
  void* p = arena.Allocate(8, 64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u);
}

TEST(BitsetTest, SetTestReset) {
  DenseBitset b(130);
  EXPECT_FALSE(b.Test(0));
  b.Set(0);
  b.Set(64);
  b.Set(129);
  EXPECT_TRUE(b.Test(0));
  EXPECT_TRUE(b.Test(64));
  EXPECT_TRUE(b.Test(129));
  EXPECT_EQ(b.Count(), 3u);
  b.Reset(64);
  EXPECT_FALSE(b.Test(64));
  EXPECT_EQ(b.Count(), 2u);
  EXPECT_FALSE(b.Test(500));  // out of range reads false
}

TEST(BitsetTest, SetAlgebra) {
  DenseBitset a(100), b(100);
  a.Set(3);
  a.Set(70);
  b.Set(3);
  b.Set(70);
  b.Set(99);
  EXPECT_TRUE(a.IsSubsetOf(b));
  EXPECT_FALSE(b.IsSubsetOf(a));
  EXPECT_TRUE(a.Intersects(b));
  a.UnionWith(b);
  EXPECT_TRUE(b.IsSubsetOf(a));
  DenseBitset empty(100);
  EXPECT_TRUE(empty.None());
  EXPECT_FALSE(empty.Intersects(a));
  EXPECT_TRUE(empty.IsSubsetOf(a));
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    int v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(StringsTest, StrCatAndJoin) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(StrJoin(parts, ", "), "x, y, z");
  EXPECT_EQ(StrJoin(std::vector<std::string>{}, ","), "");
}

TEST(StringsTest, Split) {
  auto out = StrSplit("a,b,,c", ',');
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], "a");
  EXPECT_EQ(out[2], "");
  EXPECT_EQ(StrSplit("", ',').size(), 1u);
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("foobar", "bar"));
  EXPECT_TRUE(StartsWith("x", ""));
}

TEST(CsrTest, TwoPassBuildPartitionsPayloadByRow) {
  // (row, value) items in arbitrary order; per-row Fill order must hold.
  const std::pair<uint32_t, int> items[] = {
      {2, 10}, {0, 1}, {2, 11}, {3, 20}, {0, 2}, {2, 12}};
  Csr<int> csr;
  csr.Reset(4);
  for (const auto& [row, _] : items) csr.CountAt(row);
  csr.FinishCounting();
  for (const auto& [row, value] : items) csr.Fill(row, value);
  csr.FinishFilling();

  EXPECT_EQ(csr.rows(), 4u);
  EXPECT_EQ(csr.size(), 6u);
  EXPECT_EQ(std::vector<int>(csr.Row(0).begin(), csr.Row(0).end()),
            (std::vector<int>{1, 2}));
  EXPECT_TRUE(csr.Row(1).empty());
  EXPECT_EQ(std::vector<int>(csr.Row(2).begin(), csr.Row(2).end()),
            (std::vector<int>{10, 11, 12}));
  EXPECT_EQ(std::vector<int>(csr.Row(3).begin(), csr.Row(3).end()),
            (std::vector<int>{20}));
}

TEST(CsrTest, ResetReusesStorageAcrossBuilds) {
  Csr<uint32_t> csr;
  for (int build = 0; build < 3; ++build) {
    csr.Reset(2);
    csr.AddCount(1, 2);
    csr.FinishCounting();
    csr.Fill(1, 7u + build);
    csr.Fill(1, 9u + build);
    csr.FinishFilling();
    ASSERT_EQ(csr.Row(0).size(), 0u);
    ASSERT_EQ(csr.Row(1).size(), 2u);
    EXPECT_EQ(csr.Row(1)[0], 7u + build);
    EXPECT_EQ(csr.Row(1)[1], 9u + build);
  }
}

}  // namespace
}  // namespace gsls
