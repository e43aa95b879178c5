#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>
#include <vector>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/queue.h"
#include "src/common/rng.h"
#include "src/common/status.h"

namespace prefillonly {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
}

TEST(StatusTest, FactoryFunctionsCarryCodeAndMessage) {
  const Status s = Status::ResourceExhausted("pool empty");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(s.message(), "pool empty");
  EXPECT_EQ(s.ToString(), "RESOURCE_EXHAUSTED: pool empty");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code : {StatusCode::kOk, StatusCode::kInvalidArgument,
                          StatusCode::kNotFound, StatusCode::kResourceExhausted,
                          StatusCode::kFailedPrecondition, StatusCode::kOutOfRange,
                          StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_NE(StatusCodeName(code), "UNKNOWN");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, TakeMovesValue) {
  Result<std::vector<int>> r(std::vector<int>{1, 2, 3});
  std::vector<int> v = r.take();
  EXPECT_EQ(v.size(), 3u);
}

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    differing += (a.NextU64() != b.NextU64()) ? 1 : 0;
  }
  EXPECT_GT(differing, 12);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, NextInRangeCoversBounds) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, GaussianMomentsRoughlyStandard) {
  Rng rng(11);
  double sum = 0.0;
  double sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(RngTest, ExponentialMeanMatchesRate) {
  Rng rng(13);
  const double rate = 4.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(rate);
  }
  EXPECT_NEAR(sum / n, 1.0 / rate, 0.02);
}

TEST(RngTest, ForkIsIndependentStream) {
  Rng parent(17);
  Rng child = parent.Fork();
  // The fork must not replay the parent's stream.
  EXPECT_NE(parent.NextU64(), child.NextU64());
}

// ------------------------------------------------------------------ Hash

TEST(HashTest, Fnv1aMatchesKnownVector) {
  // FNV-1a of empty input is the offset basis.
  EXPECT_EQ(Fnv1a64(nullptr, 0), kFnvOffset);
}

TEST(HashTest, ChainLengthIsFullBlocksOnly) {
  std::vector<int32_t> tokens(100, 1);
  EXPECT_EQ(BlockHashChain(tokens, 32).size(), 3u);  // 96 tokens hashed
  EXPECT_EQ(BlockHashChain(tokens, 100).size(), 1u);
  EXPECT_EQ(BlockHashChain(tokens, 101).size(), 0u);
}

TEST(HashTest, SharedPrefixSharesChain) {
  std::vector<int32_t> a(256, 5);
  std::vector<int32_t> b = a;
  b.resize(512, 9);  // same first 256 tokens, different rest
  const auto chain_a = BlockHashChain(a, 64);
  const auto chain_b = BlockHashChain(b, 64);
  ASSERT_EQ(chain_a.size(), 4u);
  ASSERT_EQ(chain_b.size(), 8u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(chain_a[i], chain_b[i]);
  }
  EXPECT_NE(chain_a[3], chain_b[4]);
}

TEST(HashTest, DifferentPrefixDiffersEverywhere) {
  std::vector<int32_t> a(128, 1);
  std::vector<int32_t> b(128, 2);
  const auto chain_a = BlockHashChain(a, 32);
  const auto chain_b = BlockHashChain(b, 32);
  for (size_t i = 0; i < chain_a.size(); ++i) {
    EXPECT_NE(chain_a[i], chain_b[i]);
  }
}

TEST(HashTest, ChainHashDependsOnPosition) {
  // Two identical blocks at different depths must hash differently (the
  // chain encodes the whole prefix, not the block contents alone).
  std::vector<int32_t> tokens(64, 3);
  const auto chain = BlockHashChain(tokens, 32);
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_NE(chain[0], chain[1]);
}

// ----------------------------------------------------------------- Queue

TEST(QueueTest, FifoOrder) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Push(2);
  q.Push(3);
  EXPECT_EQ(q.TryPop().value(), 1);
  EXPECT_EQ(q.TryPop().value(), 2);
  EXPECT_EQ(q.TryPop().value(), 3);
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(QueueTest, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread producer([&q] { q.Push(99); });
  auto item = q.Pop();
  producer.join();
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ(*item, 99);
}

TEST(QueueTest, CloseDrainsThenSignalsEnd) {
  BlockingQueue<int> q;
  q.Push(1);
  q.Close();
  EXPECT_EQ(q.Pop().value(), 1);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(QueueTest, SizeTracksContents) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.Empty());
  q.Push(1);
  q.Push(2);
  EXPECT_EQ(q.Size(), 2u);
}

// --------------------------------------------------------------- Logging

// An `else` after an unbraced log statement must bind to the caller's `if`,
// not to one hidden inside the macro — for a filtered-out level (the macro's
// condition false) and an enabled one alike.
TEST(LoggingTest, ElseAfterLogStatementBindsToTheCallersIf) {
  const LogLevel saved = GetLogLevel();
  for (const LogLevel level : {LogLevel::kError, LogLevel::kDebug}) {
    SetLogLevel(level);
    std::vector<bool> else_taken_for;
    for (const bool log : {true, false}) {
      if (log)
        PO_LOG_DEBUG << "logging regression test: debug line";
      else
        else_taken_for.push_back(log);
    }
    EXPECT_EQ(else_taken_for, std::vector<bool>{false})
        << "log level " << static_cast<int>(level);
  }
  SetLogLevel(saved);
}

}  // namespace
}  // namespace prefillonly
