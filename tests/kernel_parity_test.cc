// Parity tests for the blocked/threaded kernel layer (ISSUE 1).
//
// The determinism contract: the SCALAR backend's kernels must produce
// EXACTLY the bits of the retained scalar reference in src/tensor/ops_ref.h,
// at every thread count. Tolerances would hide the class of bug these tests
// exist to catch — a partition-dependent accumulation order. Since ISSUE 3
// the exact-vs-reference assertions pin KernelBackend::kScalar explicitly
// (the process default may resolve to avx2, which is tolerance-parity only
// — tests/dispatch_test.cc covers that tier); assertions about
// chunk/thread invariance WITHIN a backend run on the default backend, so
// the CI matrix exercises them per backend. The attention kernel is the
// exception in the other direction: every available backend's
// attention_rows is checked bitwise against that backend's own per-key
// composition. On an AVX-512F CPU the kAvx2 table is served by 16-lane
// kernels; the Avx512* tests below hold them to the 8-lane kernels' bits.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/model/rope_table.h"
#include "src/tensor/ops.h"
#include "src/tensor/ops_dispatch.h"
#include "src/tensor/ops_ref.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tracking_allocator.h"

namespace prefillonly {
namespace {

const int kThreadCounts[] = {1, 2, 8};

// The scalar backend table: the subject of every exact-vs-reference check.
const KernelOps* Scalar() { return GetKernelOps(KernelBackend::kScalar); }

std::vector<float> RandomVec(int64_t n, uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (auto& x : v) {
    x = rng.NextUniformFloat(scale);
  }
  return v;
}

// ------------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, ShardRangeCoversExactly) {
  for (int64_t n : {0, 1, 5, 7, 64, 1001}) {
    for (int shards : {1, 2, 3, 8}) {
      int64_t covered = 0;
      int64_t prev_end = 0;
      for (int s = 0; s < shards; ++s) {
        const auto [b, e] = ThreadPool::ShardRange(n, shards, s);
        EXPECT_EQ(b, prev_end);
        EXPECT_LE(b, e);
        covered += e - b;
        prev_end = e;
      }
      EXPECT_EQ(covered, n) << "n=" << n << " shards=" << shards;
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    const int64_t n = 1000;
    std::vector<int> counts(static_cast<size_t>(n), 0);
    pool.ParallelFor(n, /*grain=*/1, [&](int64_t b, int64_t e, int /*worker*/) {
      for (int64_t i = b; i < e; ++i) {
        ++counts[static_cast<size_t>(i)];
      }
    });
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(counts[static_cast<size_t>(i)], 1) << "i=" << i;
    }
  }
}

TEST(ThreadPoolTest, WorkerIndicesAreDistinctAndInRange) {
  ThreadPool pool(4);
  const int64_t n = 4000;
  std::vector<int> owner(static_cast<size_t>(n), -1);
  pool.ParallelFor(n, /*grain=*/1, [&](int64_t b, int64_t e, int worker) {
    ASSERT_GE(worker, 0);
    ASSERT_LT(worker, pool.num_threads());
    for (int64_t i = b; i < e; ++i) {
      owner[static_cast<size_t>(i)] = worker;
    }
  });
  // Contiguous ranges: owner is non-decreasing.
  for (int64_t i = 1; i < n; ++i) {
    EXPECT_LE(owner[static_cast<size_t>(i - 1)], owner[static_cast<size_t>(i)]);
  }
}

TEST(ThreadPoolTest, ReusableAcrossManyDispatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    pool.ParallelFor(100, /*grain=*/1, [&](int64_t b, int64_t e, int /*worker*/) {
      int64_t local = 0;
      for (int64_t i = b; i < e; ++i) {
        local += i;
      }
      sum += local;
    });
    EXPECT_EQ(sum.load(), 99 * 100 / 2);
  }
}

TEST(ThreadPoolTest, ForkJoinsCountOnlyDispatchedCalls) {
  const auto noop = [](int64_t, int64_t, int) {};
  ThreadPool serial(1);
  serial.ParallelFor(100, /*grain=*/1, noop);
  EXPECT_EQ(serial.fork_joins(), 0u);  // no spawned worker: always inline

  ThreadPool pool(3);
  pool.ParallelFor(1, /*grain=*/1, noop);    // one shard: inline
  pool.ParallelFor(100, /*grain=*/64, noop);  // under 2 grains: inline
  EXPECT_EQ(pool.fork_joins(), 0u);
  for (int i = 0; i < 5; ++i) {
    pool.ParallelFor(100, /*grain=*/1, noop);
  }
  EXPECT_EQ(pool.fork_joins(), 5u);
}

// --------------------------------------------------------------------- MatMul

void ExpectMatMulParity(int64_t m, int64_t k, int64_t n, uint64_t seed) {
  const auto a = RandomVec(m * k, seed);
  const auto b = RandomVec(k * n, seed + 1);
  std::vector<float> want(static_cast<size_t>(m * n));
  ref::MatMul(a.data(), b.data(), want.data(), m, k, n);

  std::vector<float> got(static_cast<size_t>(m * n));
  MatMul(a.data(), b.data(), got.data(), m, k, n, nullptr, Scalar());
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
      << "serial m=" << m << " k=" << k << " n=" << n;

  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    std::fill(got.begin(), got.end(), -1.0f);
    MatMul(a.data(), b.data(), got.data(), m, k, n, &pool, Scalar());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << "threads=" << threads << " m=" << m << " k=" << k << " n=" << n;
  }
}

TEST(KernelParityTest, MatMulExactAcrossThreadCounts) {
  // Shapes straddle the k-panel (64) and unroll (4) boundaries and include
  // m smaller and larger than any thread count.
  ExpectMatMulParity(1, 64, 17, 10);
  ExpectMatMulParity(3, 5, 7, 11);
  ExpectMatMulParity(7, 63, 33, 12);
  ExpectMatMulParity(16, 65, 64, 13);
  ExpectMatMulParity(33, 130, 41, 14);
  ExpectMatMulParity(128, 256, 96, 15);
  // m=1 with n past the column-parallel grain: the GEMV column path.
  ExpectMatMulParity(1, 100, 2048, 16);
}

TEST(KernelParityTest, MatMulRowChunkingStillBitwiseIdentical) {
  // The hybrid-prefill property, now for the blocked kernel under threads.
  const int64_t m = 48;
  const int64_t k = 100;
  const int64_t n = 37;
  const auto a = RandomVec(m * k, 21);
  const auto b = RandomVec(k * n, 22);
  std::vector<float> full(static_cast<size_t>(m * n));
  ThreadPool pool(8);
  MatMul(a.data(), b.data(), full.data(), m, k, n, &pool);

  for (int64_t chunk : {1, 5, 16, 48}) {
    std::vector<float> chunked(static_cast<size_t>(m * n));
    for (int64_t r0 = 0; r0 < m; r0 += chunk) {
      const int64_t cs = std::min(chunk, m - r0);
      MatMul(a.data() + r0 * k, b.data(), chunked.data() + r0 * n, cs, k, n, &pool);
    }
    EXPECT_EQ(std::memcmp(full.data(), chunked.data(), full.size() * sizeof(float)), 0)
        << "chunk=" << chunk;
  }
}

TEST(KernelParityTest, MatMulDenseResultUnaffectedByZeros) {
  // The seed kernel's `a_val == 0` skip is gone: zeros in `a` flow through
  // the same code path as every other value.
  const int64_t m = 9;
  const int64_t k = 40;
  const int64_t n = 23;
  auto a = RandomVec(m * k, 31);
  for (size_t i = 0; i < a.size(); i += 3) {
    a[i] = 0.0f;
  }
  const auto b = RandomVec(k * n, 32);
  std::vector<float> want(static_cast<size_t>(m * n));
  ref::MatMul(a.data(), b.data(), want.data(), m, k, n);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    std::vector<float> got(static_cast<size_t>(m * n));
    MatMul(a.data(), b.data(), got.data(), m, k, n, &pool, Scalar());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0);
  }
}

// ------------------------------------------------------------- Row kernels

TEST(KernelParityTest, RmsNormExactAcrossThreadCounts) {
  const int64_t m = 53;
  const int64_t h = 96;
  const auto x = RandomVec(m * h, 41);
  const auto w = RandomVec(h, 42);
  std::vector<float> want(static_cast<size_t>(m * h));
  ref::RmsNormRows(x.data(), w.data(), want.data(), m, h);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    std::vector<float> got(static_cast<size_t>(m * h));
    RmsNormRows(x.data(), w.data(), got.data(), m, h, 1e-5f, &pool, Scalar());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << "threads=" << threads;
  }
}

TEST(KernelParityTest, SwiGluExactAcrossThreadCounts) {
  const int64_t m = 37;
  const int64_t inter = 64;
  const auto gate_up = RandomVec(m * 2 * inter, 43, 2.0f);
  std::vector<float> want(static_cast<size_t>(m * inter));
  ref::SwiGluRows(gate_up.data(), want.data(), m, inter);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    std::vector<float> got(static_cast<size_t>(m * inter));
    SwiGluRows(gate_up.data(), got.data(), m, inter, &pool, Scalar());
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << "threads=" << threads;
  }
}

TEST(KernelParityTest, AddInPlaceExactAcrossThreadCounts) {
  const int64_t count = 100003;  // prime: uneven shards
  const auto b = RandomVec(count, 44);
  auto want = RandomVec(count, 45);
  ref::AddInPlace(want.data(), b.data(), count);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto got = RandomVec(count, 45);
    AddInPlace(got.data(), b.data(), count, &pool);
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << "threads=" << threads;
  }
}

// ------------------------------------------------------------------- RoPE

TEST(KernelParityTest, RopeTableMatchesRecomputeExactly) {
  const int64_t rows = 29;
  const int64_t n_heads = 4;
  const int64_t head_dim = 16;
  const float theta = 10000.0f;
  std::vector<int32_t> positions(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    positions[static_cast<size_t>(i)] = static_cast<int32_t>(3 * i + 1);
  }
  auto want = RandomVec(rows * n_heads * head_dim, 51);
  auto orig = want;
  ref::ApplyRope(want.data(), rows, n_heads, head_dim, positions, theta);

  RopeTable table(head_dim, theta);
  table.EnsureCapacity(3 * rows + 2);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto got = orig;
    ApplyRopeWithTable(got.data(), rows, n_heads, head_dim, positions, table, &pool);
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << "threads=" << threads;
  }
}

TEST(KernelParityTest, RopeFallbackBeyondCapacityMatchesReference) {
  // Positions past the materialized table take the recompute fallback; it
  // must be bitwise identical to the reference (and to table rows).
  const int64_t rows = 7;
  const int64_t n_heads = 2;
  const int64_t head_dim = 16;
  const float theta = 10000.0f;
  std::vector<int32_t> positions{0, 5, 4999, 5000, 12345, 3, 99999};
  auto want = RandomVec(rows * n_heads * head_dim, 53);
  auto orig = want;
  ref::ApplyRope(want.data(), rows, n_heads, head_dim, positions, theta);

  RopeTable table(head_dim, theta);
  table.EnsureCapacity(10);  // most positions above are beyond capacity
  ASSERT_LT(table.capacity(), 4999);
  for (int threads : kThreadCounts) {
    ThreadPool pool(threads);
    auto got = orig;
    ApplyRopeWithTable(got.data(), rows, n_heads, head_dim, positions, table, &pool);
    EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0)
        << "threads=" << threads;
  }
}

TEST(KernelParityTest, RopeTableLazyGrowthPreservesEarlierRows) {
  RopeTable table(16, 10000.0f);
  table.EnsureCapacity(10);
  std::vector<float> before(table.cos_row(7), table.cos_row(7) + 8);
  table.EnsureCapacity(5000);  // multiple new blocks
  EXPECT_GE(table.capacity(), 5000);
  EXPECT_EQ(std::memcmp(before.data(), table.cos_row(7), before.size() * sizeof(float)),
            0);
}

TEST(KernelParityTest, OpsApplyRopeStillMatchesReference) {
  // The recomputing ops.cc variant stays available and agrees with ref.
  const int64_t rows = 5;
  const int64_t n_heads = 2;
  const int64_t head_dim = 8;
  std::vector<int32_t> positions{0, 2, 4, 9, 1};
  auto want = RandomVec(rows * n_heads * head_dim, 52);
  auto got = want;
  ref::ApplyRope(want.data(), rows, n_heads, head_dim, positions, 10000.0f);
  ApplyRope(got.data(), rows, n_heads, head_dim, positions, 10000.0f);
  EXPECT_EQ(std::memcmp(want.data(), got.data(), want.size() * sizeof(float)), 0);
}

// -------------------------------------------------------------- Attention
//
// attention_rows must be BITWISE the per-key composition of its own
// backend's dot -> softmax_row -> axpy, for every available backend: the
// tiling may change, the per-element float operations may not.

// Every available table: scalar, the 8-lane avx2 one, and the 16-lane one
// that serves kAvx2 on AVX-512F CPUs.
std::vector<const KernelOps*> AvailableBackends() {
  std::vector<const KernelOps*> backends = {Scalar()};
  if (Avx2Available()) {
    backends.push_back(GetAvx2KernelOps());
  }
  if (const KernelOps* wide = GetAvx512KernelOps()) {
    backends.push_back(wide);
  }
  return backends;
}

std::string TableName(const KernelOps* ops) {
  return ops == GetAvx512KernelOps() ? std::string(ops->name) + "/16-lane" : ops->name;
}

struct AttentionCase {
  int64_t head_dim;
  int64_t n_heads;
  int64_t n_kv_heads;
  int64_t q_pos0;
  int64_t q_rows;
};

// Random q/K/V for one case; keys [0, n_prefix) come from the prefix
// segments, the rest from the new-token buffers. The prefix rows are the
// same for every `segment_rows` (0 = one segment of n_prefix rows); each
// segment is a separate allocation, so segments are never adjacent.
struct AttentionData {
  AttentionData(const AttentionCase& c, int64_t n_prefix, uint64_t seed,
                int64_t segment_rows = 0)
      : n_keys(c.q_pos0 + c.q_rows),
        q(RandomVec(c.q_rows * c.n_heads * c.head_dim, seed, 2.0f)),
        k_new(RandomVec((n_keys - n_prefix) * c.n_kv_heads * c.head_dim, seed + 3, 2.0f)),
        v_new(RandomVec((n_keys - n_prefix) * c.n_kv_heads * c.head_dim, seed + 4)),
        scores(static_cast<size_t>(n_keys)) {
    const int64_t kvw = c.n_kv_heads * c.head_dim;
    const std::vector<float> k_prefix = RandomVec(n_prefix * kvw, seed + 1, 2.0f);
    const std::vector<float> v_prefix = RandomVec(n_prefix * kvw, seed + 2);
    const int64_t seg = segment_rows > 0 ? segment_rows : std::max<int64_t>(n_prefix, 1);
    for (int64_t j0 = 0; j0 < n_prefix; j0 += seg) {
      const int64_t j1 = std::min(j0 + seg, n_prefix);
      k_rows.emplace_back(k_prefix.begin() + j0 * kvw, k_prefix.begin() + j1 * kvw);
      v_rows.emplace_back(v_prefix.begin() + j0 * kvw, v_prefix.begin() + j1 * kvw);
    }
    for (size_t s = 0; s < k_rows.size(); ++s) {
      k_segments.push_back(k_rows[s].data());
      v_segments.push_back(v_rows[s].data());
    }
    args = AttentionArgs{
        .q = q.data(),
        .out = nullptr,
        .k_segments = n_prefix > 0 ? k_segments.data() : nullptr,
        .v_segments = n_prefix > 0 ? v_segments.data() : nullptr,
        .segment_rows = seg,
        .k_new = k_new.data(),
        .v_new = v_new.data(),
        .n_prefix = n_prefix,
        .q_pos0 = c.q_pos0,
        .n_heads = c.n_heads,
        .n_kv_heads = c.n_kv_heads,
        .head_dim = c.head_dim,
        .scale = 1.0f / std::sqrt(static_cast<float>(c.head_dim)),
    };
  }

  std::vector<float> NewOutput() const {
    return std::vector<float>(static_cast<size_t>(q.size()), -7.0f);
  }

  int64_t n_keys;
  std::vector<float> q, k_new, v_new, scores;
  std::vector<std::vector<float>> k_rows, v_rows;  // one per prefix segment
  std::vector<const float*> k_segments, v_segments;
  AttentionArgs args{};
};

// The reference: one (row, head) at a time through the backend's own
// dot, softmax_row and axpy.
std::vector<float> ComposedAttention(const KernelOps* ops, AttentionData& data,
                                     int64_t q_rows) {
  const AttentionArgs& a = data.args;
  const int64_t qs = a.n_heads * a.head_dim;
  const int64_t group = a.n_heads / a.n_kv_heads;
  std::vector<float> out = data.NewOutput();
  for (int64_t i = 0; i < q_rows; ++i) {
    const int64_t n_keys = a.q_pos0 + i + 1;
    for (int64_t head = 0; head < a.n_heads; ++head) {
      const int64_t col = head / group * a.head_dim;
      const float* q_vec = a.q + i * qs + head * a.head_dim;
      for (int64_t j = 0; j < n_keys; ++j) {
        data.scores[static_cast<size_t>(j)] =
            ops->dot(q_vec, AttentionKvRow(a, /*values=*/false, j) + col, a.head_dim) *
            a.scale;
      }
      ops->softmax_row(data.scores.data(), n_keys);
      float* o = out.data() + i * qs + head * a.head_dim;
      std::fill(o, o + a.head_dim, 0.0f);
      for (int64_t j = 0; j < n_keys; ++j) {
        ops->axpy(o, AttentionKvRow(a, /*values=*/true, j) + col,
                  data.scores[static_cast<size_t>(j)], a.head_dim);
      }
    }
  }
  return out;
}

// attention_rows over rows [r0, r1) for every KV group, heads [h0, h1) of
// each group split at `head_split` heads per call.
void RunAttentionRows(const KernelOps* ops, AttentionData& data, std::vector<float>& out,
                      int64_t r0, int64_t r1, int64_t head_split) {
  AttentionArgs args = data.args;
  args.out = out.data();
  const int64_t group = args.n_heads / args.n_kv_heads;
  for (int64_t g = 0; g < args.n_kv_heads; ++g) {
    for (int64_t h = g * group; h < (g + 1) * group; h += head_split) {
      ops->attention_rows(args, r0, r1, h, std::min((g + 1) * group, h + head_split),
                          data.scores.data());
    }
  }
}

bool BitsEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// Checks the call shapes one composition must survive against `want`: one
// call per KV group, a row range split into two calls, and one head per
// call.
void ExpectAttentionRowsSplitsMatch(const KernelOps* ops, AttentionData& data,
                                    const std::vector<float>& want,
                                    const AttentionCase& c, const std::string& label) {
  std::vector<float> got = data.NewOutput();
  RunAttentionRows(ops, data, got, 0, c.q_rows, c.n_heads);
  EXPECT_TRUE(BitsEqual(want, got)) << label << " (one call per group)";

  got = data.NewOutput();
  const int64_t mid = c.q_rows / 2;
  RunAttentionRows(ops, data, got, 0, mid, c.n_heads);
  RunAttentionRows(ops, data, got, mid, c.q_rows, c.n_heads);
  EXPECT_TRUE(BitsEqual(want, got)) << label << " (rows split at " << mid << ")";

  got = data.NewOutput();
  RunAttentionRows(ops, data, got, 0, c.q_rows, 1);
  EXPECT_TRUE(BitsEqual(want, got)) << label << " (one head per call)";
}

TEST(KernelParityTest, AttentionRowsMatchesPerKeyCompositionBitwise) {
  // head_dim 16 is the tiny/small models, 32 medium; 24 and 10 reach
  // Avx2Dot's 8-wide step and scalar tail. q_pos0 = 0 with 67 rows covers
  // every key count 1..67; q_pos0 > 0 starts mid-sequence. Groups of 4, 3
  // and 5 query heads per KV head exercise every head-blocking remainder.
  // A prefix is one segment or paged into separately allocated segments of
  // 1, 3 or 8 rows (a short last one included): the same rows in other
  // places, so the bits must be those of the one-segment prefix.
  const AttentionCase cases[] = {
      {16, 8, 2, 0, 67},  {32, 8, 2, 0, 67},  {24, 8, 2, 0, 67}, {10, 8, 2, 0, 67},
      {16, 8, 2, 29, 38}, {32, 6, 2, 13, 21}, {24, 10, 2, 5, 9}, {10, 6, 2, 40, 3},
      {16, 4, 4, 3, 1},
  };
  for (const KernelOps* ops : AvailableBackends()) {
    uint64_t seed = 100;
    for (const AttentionCase& c : cases) {
      const int64_t total = c.q_pos0 + c.q_rows;
      for (const int64_t n_prefix : {int64_t{0}, total / 2, total}) {
        seed += 10;
        const std::vector<float> want = [&] {
          AttentionData whole(c, n_prefix, seed);
          return ComposedAttention(ops, whole, c.q_rows);
        }();
        for (const int64_t segment_rows : {n_prefix, int64_t{1}, int64_t{3}, int64_t{8}}) {
          if (n_prefix == 0 && segment_rows != 0) {
            continue;
          }
          AttentionData data(c, n_prefix, seed, segment_rows);
          const std::string label =
              TableName(ops) + " head_dim=" + std::to_string(c.head_dim) + " heads=" +
              std::to_string(c.n_heads) + "/" + std::to_string(c.n_kv_heads) +
              " q_pos0=" + std::to_string(c.q_pos0) + " rows=" +
              std::to_string(c.q_rows) + " n_prefix=" + std::to_string(n_prefix) +
              " segment_rows=" + std::to_string(segment_rows);
          EXPECT_TRUE(BitsEqual(want, ComposedAttention(ops, data, c.q_rows)))
              << label << " (composition)";
          ExpectAttentionRowsSplitsMatch(ops, data, want, c, label);
        }
      }
    }
  }
}

// ------------------------------------------- 16-lane vs 8-lane avx2 tables
//
// The 16-lane kernels (src/tensor/ops_avx512.cc) serve the same kAvx2 bit
// contract as the 8-lane ones, so every output must memcmp equal to the
// 8-lane table's over GEMM tile remainders, partial and odd panel counts,
// GEMV panel splits and every attention tiling edge.

#define PO_SKIP_WITHOUT_AVX512()                                              \
  if (GetAvx512KernelOps() == nullptr) {                                      \
    GTEST_SKIP() << "host lacks AVX-512F (or AVX2+FMA); the kAvx2 table is "  \
                    "8-lane only here";                                       \
  }

// Output buffers start as this sentinel, so a kernel that writes outside
// its range (or skips part of it) differs from one that does not.
constexpr float kSentinel = -7.0f;

TEST(KernelParityTest, Avx512PackedGemmMatchesAvx2Bitwise) {
  PO_SKIP_WITHOUT_AVX512();
  const KernelOps* narrow = GetAvx2KernelOps();
  const KernelOps* wide = GetAvx512KernelOps();
  std::vector<int64_t> ms = {64};
  for (int64_t m = 1; m <= 13; ++m) {
    ms.push_back(m);
  }
  uint64_t seed = 600;
  for (const int64_t k : {1, 7, 128, 448}) {
    for (const int64_t n : {1, 15, 16, 17, 31, 33, 128, 896}) {
      const auto b = RandomVec(k * n, seed++);
      TrackingAllocator alloc;
      const PackedMatrix packed = PackWeights(alloc, b.data(), k, n, "test.pack");
      for (const int64_t m : ms) {
        const auto a = RandomVec(m * k, seed++);
        // Whole range, then r0 > 0 (odd and even) so tiles start off the
        // 6-row grid.
        for (const int64_t r0 : {int64_t{0}, int64_t{1}, int64_t{4}}) {
          if (r0 >= m) {
            continue;
          }
          std::vector<float> want(static_cast<size_t>(m * n), kSentinel);
          std::vector<float> got = want;
          narrow->matmul_rows_packed(a.data(), packed, want.data(), r0, m);
          wide->matmul_rows_packed(a.data(), packed, got.data(), r0, m);
          EXPECT_TRUE(BitsEqual(want, got))
              << "m=" << m << " k=" << k << " n=" << n << " rows [" << r0 << ", " << m
              << ")";
        }
      }
    }
  }
}

TEST(KernelParityTest, Avx512PackedGemvMatchesAvx2BitwiseOverEveryPanelSplit) {
  PO_SKIP_WITHOUT_AVX512();
  const KernelOps* narrow = GetAvx2KernelOps();
  const KernelOps* wide = GetAvx512KernelOps();
  uint64_t seed = 700;
  for (const int64_t k : {1, 7, 128, 448}) {
    for (const int64_t n : {1, 15, 16, 17, 31, 33, 128, 896}) {
      const auto a = RandomVec(k, seed++);
      const auto b = RandomVec(k * n, seed++);
      TrackingAllocator alloc;
      const PackedMatrix packed = PackWeights(alloc, b.data(), k, n, "test.pack");
      const int64_t n_panels = packed.n_panels();
      std::vector<float> want(static_cast<size_t>(n));
      std::vector<float> got(static_cast<size_t>(n));
      for (int64_t p0 = 0; p0 <= n_panels; ++p0) {
        for (int64_t p1 = p0; p1 <= n_panels; ++p1) {
          std::fill(want.begin(), want.end(), kSentinel);
          std::fill(got.begin(), got.end(), kSentinel);
          narrow->matmul_panels_packed(a.data(), packed, want.data(), p0, p1);
          wide->matmul_panels_packed(a.data(), packed, got.data(), p0, p1);
          ASSERT_TRUE(BitsEqual(want, got))
              << "k=" << k << " n=" << n << " panels [" << p0 << ", " << p1 << ")";
        }
      }
    }
  }
}

// Every call shape RunAttentionRows offers, plus one-row calls (every r0,
// odd ones included) and a split at an odd row.
TEST(KernelParityTest, Avx512AttentionRowsMatchesAvx2Bitwise) {
  PO_SKIP_WITHOUT_AVX512();
  const KernelOps* narrow = GetAvx2KernelOps();
  const KernelOps* wide = GetAvx512KernelOps();
  // head_dim 16 takes the 16-lane kernel; 10, 24 and 32 delegate to the
  // 8-lane one. q_pos0 = 0 with 67 rows covers key counts 1..67, 500 rows
  // the benchmark's prompt length; groups of 3, 4 and 5 query heads per KV
  // head leave every head-blocking remainder.
  const AttentionCase cases[] = {
      {16, 8, 2, 0, 67},  {16, 6, 2, 0, 67},  {16, 10, 2, 0, 67}, {16, 8, 2, 29, 38},
      {16, 8, 2, 0, 500}, {16, 4, 4, 3, 1},   {16, 5, 1, 17, 2},  {10, 8, 2, 0, 67},
      {24, 6, 2, 5, 9},   {32, 10, 2, 13, 21},
  };
  uint64_t seed = 800;
  for (const AttentionCase& c : cases) {
    const int64_t total = c.q_pos0 + c.q_rows;
    for (const int64_t n_prefix : {int64_t{0}, total / 2, total}) {
      AttentionData data(c, n_prefix, seed += 10);
      const std::string label = "head_dim=" + std::to_string(c.head_dim) + " heads=" +
                                std::to_string(c.n_heads) + "/" +
                                std::to_string(c.n_kv_heads) + " q_pos0=" +
                                std::to_string(c.q_pos0) + " rows=" +
                                std::to_string(c.q_rows) + " n_prefix=" +
                                std::to_string(n_prefix);
      std::vector<float> want = data.NewOutput();
      RunAttentionRows(narrow, data, want, 0, c.q_rows, c.n_heads);

      std::vector<float> got = data.NewOutput();
      RunAttentionRows(wide, data, got, 0, c.q_rows, c.n_heads);
      EXPECT_TRUE(BitsEqual(want, got)) << label << " (one call per group)";

      got = data.NewOutput();
      RunAttentionRows(wide, data, got, 0, c.q_rows, 1);
      EXPECT_TRUE(BitsEqual(want, got)) << label << " (one head per call)";

      got = data.NewOutput();
      for (int64_t i = 0; i < c.q_rows; ++i) {
        RunAttentionRows(wide, data, got, i, i + 1, c.n_heads);
      }
      EXPECT_TRUE(BitsEqual(want, got)) << label << " (one row per call)";

      got = data.NewOutput();
      const int64_t odd = std::min<int64_t>(3, c.q_rows);
      RunAttentionRows(wide, data, got, 0, odd, c.n_heads);
      RunAttentionRows(wide, data, got, odd, c.q_rows, c.n_heads);
      EXPECT_TRUE(BitsEqual(want, got)) << label << " (rows split at " << odd << ")";
    }
  }
}

}  // namespace
}  // namespace prefillonly
