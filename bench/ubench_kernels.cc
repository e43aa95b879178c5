// Kernel microbenchmarks.
//
// Two jobs:
//  1. Always: a hand-rolled GFLOP/s + GB/s sweep over the hot kernels — the
//     seed scalar MatMul (with its `a_val == 0` skip), the retained scalar
//     reference, and EVERY available kernel backend (scalar, avx2 where the
//     host supports it; ISSUE 3) at 1/2/4/8 threads, dense and prepacked
//     GEMM variants (prepacked only on kPacked-layout backends), the RoPE
//     recompute-vs-table pair, and causal attention
//     (per-key dot/axpy path vs attention_rows) at 150 and 500 positions,
//     and a whole solo 500-token hybrid prefill of the `small` model at
//     1/2/4 threads (ms per pass; the thread counts alternate per repeat).
//     Where the host has AVX-512F, the avx2 backend's two tables — 8-lane
//     (ops_avx2.cc) and 16-lane (ops_avx512.cc), same bits — are both timed
//     on the packed GEMM at the small model's chunk shapes and on
//     attention_rows; each point records its table's `lanes`. Each point is
//     timed over kRepeats repeats and records their median and quartiles;
//     the headline single-thread speedup over the scalar blocked GEMM is the
//     median of per-repeat ratios, with the two kernels timed alternately.
//     Written machine-readably to BENCH_kernels.json with po_bench's
//     provenance header (host.h: git sha, nproc, CPU, ISA, backend, build
//     type, compiler) and echoed as a table.
//     docs/PERFORMANCE.md and the CI regression check read this file; a
//     copy is checked into the repo root so the perf trajectory is
//     diffable per PR.
//  2. With google-benchmark available (PO_HAVE_GBENCH) and `--gbench`:
//     the original regression-tracking microbenchmarks over tensor kernels,
//     prefix-cache operations, scheduler decisions and end-to-end prefill.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/provenance.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/kvcache/prefix_cache.h"
#include "src/model/llama.h"
#include "src/model/rope_table.h"
#include "src/sched/scheduler.h"
#include "src/tensor/ops.h"
#include "src/tensor/ops_dispatch.h"
#include "src/tensor/ops_ref.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tracking_allocator.h"

#ifdef PO_HAVE_GBENCH
#include <benchmark/benchmark.h>
#endif

namespace {

using namespace prefillonly;

// ------------------------------------------------------------ JSON sweep

// The seed kernel, verbatim (including the sparsity skip the rewrite
// removed): the baseline every speedup in the JSON is measured against.
void SeedMatMul(const float* a, const float* b, float* c, int64_t m, int64_t k,
                int64_t n) {
  std::memset(c, 0, static_cast<size_t>(m) * n * sizeof(float));
  for (int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float a_val = a_row[kk];
      if (a_val == 0.0f) {
        continue;
      }
      const float* b_row = b + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        c_row[j] += a_val * b_row[j];
      }
    }
  }
}

// Repeats per timed point. Host drift between repeats shows up as spread
// instead of as a better or worse best-of.
constexpr int kRepeats = 7;
// Each repeat runs enough calls to last at least this long.
constexpr double kRepeatSeconds = 0.05;

using Clock = std::chrono::steady_clock;

// Median and quartiles of a sample (linear interpolation between ranks).
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Spread Quartiles(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  auto at = [&](double p) {
    const double rank = p * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (rank - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

// One warm-up call, then the number of calls a repeat needs to last
// kRepeatSeconds.
template <typename Fn>
int CallsPerRepeat(const Fn& fn) {
  const auto t0 = Clock::now();
  fn();
  const double once = std::chrono::duration<double>(Clock::now() - t0).count();
  return once > 0 ? std::max(1, static_cast<int>(kRepeatSeconds / once)) : 1;
}

// Seconds per call of fn(), averaged over one repeat of `calls` calls.
template <typename Fn>
double TimeRepeat(const Fn& fn, int calls) {
  const auto t0 = Clock::now();
  for (int i = 0; i < calls; ++i) {
    fn();
  }
  return std::chrono::duration<double>(Clock::now() - t0).count() / calls;
}

// Seconds per call of fn() over kRepeats repeats.
template <typename Fn>
Spread TimeSeconds(const Fn& fn) {
  const int calls = CallsPerRepeat(fn);
  std::vector<double> seconds;
  for (int r = 0; r < kRepeats; ++r) {
    seconds.push_back(TimeRepeat(fn, calls));
  }
  return Quartiles(std::move(seconds));
}

struct KernelPoint {
  std::string kernel;
  std::string variant;
  std::string backend;  // executing backend; "shared" = backend-independent
  // Which table of the backend ran: 8 = ops_avx2.cc's, 16 = ops_avx512.cc's
  // (whose slots other than packed GEMM/GEMV and attention_rows are the
  // 8-lane kernels); 1 = scalar or shared code.
  int lanes;
  int threads;
  double flops;  // per call
  double bytes;  // nominal traffic (inputs read once + outputs written once)
  Spread seconds;  // per call

  // GFLOP/s at the median time and at the quartile times (the slower
  // quartile gives the lower rate).
  Spread Gflops() const {
    return {flops / seconds.q3 * 1e-9, flops / seconds.median * 1e-9,
            flops / seconds.q1 * 1e-9};
  }
  double Gbps() const { return bytes / seconds.median * 1e-9; }
};

// Kernel backends the CPU can run, in fixed sweep order. The avx2
// entry is the table the engine runs (16-lane where the CPU has AVX-512F).
std::vector<const KernelOps*> AvailableBackends() {
  std::vector<const KernelOps*> backends = {GetKernelOps(KernelBackend::kScalar)};
  if (Avx2Available()) {
    backends.push_back(GetKernelOps(KernelBackend::kAvx2));
  }
  return backends;
}

// The avx2 backend's tables the CPU can run: the 8-lane one and, with
// AVX-512F, the 16-lane one.
std::vector<const KernelOps*> Avx2Tables() {
  std::vector<const KernelOps*> tables;
  if (Avx2Available()) {
    tables.push_back(GetAvx2KernelOps());
    if (const KernelOps* wide = GetAvx512KernelOps()) {
      tables.push_back(wide);
    }
  }
  return tables;
}

int Lanes(const KernelOps* ops) {
  if (ops->backend == KernelBackend::kScalar) {
    return 1;
  }
  return ops == GetAvx512KernelOps() ? 16 : 8;
}

void RunJsonSweep(const char* json_path) {
  std::vector<KernelPoint> points;
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  const auto backends = AvailableBackends();

  // The fastest single-thread MatMul at the headline shape, and its
  // speedup over the scalar blocked kernel.
  std::string st_best_name;
  Spread st_speedup;

  // MatMul at an engine-ish shape (chunk of 256 tokens, hidden 512 — the
  // model's GEMM regime: every projection is [chunk, h] x [h, width]).
  {
    const int64_t m = 256;
    const int64_t k = 512;
    const int64_t n = 512;
    const double flops = 2.0 * m * k * n;
    const double bytes = 4.0 * (m * k + k * n + m * n);
    Rng rng(1);
    std::vector<float> a(static_cast<size_t>(m * k));
    std::vector<float> b(static_cast<size_t>(k * n));
    std::vector<float> c(static_cast<size_t>(m * n));
    for (auto& v : a) {
      v = rng.NextUniformFloat(1.0f);
    }
    for (auto& v : b) {
      v = rng.NextUniformFloat(1.0f);
    }
    TrackingAllocator pack_alloc;
    const PackedMatrix packed = PackWeights(pack_alloc, b.data(), k, n, "bench.pack");

    Spread s = TimeSeconds([&] { SeedMatMul(a.data(), b.data(), c.data(), m, k, n); });
    points.push_back(
        {"matmul", "seed_scalar", "scalar", 1, 1, flops, bytes, s});
    s = TimeSeconds([&] { ref::MatMul(a.data(), b.data(), c.data(), m, k, n); });
    points.push_back(
        {"matmul", "ref_scalar", "scalar", 1, 1, flops, bytes, s});
    // Single-thread candidates for the headline: the kernel with the
    // lowest median time.
    const KernelOps* best_ops = nullptr;
    bool best_packed = false;
    double best_seconds = 0.0;
    auto consider = [&](const KernelOps* ops, bool is_packed, const Spread& t) {
      if (best_ops == nullptr || t.median < best_seconds) {
        best_ops = ops;
        best_packed = is_packed;
        best_seconds = t.median;
      }
    };
    for (const KernelOps* ops : backends) {
      for (int t : thread_counts) {
        ThreadPool pool(t);
        s = TimeSeconds(
            [&] { MatMul(a.data(), b.data(), c.data(), m, k, n, &pool, ops); });
        points.push_back({"matmul", "blocked", ops->name, Lanes(ops), t, flops, bytes, s});
        if (t == 1) {
          consider(ops, false, s);
        }
        if (ops->gemm_layout != GemmLayout::kPacked) {
          continue;  // packed kernels exist only where the layout policy uses them
        }
        s = TimeSeconds([&] { MatMulPacked(a.data(), packed, c.data(), m, &pool, ops); });
        points.push_back({"matmul", "packed", ops->name, Lanes(ops), t, flops, bytes, s});
        if (t == 1) {
          consider(ops, true, s);
        }
      }
    }

    // The headline ratio: the scalar blocked kernel and the best one run
    // alternately, one repeat each, so drift of the host between repeats
    // moves both sides of each ratio.
    ThreadPool serial(1);
    const KernelOps* scalar = GetKernelOps(KernelBackend::kScalar);
    auto scalar_call = [&] {
      MatMul(a.data(), b.data(), c.data(), m, k, n, &serial, scalar);
    };
    auto best_call = [&] {
      if (best_packed) {
        MatMulPacked(a.data(), packed, c.data(), m, &serial, best_ops);
      } else {
        MatMul(a.data(), b.data(), c.data(), m, k, n, &serial, best_ops);
      }
    };
    const int scalar_calls = CallsPerRepeat(scalar_call);
    const int best_calls = CallsPerRepeat(best_call);
    std::vector<double> ratios;
    for (int r = 0; r < kRepeats; ++r) {
      const double scalar_s = TimeRepeat(scalar_call, scalar_calls);
      ratios.push_back(scalar_s / TimeRepeat(best_call, best_calls));
    }
    st_speedup = Quartiles(std::move(ratios));
    st_best_name = std::string(best_ops->name) + (best_packed ? "/packed" : "/blocked");
  }

  // RoPE: recompute (seed) vs precomputed table; shared across backends
  // (not dispatched — both backends rotate identically, by design). ~6
  // arithmetic ops per rotated pair; the seed path additionally pays
  // pow/cos/sin per element.
  {
    const int64_t rows = 512;
    const int64_t n_heads = 8;
    const int64_t head_dim = 64;
    const double flops = 6.0 * rows * n_heads * (head_dim / 2);
    const double bytes = 2.0 * 4.0 * rows * n_heads * head_dim;  // x read+write
    Rng rng(2);
    std::vector<float> x(static_cast<size_t>(rows * n_heads * head_dim));
    for (auto& v : x) {
      v = rng.NextUniformFloat(1.0f);
    }
    std::vector<int32_t> positions(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      positions[static_cast<size_t>(i)] = static_cast<int32_t>(i);
    }
    Spread s = TimeSeconds(
        [&] { ref::ApplyRope(x.data(), rows, n_heads, head_dim, positions, 10000.0f); });
    points.push_back(
        {"rope", "seed_recompute", "shared", 1, 1, flops, bytes,
         s});
    RopeTable table(head_dim, 10000.0f);
    table.EnsureCapacity(rows);
    for (int t : thread_counts) {
      ThreadPool pool(t);
      s = TimeSeconds(
          [&] { ApplyRopeWithTable(x.data(), rows, n_heads, head_dim, positions, table,
                                   &pool); });
      points.push_back(
          {"rope", "table", "shared", 1, t, flops, bytes, s});
    }
  }

  // RMSNorm rows.
  {
    const int64_t m = 2048;
    const int64_t h = 512;
    const double flops = 4.0 * m * h;
    const double bytes = 4.0 * (2.0 * m * h + h);  // x read, y written, w read
    Rng rng(3);
    std::vector<float> x(static_cast<size_t>(m * h));
    std::vector<float> w(static_cast<size_t>(h), 1.0f);
    std::vector<float> y(static_cast<size_t>(m * h));
    for (auto& v : x) {
      v = rng.NextUniformFloat(1.0f);
    }
    Spread s = TimeSeconds([&] { ref::RmsNormRows(x.data(), w.data(), y.data(), m, h); });
    points.push_back(
        {"rmsnorm", "ref_scalar", "scalar", 1, 1, flops, bytes, s});
    for (const KernelOps* ops : backends) {
      for (int t : thread_counts) {
        ThreadPool pool(t);
        s = TimeSeconds(
            [&] { RmsNormRows(x.data(), w.data(), y.data(), m, h, 1e-5f, &pool, ops); });
        points.push_back({"rmsnorm", "row_parallel", ops->name, Lanes(ops), t,
                          flops, bytes, s});
      }
    }
  }

  // SwiGLU rows.
  {
    const int64_t m = 1024;
    const int64_t inter = 896;
    const double flops = 6.0 * m * inter;  // exp counted as one
    const double bytes = 4.0 * (m * 2 * inter + m * inter);
    Rng rng(4);
    std::vector<float> gate_up(static_cast<size_t>(m * 2 * inter));
    std::vector<float> out(static_cast<size_t>(m * inter));
    for (auto& v : gate_up) {
      v = rng.NextUniformFloat(1.0f);
    }
    Spread s = TimeSeconds([&] { ref::SwiGluRows(gate_up.data(), out.data(), m, inter); });
    points.push_back(
        {"swiglu", "ref_scalar", "scalar", 1, 1, flops, bytes, s});
    for (const KernelOps* ops : backends) {
      for (int t : thread_counts) {
        ThreadPool pool(t);
        s = TimeSeconds(
            [&] { SwiGluRows(gate_up.data(), out.data(), m, inter, &pool, ops); });
        points.push_back({"swiglu", "row_parallel", ops->name, Lanes(ops), t,
                          flops, bytes, s});
      }
    }
  }

  // Packed GEMM at the small model's chunk shapes, one thread, for each
  // avx2 table: every projection is [m, k] x [k, n] with (k, n) one of
  // wq/wo (128, 128), wk/wv (128, 32), gate_up (128, 896), down (448, 128);
  // m = 64 is a prefill chunk, 8 a short batch, 1 the GEMV (LM head).
  {
    struct Shape {
      const char* name;
      int64_t k;
      int64_t n;
    };
    const Shape shapes[] = {{"qo", 128, 128}, {"kv", 128, 32}, {"gate_up", 128, 896},
                            {"down", 448, 128}};
    for (const Shape& shape : shapes) {
      Rng rng(6);
      std::vector<float> a(static_cast<size_t>(64 * shape.k));
      std::vector<float> b(static_cast<size_t>(shape.k * shape.n));
      std::vector<float> c(static_cast<size_t>(64 * shape.n));
      for (auto* buf : {&a, &b}) {
        for (auto& x : *buf) {
          x = rng.NextUniformFloat(1.0f);
        }
      }
      TrackingAllocator pack_alloc;
      const PackedMatrix packed =
          PackWeights(pack_alloc, b.data(), shape.k, shape.n, "bench.pack");
      for (const int64_t m : {int64_t{64}, int64_t{8}, int64_t{1}}) {
        const double flops = 2.0 * m * shape.k * shape.n;
        const double bytes = 4.0 * (m * shape.k + shape.k * shape.n + m * shape.n);
        std::string variant = "packed_";
        variant += shape.name;
        variant += "_m" + std::to_string(m);
        for (const KernelOps* ops : Avx2Tables()) {
          const Spread s = TimeSeconds([&] {
            if (m == 1) {
              ops->matmul_panels_packed(a.data(), packed, c.data(), 0, packed.n_panels());
            } else {
              ops->matmul_rows_packed(a.data(), packed, c.data(), 0, m);
            }
          });
          points.push_back({"matmul", variant, ops->name, Lanes(ops), 1, flops, bytes, s});
        }
      }
    }
  }

  // Causal GQA attention over a full prefill of `positions` tokens at the
  // `small` model's shape (8 query heads over 2 KV heads, head_dim 16), one
  // thread: the per-key path (one (row, head) pair at a time, two indirect
  // dot/axpy calls per key — the composition attention_rows must
  // reproduce) against the backend's attention_rows (one call per KV group
  // over all rows). Both produce the same bits; FLOPs count 4 * head_dim
  // per (row, head, key): the q.k dot and the p.v axpy. Both avx2 tables
  // run; the per-key path is the same code in each.
  for (const int64_t positions : {int64_t{150}, int64_t{500}}) {
    const ModelConfig shape = ModelConfig::Small();
    const int64_t n_heads = shape.n_heads;
    const int64_t n_kv = shape.n_kv_heads;
    const int64_t d = shape.head_dim;
    const int64_t group = n_heads / n_kv;
    const int64_t qs = n_heads * d;
    const int64_t kvw = n_kv * d;
    const double pairs = static_cast<double>(n_heads) * positions * (positions + 1) / 2;
    const double flops = 4.0 * d * pairs;
    const double bytes = 4.0 * (2.0 * positions * qs + 2.0 * positions * kvw);
    Rng rng(5);
    std::vector<float> q(static_cast<size_t>(positions * qs));
    std::vector<float> k(static_cast<size_t>(positions * kvw));
    std::vector<float> v(static_cast<size_t>(positions * kvw));
    std::vector<float> out(static_cast<size_t>(positions * qs));
    std::vector<float> scores(static_cast<size_t>(positions));
    for (auto* buf : {&q, &k, &v}) {
      for (auto& x : *buf) {
        x = rng.NextUniformFloat(1.0f);
      }
    }
    const float scale = 1.0f / std::sqrt(static_cast<float>(d));
    const AttentionArgs args{q.data(), out.data(), nullptr, nullptr, 0, k.data(), v.data(),
                             0,        0,          n_heads, n_kv,    d,        scale};
    std::string variant_suffix = "_";
    variant_suffix += std::to_string(positions);
    std::vector<const KernelOps*> tables = {GetKernelOps(KernelBackend::kScalar)};
    for (const KernelOps* ops : Avx2Tables()) {
      tables.push_back(ops);
    }
    for (const KernelOps* ops : tables) {
      Spread s = TimeSeconds([&] {
        for (int64_t i = 0; i < positions; ++i) {
          for (int64_t h = 0; h < n_heads; ++h) {
            const float* qv = q.data() + i * qs + h * d;
            const int64_t kv_col = h / group * d;
            for (int64_t j = 0; j <= i; ++j) {
              scores[static_cast<size_t>(j)] =
                  ops->dot(qv, k.data() + j * kvw + kv_col, d) * scale;
            }
            ops->softmax_row(scores.data(), i + 1);
            float* o = out.data() + i * qs + h * d;
            std::memset(o, 0, static_cast<size_t>(d) * sizeof(float));
            for (int64_t j = 0; j <= i; ++j) {
              ops->axpy(o, v.data() + j * kvw + kv_col, scores[static_cast<size_t>(j)], d);
            }
          }
        }
      });
      points.push_back({"attention", "per_key" + variant_suffix, ops->name, Lanes(ops), 1,
                        flops, bytes, s});
      s = TimeSeconds([&] {
        for (int64_t g = 0; g < n_kv; ++g) {
          ops->attention_rows(args, 0, positions, g * group, (g + 1) * group,
                              scores.data());
        }
      });
      points.push_back({"attention", "rows" + variant_suffix, ops->name, Lanes(ops), 1,
                        flops, bytes, s});
    }
  }

  // A solo 500-token hybrid prefill of the `small` model (chunk 64, the
  // po_bench deployment's mode) on the default backend at 1/2/4 threads:
  // pass-level thread scaling, fork-join overhead included. One repeat of
  // each thread count in turn, so host drift moves every count alike, each
  // after one untimed pass on its pool; the speedup is the median of
  // per-repeat ratios against the 1-thread pass.
  struct PassPoint {
    int threads;
    Spread ms;
    Spread speedup;
  };
  std::vector<PassPoint> pass_points;
  {
    const int64_t n_tokens = 500;
    LlamaModel model(ModelConfig::Small(), 42);
    Rng rng(7);
    std::vector<int32_t> tokens(static_cast<size_t>(n_tokens));
    for (auto& t : tokens) {
      t = static_cast<int32_t>(
          rng.NextBounded(static_cast<uint64_t>(model.config().vocab_size)));
    }
    PrefillOptions options;
    options.mode = PrefillMode::kHybrid;
    options.chunk_size = 64;
    const std::vector<int> pass_threads = {1, 2, 4};
    std::vector<std::unique_ptr<ThreadPool>> pools;
    std::vector<int> calls;
    for (const int t : pass_threads) {
      pools.push_back(std::make_unique<ThreadPool>(t));
    }
    auto pass = [&](size_t i) {
      model.SetThreadPool(pools[i].get());
      TrackingAllocator act;
      const auto result = model.Prefill(tokens, nullptr, options, act);
      if (!result.ok()) {
        std::fprintf(stderr, "prefill failed: %s\n", result.status().ToString().c_str());
      }
    };
    for (size_t i = 0; i < pass_threads.size(); ++i) {
      calls.push_back(CallsPerRepeat([&] { pass(i); }));
    }
    std::vector<std::vector<double>> ms(pass_threads.size());
    std::vector<std::vector<double>> ratios(pass_threads.size());
    for (int r = 0; r < kRepeats; ++r) {
      for (size_t i = 0; i < pass_threads.size(); ++i) {
        pass(i);  // untimed: the previous count's threads left the caches cold
        ms[i].push_back(1e3 * TimeRepeat([&] { pass(i); }, calls[i]));
        ratios[i].push_back(ms[0].back() / ms[i].back());
      }
    }
    for (size_t i = 0; i < pass_threads.size(); ++i) {
      pass_points.push_back({pass_threads[i], Quartiles(ms[i]), Quartiles(ratios[i])});
    }
  }

  std::printf("%-10s %-18s %-8s %5s %8s %12s %21s %12s %12s\n", "kernel", "variant",
              "backend", "lanes", "threads", "GFLOP/s", "[q1, q3]", "GB/s", "sec/call");
  for (const auto& p : points) {
    const Spread gflops = p.Gflops();
    std::printf("%-10s %-18s %-8s %5d %8d %12.3f [%9.3f, %9.3f] %12.3f %12.6f\n",
                p.kernel.c_str(), p.variant.c_str(), p.backend.c_str(), p.lanes, p.threads,
                gflops.median, gflops.q1, gflops.q3, p.Gbps(), p.seconds.median);
  }
  std::printf(
      "\nsingle-thread matmul (m=256,k=512,n=512): best %s = %.2fx [q1 %.2f, q3 %.2f] "
      "the scalar blocked kernel (median of %d alternating repeats)\n",
      st_best_name.c_str(), st_speedup.median, st_speedup.q1, st_speedup.q3, kRepeats);
  std::printf("\nsolo hybrid prefill, small model, 500 tokens, chunk 64 (%s):\n",
              GetKernelOps(KernelBackend::kAuto)->name);
  std::printf("%8s %10s %21s %10s %21s\n", "threads", "ms/pass", "[q1, q3]", "speedup",
              "[q1, q3]");
  for (const PassPoint& p : pass_points) {
    std::printf("%8d %10.3f [%9.3f, %9.3f] %9.2fx [%9.2f, %9.2f]\n", p.threads,
                p.ms.median, p.ms.q1, p.ms.q3, p.speedup.median, p.speedup.q1,
                p.speedup.q3);
  }

  const po_bench::HostInfo host = bench::ProbeCheckout();
  FILE* f = std::fopen(json_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return;
  }
  std::fprintf(f, "{\n  ");
  bench::WriteHostFields(f, host);
  std::fprintf(f,
               ", \"avx2_lanes\": %d},\n"
               "  \"avx2_available\": %s,\n  \"repeats\": %d,\n"
               "  \"single_thread_matmul_speedup\": {\"best\": \"%s\", \"median\": %.4f, "
               "\"q1\": %.4f, \"q3\": %.4f},\n  \"kernels\": [\n",
               Avx2Available() ? Lanes(GetKernelOps(KernelBackend::kAvx2)) : 0,
               Avx2Available() ? "true" : "false", kRepeats, st_best_name.c_str(),
               st_speedup.median, st_speedup.q1, st_speedup.q3);
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    const Spread gflops = p.Gflops();
    std::fprintf(f,
                 "    {\"kernel\": \"%s\", \"variant\": \"%s\", \"backend\": \"%s\", "
                 "\"lanes\": %d, \"threads\": %d, \"gflops\": %.4f, \"gflops_q1\": %.4f, "
                 "\"gflops_q3\": %.4f, \"gbps\": %.4f, \"seconds_per_call\": %.6g}%s\n",
                 p.kernel.c_str(), p.variant.c_str(), p.backend.c_str(), p.lanes, p.threads,
                 gflops.median, gflops.q1, gflops.q3, p.Gbps(), p.seconds.median,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"prefill_pass\": [\n");
  for (size_t i = 0; i < pass_points.size(); ++i) {
    const PassPoint& p = pass_points[i];
    std::fprintf(f,
                 "    {\"model\": \"small\", \"mode\": \"hybrid\", \"tokens\": 500, "
                 "\"chunk\": 64, \"backend\": \"%s\", \"threads\": %d, \"ms\": %.4f, "
                 "\"ms_q1\": %.4f, \"ms_q3\": %.4f, \"speedup_vs_1\": %.4f, "
                 "\"speedup_q1\": %.4f, \"speedup_q3\": %.4f}%s\n",
                 GetKernelOps(KernelBackend::kAuto)->name, p.threads, p.ms.median,
                 p.ms.q1, p.ms.q3, p.speedup.median, p.speedup.q1, p.speedup.q3,
                 i + 1 < pass_points.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path);
}

// ------------------------------------------------- google-benchmark suite

#ifdef PO_HAVE_GBENCH

void BM_MatMul(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t k = 256;
  const int64_t n = 256;
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> c(static_cast<size_t>(m * n));
  for (auto& v : a) {
    v = rng.NextUniformFloat(1.0f);
  }
  for (auto& v : b) {
    v = rng.NextUniformFloat(1.0f);
  }
  for (auto _ : state) {
    MatMul(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n * 2);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128)->Arg(512);

void BM_MatMulThreaded(benchmark::State& state) {
  const int64_t m = 512;
  const int64_t k = 256;
  const int64_t n = 256;
  ThreadPool pool(static_cast<int>(state.range(0)));
  Rng rng(1);
  std::vector<float> a(static_cast<size_t>(m * k));
  std::vector<float> b(static_cast<size_t>(k * n));
  std::vector<float> c(static_cast<size_t>(m * n));
  for (auto& v : a) {
    v = rng.NextUniformFloat(1.0f);
  }
  for (auto& v : b) {
    v = rng.NextUniformFloat(1.0f);
  }
  for (auto _ : state) {
    MatMul(a.data(), b.data(), c.data(), m, k, n, &pool);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * m * k * n * 2);
}
BENCHMARK(BM_MatMulThreaded)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_RmsNorm(benchmark::State& state) {
  const int64_t m = state.range(0);
  const int64_t h = 256;
  Rng rng(2);
  std::vector<float> x(static_cast<size_t>(m * h));
  std::vector<float> w(static_cast<size_t>(h), 1.0f);
  std::vector<float> y(static_cast<size_t>(m * h));
  for (auto& v : x) {
    v = rng.NextUniformFloat(1.0f);
  }
  for (auto _ : state) {
    RmsNormRows(x.data(), w.data(), y.data(), m, h);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_RmsNorm)->Arg(128)->Arg(1024);

void BM_BlockHashChain(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  std::vector<int32_t> tokens(static_cast<size_t>(n));
  for (auto& t : tokens) {
    t = static_cast<int32_t>(rng.NextBounded(32000));
  }
  for (auto _ : state) {
    auto chain = BlockHashChain(tokens, 256);
    benchmark::DoNotOptimize(chain.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BlockHashChain)->Arg(14000)->Arg(60000);

void BM_PrefixCacheAcquireRelease(benchmark::State& state) {
  PrefixCache cache(256, 1024);
  Rng rng(4);
  std::vector<std::vector<uint64_t>> chains;
  for (int i = 0; i < 64; ++i) {
    std::vector<uint64_t> chain;
    for (int b = 0; b < 56; ++b) {
      chain.push_back(rng.NextU64());
    }
    chains.push_back(std::move(chain));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& chain = chains[i++ % chains.size()];
    auto acq = cache.Acquire(chain, static_cast<int64_t>(chain.size()) + 1);
    if (acq.ok()) {
      cache.Release(acq.value(), static_cast<int64_t>(chain.size()));
    }
  }
}
BENCHMARK(BM_PrefixCacheAcquireRelease);

void BM_SchedulerPickNext(benchmark::State& state) {
  const size_t queue_len = static_cast<size_t>(state.range(0));
  CacheMissProxyEstimator proxy;
  Scheduler sched(SchedPolicy::kSrjfCalibrated, 500.0, &proxy);
  Rng rng(5);
  std::vector<SchedEntry> queue(queue_len);
  for (auto& e : queue) {
    e.arrival_time = rng.NextDouble() * 100;
    e.n_input = static_cast<int64_t>(rng.NextBounded(60000)) + 1;
    e.n_cached_now = static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(e.n_input)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(sched.PickNext(queue, 101.0));
  }
}
BENCHMARK(BM_SchedulerPickNext)->Arg(16)->Arg(256)->Arg(4096);

void BM_PrefillHybridTiny(benchmark::State& state) {
  static const LlamaModel* model = new LlamaModel(ModelConfig::Tiny(), 7);
  Rng rng(6);
  std::vector<int32_t> tokens(static_cast<size_t>(state.range(0)));
  for (auto& t : tokens) {
    t = static_cast<int32_t>(
        rng.NextBounded(static_cast<uint64_t>(model->config().vocab_size)));
  }
  TrackingAllocator act;
  PrefillOptions options;
  options.mode = PrefillMode::kHybrid;
  options.chunk_size = 32;
  for (auto _ : state) {
    auto result = model->Prefill(tokens, nullptr, options, act);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrefillHybridTiny)->Arg(64)->Arg(256);

#endif  // PO_HAVE_GBENCH

}  // namespace

int main(int argc, char** argv) {
  bool gbench = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--gbench") {
      gbench = true;
      // Shift the flag out so google-benchmark sees only its own args.
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      break;
    }
  }
  if (!gbench) {
    RunJsonSweep("BENCH_kernels.json");
    return 0;
  }
#ifdef PO_HAVE_GBENCH
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
#else
  std::fprintf(stderr, "built without google-benchmark; --gbench unavailable\n");
  return 1;
#endif
}
