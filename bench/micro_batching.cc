// Continuous batching microbenchmark (ISSUE 4): the REAL engine's batched
// prefill path, throughput vs batch size vs prompt length, per kernel
// backend.
//
// Context: the paper (§6.1) argues GPU prefill is compute-bound, so fusing
// requests into one long prefill only inflates latency — and PrefillOnly
// schedules one request at a time. That argument prices FLOPs, not kernel
// launch efficiency. At SHORT prompt lengths a prefill's GEMMs run at tiny
// m, where the weight-panel sweep (memory traffic per output row) and
// per-pass overheads dominate; stacking B compatible prompts into one pass
// (Prepacking, Zhao et al. 2024) re-amortizes both without changing any
// request's logits (the ISSUE 4 determinism contract). This bench measures
// exactly that effect end to end: same backlog, same engine, max_batch_size
// swept over {1, 2, 4, 8}.
//
// Output: a human table plus BENCH_batching.json (reference copy checked
// into the repo root, under po_bench's provenance header). Acceptance
// bar: batched throughput at batch size 4 on short prompts >= solo.
//
// ISSUE 9 adds a mixed-length scenario: lengths cycling across several
// power-of-two LengthBuckets, drained once under the legacy bucket rule and
// once under budget-aware first-fit packing, same max_batch_size. The
// packing metric is lane occupancy in the currency that costs money —
// miss tokens per dispatched batch — and the run FAILS (exit 1) if packing
// admits fewer miss-tokens per batch than the bucket rule on this workload.
//
// Every point is the median of kReps drains, each on a fresh engine, with
// the quartiles of the drain time beside it: one drain lasts milliseconds,
// so a single one (or the best of several) mostly measures host noise.
// Occupancy is deterministic and the same in every drain.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/provenance.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/core/request.h"
#include "src/tensor/ops_dispatch.h"

namespace {

using namespace prefillonly;

EngineOptions BenchOptions(KernelBackend backend, int max_batch) {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.kernel_backend = backend;
  options.block_size = 16;
  options.cache_budget_tokens = 1024;
  options.chunk_size = 32;
  options.num_threads = 0;  // whole machine
  options.max_batch_size = max_batch;
  return options;
}

std::vector<ScoringRequest> BenchWorkload(int n_requests, int64_t n_tokens) {
  // Distinct random prompts of ONE length: no prefix-cache hits, and every
  // request lands in the same LengthBucket, so formation is limited only by
  // max_batch_size.
  std::vector<ScoringRequest> requests;
  Rng rng(7);
  for (int i = 0; i < n_requests; ++i) {
    ScoringRequest request;
    request.user_id = i;
    request.tokens.resize(static_cast<size_t>(n_tokens));
    for (auto& t : request.tokens) {
      t = static_cast<int32_t>(rng.NextBounded(256));
    }
    request.allowed_tokens = {10, 20};
    requests.push_back(std::move(request));
  }
  return requests;
}

// Queues `workload` while the runtime is stopped, then times StartWorker()
// + StopWorker() draining it. With one executor lane every decision sees
// the full remaining queue, so batch formation is deterministic. Exits if a
// request is refused or fails.
double DrainSeconds(Engine& engine, const std::vector<ScoringRequest>& workload) {
  std::atomic<int> failed{0};
  const Engine::GroupCallback hook = [&failed](size_t, const Result<ScoringResponse>& r) {
    if (!r.ok()) {
      ++failed;
    }
  };
  for (const auto& request : workload) {
    if (auto submitted = engine.SubmitGroupAsync({request}, hook); !submitted.ok()) {
      std::fprintf(stderr, "submit failed: %s\n", submitted.status().ToString().c_str());
      std::exit(1);
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  if (Status started = engine.StartWorker(); !started.ok()) {
    std::fprintf(stderr, "StartWorker failed: %s\n", started.ToString().c_str());
    std::exit(1);
  }
  engine.StopWorker();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (failed.load() > 0) {
    std::fprintf(stderr, "%d requests failed\n", failed.load());
    std::exit(1);
  }
  return elapsed;
}

struct Point {
  std::string backend;
  int64_t prompt_len = 0;
  int max_batch = 0;
  int requests = 0;
  double seconds = 0.0;  // one drain; the median one after MedianOf
  double seconds_q1 = 0.0;
  double seconds_q3 = 0.0;
  double prefills_per_s = 0.0;
  double occupancy = 0.0;
};

// The median of `reps` runs of run() by drain time, carrying the
// quartiles of the drain time (nearest rank). Its rates are the median
// drain's.
template <typename P, typename Run>
P MedianOf(int reps, const Run& run) {
  std::vector<P> runs;
  for (int r = 0; r < reps; ++r) {
    runs.push_back(run());
  }
  std::sort(runs.begin(), runs.end(),
            [](const P& a, const P& b) { return a.seconds < b.seconds; });
  P median = runs[runs.size() / 2];
  median.seconds_q1 = runs[runs.size() / 4].seconds;
  median.seconds_q3 = runs[3 * runs.size() / 4].seconds;
  return median;
}

Point RunOnce(KernelBackend backend, const std::vector<ScoringRequest>& workload,
              int max_batch) {
  Engine engine(BenchOptions(backend, max_batch));
  const double elapsed = DrainSeconds(engine, workload);
  const EngineStats stats = engine.stats();
  Point p;
  p.backend = KernelBackendName(engine.model().kernel_backend());
  p.prompt_len = static_cast<int64_t>(workload[0].tokens.size());
  p.max_batch = max_batch;
  p.requests = static_cast<int>(stats.completed);
  p.seconds = elapsed;
  p.prefills_per_s = static_cast<double>(p.requests) / elapsed;
  p.occupancy = stats.batches_dispatched > 0
                    ? static_cast<double>(stats.batched_requests) /
                          static_cast<double>(stats.batches_dispatched)
                    : 0.0;
  return p;
}

// ---------------------------------------- mixed-length packing (ISSUE 9)

std::vector<ScoringRequest> MixedWorkload(int n_requests) {
  // Lengths cycling across six DISTINCT LengthBuckets (1..6), so each
  // bracket holds fewer requests than max_batch: under the legacy bucket
  // rule a drain decision can only fill from the seed's bracket and strands
  // every lane part-empty; first-fit packing welds the brackets into full
  // lanes.
  const int64_t kLengths[] = {2, 5, 9, 17, 33, 65};
  std::vector<ScoringRequest> requests;
  Rng rng(11);
  for (int i = 0; i < n_requests; ++i) {
    ScoringRequest request;
    request.user_id = i;
    request.tokens.resize(static_cast<size_t>(kLengths[i % 6]));
    for (auto& t : request.tokens) {
      t = static_cast<int32_t>(rng.NextBounded(256));
    }
    request.allowed_tokens = {10, 20};
    requests.push_back(std::move(request));
  }
  return requests;
}

struct MixedPoint {
  std::string backend;
  std::string packing;
  int max_batch = 0;
  double seconds = 0.0;  // one drain; the median one after MedianOf
  double seconds_q1 = 0.0;
  double seconds_q3 = 0.0;
  double prefills_per_s = 0.0;
  double occupancy = 0.0;            // requests per dispatched batch
  double miss_tokens_per_batch = 0.0;  // lane occupancy in miss tokens
  int64_t batches = 0;
};

MixedPoint RunMixedOnce(KernelBackend backend,
                        const std::vector<ScoringRequest>& workload,
                        BatchPacking packing, int max_batch) {
  EngineOptions options = BenchOptions(backend, max_batch);
  options.batch_packing = packing;
  Engine engine(options);
  const double elapsed = DrainSeconds(engine, workload);
  const EngineStats stats = engine.stats();
  MixedPoint p;
  p.backend = KernelBackendName(engine.model().kernel_backend());
  p.packing = BatchPackingName(packing);
  p.max_batch = max_batch;
  p.seconds = elapsed;
  p.prefills_per_s = static_cast<double>(stats.completed) / elapsed;
  p.batches = stats.batches_dispatched;
  p.occupancy = stats.batches_dispatched > 0
                    ? static_cast<double>(stats.batched_requests) /
                          static_cast<double>(stats.batches_dispatched)
                    : 0.0;
  p.miss_tokens_per_batch =
      stats.batches_dispatched > 0
          ? static_cast<double>(stats.batched_miss_tokens) /
                static_cast<double>(stats.batches_dispatched)
          : 0.0;
  return p;
}

}  // namespace

int main() {
  constexpr int kRequests = 32;
  constexpr int kReps = 7;
  const int64_t kPromptLens[] = {8, 16, 64};
  const int kBatchSizes[] = {1, 2, 4, 8};

  std::vector<KernelBackend> backends{KernelBackend::kScalar};
  if (Avx2Available()) {
    backends.push_back(KernelBackend::kAvx2);
  }

  std::printf("continuous batching: %d requests per cell, %u hardware threads\n\n",
              kRequests, std::thread::hardware_concurrency());
  std::printf("%-8s %10s %10s %10s %12s %21s %16s %10s\n", "backend", "prompt", "batch",
              "requests", "seconds", "[q1, q3]", "prefills/sec", "occupancy");

  std::vector<Point> points;
  for (KernelBackend backend : backends) {
    for (int64_t prompt_len : kPromptLens) {
      const auto workload = BenchWorkload(kRequests, prompt_len);
      // Warm-up run: each RunOnce builds a fresh engine, so this only
      // pre-faults code/malloc pages — enough to keep first-measured-cell
      // jitter out of the medians below.
      (void)RunOnce(backend, workload, 1);
      for (int max_batch : kBatchSizes) {
        const Point p =
            MedianOf<Point>(kReps, [&] { return RunOnce(backend, workload, max_batch); });
        std::printf("%-8s %10lld %10d %10d %12.4f [%9.4f, %9.4f] %16.2f %10.2f\n",
                    p.backend.c_str(), static_cast<long long>(p.prompt_len), p.max_batch,
                    p.requests, p.seconds, p.seconds_q1, p.seconds_q3, p.prefills_per_s,
                    p.occupancy);
        points.push_back(p);
      }
    }
  }

  // The acceptance bar: batch 4 vs solo on the short prompt, per backend.
  std::printf("\n");
  for (KernelBackend backend : backends) {
    const char* name = KernelBackendName(backend);
    double solo = 0.0;
    double batch4 = 0.0;
    for (const Point& p : points) {
      if (p.backend == name && p.prompt_len == kPromptLens[0]) {
        if (p.max_batch == 1) solo = p.prefills_per_s;
        if (p.max_batch == 4) batch4 = p.prefills_per_s;
      }
    }
    std::printf("%s: batch4/solo throughput at %lld tokens = %.3f "
                "(ISSUE 4 bar: >= ~1.0)\n",
                name, static_cast<long long>(kPromptLens[0]),
                solo > 0 ? batch4 / solo : 0.0);
  }

  // Mixed-length scenario (ISSUE 9): packed vs bucket admission on the same
  // cross-bucket backlog, same max_batch_size.
  constexpr int kMixedBatch = 8;
  std::printf("\nmixed-length packing: lengths {2,5,9,17,33,65} cycling, "
              "max_batch %d\n", kMixedBatch);
  std::printf("%-8s %10s %10s %12s %21s %16s %10s %18s\n", "backend", "packing",
              "batches", "seconds", "[q1, q3]", "prefills/sec", "occupancy",
              "miss_tok/batch");
  std::vector<MixedPoint> mixed;
  bool gate_ok = true;
  for (KernelBackend backend : backends) {
    const auto workload = MixedWorkload(kRequests);
    (void)RunMixedOnce(backend, workload, BatchPacking::kBucket, kMixedBatch);
    const auto median = [&](BatchPacking packing) {
      return MedianOf<MixedPoint>(
          kReps, [&] { return RunMixedOnce(backend, workload, packing, kMixedBatch); });
    };
    const MixedPoint bucket = median(BatchPacking::kBucket);
    const MixedPoint packed = median(BatchPacking::kFirstFit);
    for (const MixedPoint* p : {&bucket, &packed}) {
      std::printf("%-8s %10s %10lld %12.4f [%9.4f, %9.4f] %16.2f %10.2f %18.2f\n",
                  p->backend.c_str(), p->packing.c_str(),
                  static_cast<long long>(p->batches), p->seconds, p->seconds_q1,
                  p->seconds_q3, p->prefills_per_s, p->occupancy,
                  p->miss_tokens_per_batch);
      mixed.push_back(*p);
    }
    std::printf("%s: packed/bucket miss-tokens-per-batch = %.3f, "
                "packed/bucket throughput = %.3f (ISSUE 9 gate: occupancy >= 1.0)\n",
                bucket.backend.c_str(),
                bucket.miss_tokens_per_batch > 0
                    ? packed.miss_tokens_per_batch / bucket.miss_tokens_per_batch
                    : 0.0,
                bucket.prefills_per_s > 0
                    ? packed.prefills_per_s / bucket.prefills_per_s
                    : 0.0);
    if (packed.miss_tokens_per_batch < bucket.miss_tokens_per_batch) {
      std::fprintf(stderr,
                   "GATE FAILED (%s): first-fit packing admits fewer miss "
                   "tokens per batch (%.2f) than the bucket rule (%.2f) on "
                   "the mixed workload\n",
                   bucket.backend.c_str(), packed.miss_tokens_per_batch,
                   bucket.miss_tokens_per_batch);
      gate_ok = false;
    }
  }

  const po_bench::HostInfo host = bench::ProbeCheckout();
  FILE* f = std::fopen("BENCH_batching.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_batching.json\n");
    return 1;
  }
  std::fprintf(f, "{\n  ");
  bench::WriteHostFields(f, host);
  std::fprintf(f, "},\n  \"batching\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"prompt_len\": %lld, \"max_batch\": %d, "
                 "\"requests\": %d, \"seconds\": %.6g, \"seconds_q1\": %.6g, "
                 "\"seconds_q3\": %.6g, \"prefills_per_s\": %.4f, "
                 "\"occupancy\": %.4f}%s\n",
                 p.backend.c_str(), static_cast<long long>(p.prompt_len), p.max_batch,
                 p.requests, p.seconds, p.seconds_q1, p.seconds_q3, p.prefills_per_s,
                 p.occupancy,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"mixed_length\": [\n");
  for (size_t i = 0; i < mixed.size(); ++i) {
    const auto& p = mixed[i];
    std::fprintf(f,
                 "    {\"backend\": \"%s\", \"packing\": \"%s\", \"max_batch\": %d, "
                 "\"batches\": %lld, \"seconds\": %.6g, \"seconds_q1\": %.6g, "
                 "\"seconds_q3\": %.6g, \"prefills_per_s\": %.4f, \"occupancy\": %.4f, "
                 "\"miss_tokens_per_batch\": %.4f}%s\n",
                 p.backend.c_str(), p.packing.c_str(), p.max_batch,
                 static_cast<long long>(p.batches), p.seconds, p.seconds_q1,
                 p.seconds_q3, p.prefills_per_s, p.occupancy, p.miss_tokens_per_batch,
                 i + 1 < mixed.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_batching.json\n");
  return gate_ok ? 0 : 1;
}
