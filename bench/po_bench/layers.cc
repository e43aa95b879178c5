#include "bench/po_bench/layers.h"

#include <algorithm>
#include <functional>
#include <span>
#include <string>

#include "src/client/http_client.h"
#include "src/cluster/affinity_router.h"
#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/kvcache/prefix_cache.h"
#include "src/model/llama.h"
#include "src/sched/batch_cost.h"
#include "src/sched/jct.h"
#include "src/sched/scheduler.h"
#include "src/server/json.h"
#include "src/tensor/ops.h"
#include "src/tensor/prepack.h"
#include "src/tensor/tracking_allocator.h"

namespace po_bench {

using namespace prefillonly;

namespace {

// Caps how many of the traced requests one replay walks, to bound its time.
constexpr size_t kMaxReplayItems = 2000;

// Median seconds per call of `fn`: the batch size doubles until one batch
// takes at least `min_batch_s`, then `batches` batches are timed.
double SecondsPerCall(const std::function<void()>& fn, double min_batch_s = 0.004,
                      int batches = 7) {
  int64_t per_batch = 1;
  for (;;) {
    const double t0 = Now();
    for (int64_t i = 0; i < per_batch; ++i) {
      fn();
    }
    if (Now() - t0 >= min_batch_s || per_batch >= (int64_t{1} << 24)) {
      break;
    }
    per_batch *= 2;
  }
  std::vector<double> times;
  for (int b = 0; b < batches; ++b) {
    const double t0 = Now();
    for (int64_t i = 0; i < per_batch; ++i) {
      fn();
    }
    times.push_back((Now() - t0) / static_cast<double>(per_batch));
  }
  return Median(times);
}

// Successful traced requests (index into the phase), in send order.
std::vector<size_t> OkIndices(const PhaseResult& result) {
  std::vector<size_t> out;
  for (size_t i = 0; i < result.outcomes.size(); ++i) {
    if (result.outcomes[i].ok) {
      out.push_back(i);
    }
  }
  return out;
}

class Replayer {
 public:
  Replayer(const ReplayInput& input, TraceRecorder& trace)
      : in_(input), trace_(trace), ok_(OkIndices(*input.traced_result)) {}

  std::vector<Metric> Run() {
    Timed("replay.core", [&] { Core(); });
    Timed("replay.server", [&] { Server(); });
    Timed("replay.cluster", [&] { Cluster(); });
    Timed("replay.sched", [&] { Sched(); });
    Timed("replay.kvcache", [&] { KvCache(); });
    Timed("replay.model", [&] { Model(); });
    Timed("replay.tensor", [&] { Kernels(); });
    return std::move(metrics_);
  }

 private:
  void Timed(const std::string& name, const std::function<void()>& body) {
    const double t0 = Now();
    body();
    trace_.Replay(name, t0, Now());
  }

  void Add(const std::string& name, double value, const std::string& unit, int64_t n) {
    metrics_.push_back({name, value, unit, n});
  }

  const Item& item(size_t index) const { return in_.traced->items[index]; }
  const Outcome& outcome(size_t index) const {
    return in_.traced_result->outcomes[index];
  }

  // Delivery overhead of the engine at idle: one request at a time, the
  // wall time from Submit to the ready future minus the engine's own queue
  // and execute time.
  void Core() {
    std::vector<double> residual_ms;
    for (const Item& probe : in_.probes->items) {
      ScoringRequest request;
      request.tokens = probe.tokens;
      request.allowed_tokens = kAllowed;
      const double t0 = Now();
      auto submission = in_.deployment->set().Submit(std::move(request));
      if (!submission.ok()) {
        continue;
      }
      auto result = submission.value().future.get();
      const double t1 = Now();
      if (result.ok()) {
        residual_ms.push_back(
            (t1 - t0 - result.value().queue_time_s - result.value().execute_time_s) *
            1e3);
      }
    }
    Add("core.delivery_ms_p50", Median(residual_ms), "ms",
        static_cast<int64_t>(residual_ms.size()));
  }

  void Server() {
    // Round trip of the HTTP stack alone. In-process workloads have no
    // server, so one is stood up on the same deployment for the probe.
    std::unique_ptr<Deployment> stand_in;
    Deployment* server = in_.deployment;
    if (!server->http()) {
      auto created = Deployment::Create(Transport::kHttp);
      if (created.ok()) {
        stand_in = std::move(created.value());
        server = stand_in.get();
      }
    }
    if (server->http()) {
      HttpClientOptions options;
      options.port = server->port();
      HttpClient client(options);
      std::vector<double> rtt_us;
      for (int i = 0; i < 200; ++i) {
        const double t0 = Now();
        auto response = client.Get("/v1/health");
        if (response.ok() && response.value().status == 200) {
          rtt_us.push_back((Now() - t0) * 1e6);
        }
      }
      Add("server.http_rtt_us", Median(rtt_us), "us", static_cast<int64_t>(rtt_us.size()));
    }
    stand_in.reset();

    const size_t n = std::min(in_.traced->items.size(), kMaxReplayItems);
    std::vector<std::string> bodies;
    size_t bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      bodies.push_back(ScoreBody(item(i)));
      bytes += bodies.back().size();
    }
    const double parse_s = SecondsPerCall([&] {
      for (const std::string& body : bodies) {
        (void)Json::Parse(body);
      }
    });
    Add("server.json_parse_us_per_kb", parse_s * 1e6 / (static_cast<double>(bytes) / 1024.0),
        "us/KB", static_cast<int64_t>(n));

    // The response shape ScoringService sends, rebuilt from what came back.
    std::vector<Json> responses;
    for (size_t index : ok_) {
      if (responses.size() >= kMaxReplayItems) {
        break;
      }
      const Outcome& o = outcome(index);
      Json::Array probabilities;
      for (size_t k = 0; k < o.probabilities.size() && k < kAllowed.size(); ++k) {
        Json::Object entry;
        entry.emplace("token", Json(static_cast<int64_t>(kAllowed[k])));
        entry.emplace("probability", Json(o.probabilities[k]));
        probabilities.push_back(Json(std::move(entry)));
      }
      Json::Object body;
      body.emplace("score", Json(o.probabilities.empty() ? 0.0 : o.probabilities[0]));
      body.emplace("probabilities", Json(std::move(probabilities)));
      body.emplace("n_input", Json(o.n_input));
      body.emplace("n_cached", Json(o.n_cached));
      body.emplace("n_cached_offload", Json(int64_t{0}));
      body.emplace("batch_size", Json(o.batch_size));
      body.emplace("queue_time_s", Json(o.queue_s));
      body.emplace("execute_time_s", Json(o.execute_s));
      responses.push_back(Json(std::move(body)));
    }
    const double serialize_s = SecondsPerCall([&] {
      for (const Json& response : responses) {
        (void)response.Serialize();
      }
    });
    Add("server.json_serialize_us",
        serialize_s * 1e6 / static_cast<double>(std::max<size_t>(1, responses.size())), "us",
        static_cast<int64_t>(responses.size()));
  }

  void Cluster() {
    AffinityRouter router(kReplicas);
    const int block = DeploymentEngineOptions().block_size;
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < in_.traced->items.size() && i < kMaxReplayItems; ++i) {
      keys.push_back(AffinityKey(item(i).tokens, block));
    }
    const double pass_s = SecondsPerCall([&] {
      for (uint64_t key : keys) {
        (void)router.PreferenceOrder(key);
      }
    });
    Add("cluster.route_us", pass_s * 1e6 / static_cast<double>(std::max<size_t>(1, keys.size())),
        "us", static_cast<int64_t>(keys.size()));
  }

  // Scheduler decisions over queues of 8 and 64 traced requests, with the
  // cache hits the engine reported for them.
  void Sched() {
    const EngineOptions options = DeploymentEngineOptions();
    CacheMissProxyEstimator estimator;
    Scheduler scheduler(options.policy, options.lambda, &estimator, options.batch_packing);
    const BatchBudget budget = MakeBatchBudget(options.model, options.mode,
                                               options.activation_budget_bytes,
                                               options.block_size);
    std::vector<SchedEntry> entries;
    for (size_t index : ok_) {
      const Outcome& o = outcome(index);
      SchedEntry entry;
      entry.arrival_time = o.sched_s;
      entry.n_input = o.n_input;
      entry.n_cached_at_arrival = o.n_cached;
      entry.n_cached_now = o.n_cached;
      entries.push_back(entry);
    }
    if (entries.empty()) {
      return;
    }
    for (size_t depth : {size_t{8}, size_t{64}}) {
      // A short traced phase (--smoke) repeats its requests to fill the queue.
      for (size_t i = 0; entries.size() < depth; ++i) {
        entries.push_back(entries[i]);
      }
      const size_t windows = std::min<size_t>(entries.size() - depth + 1, 256);
      const double pass_s = SecondsPerCall([&] {
        for (size_t w = 0; w < windows; ++w) {
          std::span<const SchedEntry> queue(entries.data() + w, depth);
          (void)scheduler.PickBatch(queue, queue.back().arrival_time + 0.005,
                                    options.max_batch_size, budget);
        }
      });
      Add("sched.pick_us_q" + std::to_string(depth),
          pass_s * 1e6 / static_cast<double>(windows), "us", static_cast<int64_t>(windows));
    }
  }

  // The traced chain sequence against per-replica caches of the
  // deployment's capacity, routed as the ReplicaSet routes.
  void KvCache() {
    const EngineOptions options = DeploymentEngineOptions();
    const int block = options.block_size;
    AffinityRouter router(kReplicas);
    std::vector<std::unique_ptr<PrefixCache>> caches;
    for (int r = 0; r < kReplicas; ++r) {
      caches.push_back(
          std::make_unique<PrefixCache>(block, options.cache_budget_tokens / block));
    }
    double match_s = 0.0;
    double acquire_s = 0.0;
    double release_s = 0.0;
    int64_t calls = 0;
    for (size_t i = 0; i < in_.traced->items.size() && i < kMaxReplayItems; ++i) {
      const std::vector<int32_t>& tokens = item(i).tokens;
      const std::vector<uint64_t> chain = BlockHashChain(tokens, block);
      const int64_t n = static_cast<int64_t>(tokens.size());
      PrefixCache& cache = *caches[static_cast<size_t>(
          router.Primary(AffinityKey(tokens, block)))];
      const double t0 = Now();
      (void)cache.MatchTokens(chain);
      const double t1 = Now();
      auto acquisition = cache.Acquire(chain, (n + block - 1) / block, n);
      const double t2 = Now();
      if (!acquisition.ok()) {
        continue;
      }
      (void)cache.Release(acquisition.value(), static_cast<int64_t>(chain.size()));
      const double t3 = Now();
      match_s += t1 - t0;
      acquire_s += t2 - t1;
      release_s += t3 - t2;
      ++calls;
    }
    const double per_call_us = 1e6 / static_cast<double>(std::max<int64_t>(1, calls));
    Add("kvcache.match_us", match_s * per_call_us, "us", calls);
    Add("kvcache.acquire_us", acquire_s * per_call_us, "us", calls);
    Add("kvcache.release_us", release_s * per_call_us, "us", calls);
  }

  // Solo and batched prefills at the traced workload's median composition.
  void Model() {
    if (ok_.size() < 4) {
      return;
    }
    const EngineOptions options = DeploymentEngineOptions();
    LlamaModel model(options.model, options.weight_seed, options.kernel_backend);
    ThreadPool pool(options.num_threads);
    model.SetThreadPool(&pool);
    PrefillOptions prefill;
    prefill.mode = options.mode;
    prefill.chunk_size = options.chunk_size;

    std::vector<size_t> by_miss = ok_;
    std::sort(by_miss.begin(), by_miss.end(), [&](size_t a, size_t b) {
      return outcome(a).n_input - outcome(a).n_cached <
             outcome(b).n_input - outcome(b).n_cached;
    });
    const size_t mid = std::min(by_miss.size() / 2, by_miss.size() - 4);

    // The median request and its three successors by miss length, each
    // with its engine-served cached prefix materialized.
    TrackingAllocator prefix_memory;
    std::vector<KvCacheData> prefixes(4);
    std::vector<PrefillSequence> sequences;
    for (size_t k = 0; k < 4; ++k) {
      const size_t index = by_miss[mid + k];
      std::span<const int32_t> tokens(item(index).tokens);
      const int64_t n_cached = outcome(index).n_cached;
      if (n_cached > 0) {
        PrefillOptions keep = prefill;
        keep.retention = KvRetention::kAll;
        auto pass = model.Prefill(tokens.first(static_cast<size_t>(n_cached)), nullptr,
                                  keep, prefix_memory);
        if (!pass.ok()) {
          return;
        }
        prefixes[k] = std::move(pass.value().kv);
      }
      sequences.push_back({tokens, n_cached > 0 ? &prefixes[k] : nullptr,
                           KvRetention::kNone, 0});
    }

    auto run = [&](std::span<const PrefillSequence> batch) {
      TrackingAllocator activations;
      (void)model.PrefillBatch(batch, prefill, activations);
    };
    const double solo_s = SecondsPerCall(
        [&] { run(std::span<const PrefillSequence>(sequences).first(1)); }, 0.002, 9);
    const int64_t miss = outcome(by_miss[mid]).n_input - outcome(by_miss[mid]).n_cached;
    Add("model.prefill_us_per_miss_token", solo_s * 1e6 / static_cast<double>(miss), "us",
        miss);

    const double four_solo_s = SecondsPerCall(
        [&] {
          for (size_t k = 0; k < sequences.size(); ++k) {
            run(std::span<const PrefillSequence>(sequences).subspan(k, 1));
          }
        },
        0.002, 9);
    const double batch_s = SecondsPerCall([&] { run(sequences); }, 0.002, 9);
    Add("model.batch4_speedup", four_solo_s / batch_s, "x", 4);
  }

  // Kernel rates through the dispatched backend the model uses, serial, at
  // 64 rows (one hybrid chunk) of the deployment model's shapes. Byte rates
  // are computed from tensor shapes, not measured from memory counters.
  void Kernels() {
    const ModelConfig config = DeploymentEngineOptions().model;
    const KernelOps* ops = DefaultKernelOps();
    const int64_t m = DeploymentEngineOptions().chunk_size;
    const int64_t h = config.hidden_size;
    Rng rng(7);
    auto random = [&](int64_t count) {
      std::vector<float> v(static_cast<size_t>(count));
      for (float& x : v) {
        x = static_cast<float>(rng.NextDouble() - 0.5);
      }
      return v;
    };

    TrackingAllocator weights;
    auto gemm = [&](const std::string& name, int64_t k, int64_t n) {
      const std::vector<float> a = random(m * k);
      const std::vector<float> b = random(k * n);
      std::vector<float> c(static_cast<size_t>(m * n));
      double seconds = 0.0;
      if (ops->gemm_layout == GemmLayout::kPacked) {
        const PackedMatrix packed = PackWeights(weights, b.data(), k, n, "po_bench");
        seconds = SecondsPerCall(
            [&] { MatMulPacked(a.data(), packed, c.data(), m, nullptr, ops); });
      } else {
        seconds = SecondsPerCall(
            [&] { MatMul(a.data(), b.data(), c.data(), m, k, n, nullptr, ops); });
      }
      Add(name, 2.0 * static_cast<double>(m * k * n) / seconds / 1e9, "GFLOP/s", m);
    };
    gemm("tensor.gemm_gflops_qkv", h, config.q_size() + 2 * config.kv_size());
    gemm("tensor.gemm_gflops_mlp", h, 2 * config.intermediate_size);

    // One query row of one head over a key/value history of the median
    // traced length: scores, softmax, weighted sum.
    std::vector<int64_t> lengths;
    for (size_t index : ok_) {
      lengths.push_back(outcome(index).n_input);
    }
    std::nth_element(lengths.begin(), lengths.begin() + lengths.size() / 2, lengths.end());
    const int64_t length = lengths.empty() ? 1 : lengths[lengths.size() / 2];
    const int64_t d = config.head_dim;
    const std::vector<float> q = random(d);
    const std::vector<float> keys = random(length * d);
    const std::vector<float> values = random(length * d);
    std::vector<float> scores(static_cast<size_t>(length));
    std::vector<float> out(static_cast<size_t>(d));
    const double attn_s = SecondsPerCall([&] {
      for (int64_t j = 0; j < length; ++j) {
        scores[static_cast<size_t>(j)] = ops->dot(q.data(), keys.data() + j * d, d);
      }
      ops->softmax_row(scores.data(), length);
      std::fill(out.begin(), out.end(), 0.0f);
      for (int64_t j = 0; j < length; ++j) {
        ops->axpy(out.data(), values.data() + j * d, scores[static_cast<size_t>(j)], d);
      }
    });
    Add("tensor.attn_row_gflops", 4.0 * static_cast<double>(length * d) / attn_s / 1e9,
        "GFLOP/s", length);

    const std::vector<float> x = random(m * h);
    const std::vector<float> w = random(h);
    std::vector<float> y(static_cast<size_t>(m * h));
    const double norm_s = SecondsPerCall(
        [&] { RmsNormRows(x.data(), w.data(), y.data(), m, h, config.rms_eps, nullptr, ops); });
    Add("tensor.rmsnorm_gbps",
        static_cast<double>((2 * m * h + h) * sizeof(float)) / norm_s / 1e9, "GB/s", m);

    const int64_t count = m * config.intermediate_size;
    const std::vector<float> gate = random(count);
    const std::vector<float> up = random(count);
    std::vector<float> act(static_cast<size_t>(count));
    const double silu_s =
        SecondsPerCall([&] { SiluMul(gate.data(), up.data(), act.data(), count, ops); });
    Add("tensor.silu_mul_gbps", static_cast<double>(3 * count * sizeof(float)) / silu_s / 1e9,
        "GB/s", m);
  }

  const ReplayInput& in_;
  TraceRecorder& trace_;
  const std::vector<size_t> ok_;
  std::vector<Metric> metrics_;
};

}  // namespace

std::vector<Metric> ReplayLayers(const ReplayInput& input, TraceRecorder& trace) {
  return Replayer(input, trace).Run();
}

}  // namespace po_bench
