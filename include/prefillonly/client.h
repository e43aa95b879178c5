// PrefillOnly — stable in-process client facade (ISSUE 5).
//
// This header is the supported way to embed the engine: it exposes the
// request lifecycle (scoring, async submission, cancellation, deadlines,
// priorities) through plain standard-library types and keeps every internal
// header (src/...) out of the include graph, so embedders — including the
// in-repo examples — compile against a surface that can stay stable while
// the engine underneath keeps moving.
//
//   #include "prefillonly/client.h"
//
//   prefillonly::ClientOptions options;
//   options.model = "small";
//   prefillonly::Client client(options);
//
//   auto result = client.Score({1, 2, 3, 4}, /*allowed=*/{7, 9});
//   if (result.ok) std::printf("P(yes) = %f\n", result.score);
//
//   // Async: submit, poll/wait, cancel.
//   auto handle = client.Submit({1, 2, 3, 4}, {7, 9});
//   handle.Cancel();                 // or handle.Wait()
//
//   // Multi-item: one call, one co-scheduled batch, results in order.
//   auto handles = client.SubmitBatch(items, {7, 9});
//
// Error handling is value-based: ScoreResult carries ok/error_code/
// error_message instead of exceptions. Error codes are the engine's status
// codes in lowercase ("invalid_argument", "deadline_exceeded",
// "cancelled", "resource_exhausted", ...), matching the HTTP API's
// error.code field (docs/API.md).
#ifndef PREFILLONLY_CLIENT_H_
#define PREFILLONLY_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace prefillonly {

// Automatic retry for transient failures (ISSUE 6; extended for the cluster
// in ISSUE 8), applied by the blocking Score/ScoreText calls. Two result
// codes are considered transient and retried up to max_retries times with
// exponential backoff plus deterministic jitter:
//   * "resource_exhausted" — the in-process analogue of HTTP 429, produced
//     by overload shedding or an exhausted allocation budget;
//   * "unavailable" — the in-process analogue of HTTP 503, produced when no
//     replica would take the request (breakers open, draining, failed
//     hand-offs) — the cluster typically recovers on the breaker-probe
//     timescale, so asking again is exactly right.
// The backoff never drops below retry_after_floor_ms once the engine has
// shed the request or the cluster reported unavailable, mirroring the
// Retry-After hint the HTTP layer sends with its 429s and 503s: asked again
// immediately, a shed engine only sheds again. Permanent failures
// (invalid_argument, cancelled, deadline_exceeded, ...) never retry.
struct RetryPolicy {
  int max_retries = 0;  // 0 = fail fast (no retries)
  int64_t initial_backoff_ms = 25;
  double multiplier = 2.0;
  int64_t max_backoff_ms = 2000;
  // Floor applied when the failure was an overload shed ("engine
  // overloaded" — the 429 + Retry-After path) or a cluster "unavailable"
  // (the 503 + Retry-After path); matches the server's Retry-After of 1
  // second.
  int64_t retry_after_floor_ms = 1000;
  // Seed of the deterministic jitter stream; each attempt adds
  // [0, backoff/2] ms derived from it. Same seed = same delays.
  uint64_t jitter_seed = 1;
};

// Engine configuration, restricted to stable knobs with string-named
// presets; defaults reproduce EngineOptions defaults.
struct ClientOptions {
  // Remote mode (ISSUE 10): when non-empty ("host:port", e.g.
  // "127.0.0.1:8080"), the client builds NO local engine. Every call is
  // carried over a keep-alive HTTP/1.1 connection to that server's v1 API
  // (src/client/http_client.h), the api_error status<->HTTP table applied
  // in reverse, so error_code values are identical to in-process mode and
  // RetryPolicy retries the same transient classes. The engine knobs below
  // are then ignored (the server owns its engine configuration) EXCEPT
  // `model`, which still selects the tokenizer vocabulary for ScoreText /
  // TokenForWord and must match the server's preset for sensible ids.
  // Cancel() is a no-op on remote handles, and SubmitBatch items are
  // submitted individually (server-side co-batching applies only to items
  // that share one HTTP call).
  std::string endpoint;
  // Model preset: "tiny" or "small" (deterministic synthetic weights).
  std::string model = "small";
  // Prefill execution strategy: "hybrid" (the paper's engine), "standard",
  // or "chunked".
  std::string prefill_mode = "hybrid";
  int64_t chunk_size = 64;
  // 0 = hardware concurrency; 1 = serial. This is each replica's share of
  // one process-wide pool: n_replicas replicas share
  // n_replicas * (num_threads - 1) + 1 threads (0 = the machine, once).
  int num_threads = 0;
  // Concurrent executor lanes (requests in flight at once).
  int max_concurrent_requests = 1;
  // Max requests stacked into one prefill batch; 1 = always solo.
  int max_batch_size = 1;
  // Per-lane activation budget in bytes; 0 = unlimited. Exceeding it fails
  // the request with "resource_exhausted" (the CPU analogue of GPU OOM).
  uint64_t activation_budget_bytes = 0;
  // Prefix-cache budget in tokens (0 disables caching) and KV block size.
  int64_t cache_budget_tokens = 4096;
  int block_size = 32;
  // Engine replicas behind the facade (ISSUE 8). Every replica is built
  // from this same configuration (identical deterministic weights), and
  // requests route by prefix affinity with health-gated failover — so
  // results are bitwise identical for any n_replicas >= 1.
  int n_replicas = 1;
  // Transient-failure retry for blocking calls (defaults: disabled).
  RetryPolicy retry;
};

// Per-request options; defaults mean "no deadline, default class".
struct ScoreOptions {
  int64_t user_id = 0;
  // Strict scheduling class: higher runs first; SRJF order applies within
  // a class.
  int32_t priority = 0;
  // Time budget in ms from submission to execution start; < 0 = none,
  // 0 = already expired (rejected with "deadline_exceeded"), lapsing while
  // queued fails the request before any prefill work is spent.
  int64_t deadline_ms = -1;
};

// Facade-local name: the internal engine has its own TokenProbability type
// with the same shape, and this header must not collide with it.
struct TokenScore {
  int32_t token = 0;
  double probability = 0.0;
};

struct ScoreResult {
  // False: the request failed; error_code/error_message say why and the
  // scoring fields below are meaningless.
  bool ok = false;
  std::string error_code;
  std::string error_message;

  // Probability of allowed[0] (e.g. P(Yes)); probabilities[i] corresponds
  // to allowed[i].
  double score = 0.0;
  std::vector<TokenScore> probabilities;
  int64_t n_input = 0;
  int64_t n_cached = 0;          // prefix tokens served from the prefix cache
  int64_t batch_size = 1;        // requests co-executed in the same prefill
  double queue_time_s = 0.0;
  double execute_time_s = 0.0;
};

// Aggregate engine counters (a stable subset of the engine's stats).
struct ClientStats {
  int64_t submitted = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  int64_t cancelled = 0;           // cancelled while queued; never executed
  int64_t cancelled_in_flight = 0; // result discarded after execution began
  int64_t deadline_expired = 0;    // failed pre-dispatch by a lapsed deadline
  int64_t deadline_expired_in_flight = 0;  // aborted between prefill chunks
  int64_t shed = 0;                // rejected by overload shedding (429 path)
  int64_t client_retries = 0;      // transparent RetryPolicy re-submissions
  int64_t batches_dispatched = 0;
  int64_t batched_requests = 0;
  double cache_hit_rate = 0.0;
  uint64_t cache_bytes = 0;
  uint64_t peak_activation_bytes = 0;
};

class Client;

// One in-flight asynchronous request. Move-only; destroying an unfinished
// handle abandons the result (the request still runs to completion unless
// cancelled).
class RequestHandle {
 public:
  RequestHandle();
  ~RequestHandle();
  RequestHandle(RequestHandle&&) noexcept;
  RequestHandle& operator=(RequestHandle&&) noexcept;
  RequestHandle(const RequestHandle&) = delete;
  RequestHandle& operator=(const RequestHandle&) = delete;

  // Cluster-assigned request id (stable across replica failover); -1 if the
  // submission itself failed (then Wait() returns the submission error
  // immediately).
  int64_t id() const;
  // True once a result (success, failure, or cancellation) is available;
  // never blocks.
  bool Done() const;
  // Blocks until the request finishes; repeat calls return the same result.
  ScoreResult Wait();
  // Cancels: dequeues a still-queued request (it never executes), marks an
  // in-flight one so its result is discarded. Returns false if the request
  // already finished. Wait() then reports error_code "cancelled".
  bool Cancel();

 private:
  friend class Client;
  struct State;
  std::unique_ptr<State> state_;
};

class Client {
 public:
  explicit Client(const ClientOptions& options = {});
  ~Client();
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // --- Blocking scoring ------------------------------------------------
  // Scores `tokens` against the `allowed` output token ids on the calling
  // thread.
  ScoreResult Score(const std::vector<int32_t>& tokens,
                    const std::vector<int32_t>& allowed,
                    const ScoreOptions& options = {});
  // Text front door: `text` through the deterministic built-in tokenizer,
  // `allowed_words` (e.g. {"yes", "no"}) to their token ids.
  ScoreResult ScoreText(const std::string& text,
                        const std::vector<std::string>& allowed_words,
                        const ScoreOptions& options = {});

  // --- Asynchronous lifecycle ------------------------------------------
  // Submits without blocking; the request runs under the engine's SRJF
  // dispatcher alongside everything else.
  RequestHandle Submit(std::vector<int32_t> tokens, std::vector<int32_t> allowed,
                       const ScoreOptions& options = {});
  // Submits every item as ONE co-batch group: the scheduler deliberately
  // stacks them into the same prefill batch when a lane frees (they share
  // `allowed` and `options`). Handles are index-aligned with `items`.
  std::vector<RequestHandle> SubmitBatch(std::vector<std::vector<int32_t>> items,
                                         const std::vector<int32_t>& allowed,
                                         const ScoreOptions& options = {});

  // Stable id for one word under the built-in tokenizer (to build allowed
  // lists that match ScoreText inputs).
  int32_t TokenForWord(const std::string& word) const;

  ClientStats Stats() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace prefillonly

#endif  // PREFILLONLY_CLIENT_H_
