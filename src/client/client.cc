// Implementation of the stable client facade (include/prefillonly/client.h):
// the only translation unit that couples the facade types to the internal
// engine headers. Two transports behind one surface (ISSUE 10): an
// in-process ReplicaSet (the default), or — when ClientOptions::endpoint is
// set — a remote v1 server reached through keep-alive HTTP/1.1 connections,
// with the api_error status<->HTTP table applied in reverse so both
// transports report identical error codes.
#include "prefillonly/client.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <thread>
#include <utility>

#include "src/client/http_client.h"
#include "src/cluster/replica_set.h"
#include "src/common/logging.h"
#include "src/common/rng.h"
#include "src/core/engine.h"
#include "src/server/api_error.h"
#include "src/server/json.h"
#include "src/server/scoring_service.h"
#include "src/workload/tokenizer.h"

namespace prefillonly {

namespace {

ReplicaSetOptions ToReplicaSetOptions(const ClientOptions& options) {
  ReplicaSetOptions cluster;
  cluster.n_replicas = std::max(1, options.n_replicas);
  EngineOptions& engine = cluster.engine;
  if (options.model == "tiny") {
    engine.model = ModelConfig::Tiny();
  } else {
    if (options.model != "small") {
      PO_LOG_WARNING << "unknown model preset '" << options.model
                     << "'; using 'small'";
    }
    engine.model = ModelConfig::Small();
  }
  if (options.prefill_mode == "standard") {
    engine.mode = PrefillMode::kStandard;
  } else if (options.prefill_mode == "chunked") {
    engine.mode = PrefillMode::kChunked;
  } else {
    if (options.prefill_mode != "hybrid") {
      PO_LOG_WARNING << "unknown prefill mode '" << options.prefill_mode
                     << "'; using 'hybrid'";
    }
    engine.mode = PrefillMode::kHybrid;
  }
  engine.chunk_size = options.chunk_size;
  engine.num_threads = options.num_threads;
  engine.max_concurrent_requests = options.max_concurrent_requests;
  engine.max_batch_size = options.max_batch_size;
  engine.activation_budget_bytes = static_cast<size_t>(options.activation_budget_bytes);
  engine.cache_budget_tokens = options.cache_budget_tokens;
  engine.cpu_offload_budget_tokens = options.cpu_offload_budget_tokens;
  engine.block_size = options.block_size;
  return cluster;
}

ScoreResult ToScoreResult(const Result<ScoringResponse>& result) {
  ScoreResult out;
  if (!result.ok()) {
    out.ok = false;
    out.error_code = ApiErrorCodeFor(result.status().code());
    out.error_message = result.status().message();
    return out;
  }
  const ScoringResponse& response = result.value();
  out.ok = true;
  out.score = response.score;
  out.probabilities.reserve(response.probabilities.size());
  for (const auto& p : response.probabilities) {
    out.probabilities.push_back({p.token, p.probability});
  }
  out.n_input = response.n_input;
  out.n_cached = response.n_cached;
  out.n_cached_offload = response.n_cached_offload;
  out.batch_size = response.batch_size;
  out.queue_time_s = response.queue_time_s;
  out.execute_time_s = response.execute_time_s;
  return out;
}

ScoringRequest ToScoringRequest(std::vector<int32_t> tokens,
                                std::vector<int32_t> allowed,
                                const ScoreOptions& options) {
  ScoringRequest request;
  request.tokens = std::move(tokens);
  request.allowed_tokens = std::move(allowed);
  request.user_id = options.user_id;
  request.priority = options.priority;
  request.deadline_ms = options.deadline_ms < 0 ? ScoringRequest::kNoDeadline
                                                : options.deadline_ms;
  return request;
}

// --- Remote-mode JSON plumbing ------------------------------------------

Json ScoringRequestJson(const ScoringRequest& request) {
  // Every value is built in place: moving a Json temporary moves its
  // std::variant, which GCC 12 flags -Wmaybe-uninitialized once inlined.
  Json::Array tokens;
  tokens.reserve(request.tokens.size());
  for (int32_t t : request.tokens) {
    tokens.emplace_back(static_cast<int64_t>(t));
  }
  Json::Array allowed;
  allowed.reserve(request.allowed_tokens.size());
  for (int32_t t : request.allowed_tokens) {
    allowed.emplace_back(static_cast<int64_t>(t));
  }
  Json::Object item;
  item.emplace("tokens", std::move(tokens));
  item.emplace("allowed_tokens", std::move(allowed));
  item.emplace("user_id", request.user_id);
  Json::Object options;
  options.emplace("priority", static_cast<int64_t>(request.priority));
  if (request.deadline_ms >= 0) {
    options.emplace("deadline_ms", request.deadline_ms);
  }
  item.emplace("options", std::move(options));
  return Json(std::move(item));
}

int64_t JsonInt(const Json& object, const std::string& key, int64_t fallback = 0) {
  const Json* field = object.Find(key);
  return field != nullptr && field->is_number() ? field->AsInt() : fallback;
}

double JsonDouble(const Json& object, const std::string& key, double fallback = 0.0) {
  const Json* field = object.Find(key);
  return field != nullptr && field->is_number() ? field->AsDouble() : fallback;
}

// The one /v1/stats -> ClientStats mapping, shared by both modes: remote
// parses the server's payload, in-process builds the same object in memory.
ClientStats ClientStatsFromJson(const Json& stats, int64_t client_retries) {
  ClientStats out;
  out.submitted = JsonInt(stats, "submitted");
  out.completed = JsonInt(stats, "completed");
  out.failed = JsonInt(stats, "failed");
  out.cancelled = JsonInt(stats, "cancelled");
  out.cancelled_in_flight = JsonInt(stats, "cancelled_in_flight");
  out.deadline_expired = JsonInt(stats, "deadline_expired");
  out.deadline_expired_in_flight = JsonInt(stats, "deadline_expired_in_flight");
  out.shed = JsonInt(stats, "shed");
  out.client_retries = client_retries;
  out.batches_dispatched = JsonInt(stats, "batches_dispatched");
  out.batched_requests = JsonInt(stats, "batched_requests");
  out.cache_hit_rate = JsonDouble(stats, "cache_hit_rate");
  out.cache_bytes = static_cast<uint64_t>(JsonInt(stats, "cache_bytes"));
  out.peak_activation_bytes =
      static_cast<uint64_t>(JsonInt(stats, "peak_activation_bytes"));
  return out;
}

Result<ScoringResponse> ParseScoringResponse(const Json& body) {
  if (!body.is_object() || body.Find("score") == nullptr) {
    return Status::Internal("remote response missing 'score': " + body.Serialize());
  }
  ScoringResponse response;
  response.score = JsonDouble(body, "score");
  if (const Json* probs = body.Find("probabilities");
      probs != nullptr && probs->is_array()) {
    for (const Json& p : probs->AsArray()) {
      if (p.is_object()) {
        response.probabilities.push_back(
            {static_cast<int32_t>(JsonInt(p, "token")), JsonDouble(p, "probability")});
      }
    }
  }
  response.n_input = JsonInt(body, "n_input");
  response.n_cached = JsonInt(body, "n_cached");
  response.n_cached_offload = JsonInt(body, "n_cached_offload");
  response.batch_size = JsonInt(body, "batch_size", 1);
  response.queue_time_s = JsonDouble(body, "queue_time_s");
  response.execute_time_s = JsonDouble(body, "execute_time_s");
  return response;
}

// A non-200 response -> the Status the in-process engine would have
// returned: error.code through the reverse table, with the HTTP status as
// the fallback when the body isn't the structured shape.
Status StatusFromErrorResponse(const HttpClientResponse& response) {
  StatusCode code = StatusCodeForHttpStatus(response.status);
  std::string message = "HTTP " + std::to_string(response.status);
  if (auto body = Json::Parse(response.body); body.ok()) {
    if (const Json* error = body.value().Find("error");
        error != nullptr && error->is_object()) {
      if (const Json* c = error->Find("code"); c != nullptr && c->is_string()) {
        code = StatusCodeForApiErrorCode(c->AsString());
      }
      if (const Json* m = error->Find("message"); m != nullptr && m->is_string()) {
        message = m->AsString();
      }
    }
  }
  if (code == StatusCode::kOk) {
    code = StatusCode::kInternal;
  }
  return Status(code, std::move(message));
}

// Transient = worth retrying: the engine may well succeed on the next
// attempt (load dropped, blocks freed, a breaker's half-open probe
// reclosed it). Everything else is permanent for this exact request.
bool IsTransient(const ScoreResult& result) {
  return !result.ok && (result.error_code == "resource_exhausted" ||
                        result.error_code == "unavailable");
}

// Failures the server pairs with a Retry-After hint: an overload shed (the
// 429 path, as opposed to a per-request budget failure) or a cluster
// unavailable (the 503 path). Both honor the Retry-After floor.
bool HonorsRetryAfterFloor(const ScoreResult& result) {
  return result.error_code == "unavailable" ||
         result.error_message.find("engine overloaded") != std::string::npos;
}

// Backoff for retry attempt `attempt` (1-based): exponential with
// deterministic jitter in [0, base/2].
int64_t BackoffMs(const RetryPolicy& policy, int attempt, bool shed,
                  uint64_t& jitter_state) {
  double base = static_cast<double>(policy.initial_backoff_ms);
  for (int i = 1; i < attempt; ++i) {
    base *= policy.multiplier;
  }
  base = std::min(base, static_cast<double>(policy.max_backoff_ms));
  int64_t backoff = static_cast<int64_t>(base);
  if (backoff > 0) {
    backoff += static_cast<int64_t>(SplitMix64(jitter_state) %
                                    static_cast<uint64_t>(backoff / 2 + 1));
  }
  if (shed) {
    backoff = std::max(backoff, policy.retry_after_floor_ms);
  }
  return backoff;
}

}  // namespace

// ---------------------------------------------------------------- handles

struct RequestHandle::State {
  int64_t id = -1;  // cluster id, stable across failover; -1 for remote
  ReplicaSet* set = nullptr;  // null for submission-failure and remote handles
  Engine::ResponseFuture future;
  bool resolved = false;
  ScoreResult result;  // valid once resolved
};

RequestHandle::RequestHandle() : state_(std::make_unique<State>()) {
  state_->resolved = true;
  state_->result.ok = false;
  state_->result.error_code = "invalid_argument";
  state_->result.error_message = "empty request handle";
}
RequestHandle::~RequestHandle() = default;
RequestHandle::RequestHandle(RequestHandle&&) noexcept = default;
RequestHandle& RequestHandle::operator=(RequestHandle&&) noexcept = default;

int64_t RequestHandle::id() const { return state_->id; }

bool RequestHandle::Done() const {
  if (state_->resolved) {
    return true;
  }
  return state_->future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

ScoreResult RequestHandle::Wait() {
  if (!state_->resolved) {
    state_->result = ToScoreResult(state_->future.get());
    state_->resolved = true;
  }
  return state_->result;
}

bool RequestHandle::Cancel() {
  if (state_->resolved || state_->set == nullptr || Done()) {
    return false;
  }
  return state_->set->Cancel(state_->id).ok();
}

// ----------------------------------------------------------------- client

struct Client::Impl {
  // The ReplicaSetOptions conversion runs once, in a delegating step, so
  // preset warnings fire once and tokenizer/replicas agree on the resolved
  // model. The ReplicaSet starts every replica's concurrent runtime itself.
  // In remote mode no ReplicaSet (and no engine) is built at all — the
  // tokenizer still resolves from the model preset so ScoreText works.
  explicit Impl(const ClientOptions& options)
      : tokenizer(options.model == "tiny"
                      ? static_cast<int32_t>(ModelConfig::Tiny().vocab_size)
                      : static_cast<int32_t>(ModelConfig::Small().vocab_size)) {
    retry = options.retry;
    if (options.endpoint.empty()) {
      set = std::make_unique<ReplicaSet>(ToReplicaSetOptions(options));
      return;
    }
    remote = true;  // endpoint requested: never build a local engine
    auto parsed = ParseEndpoint(options.endpoint);
    if (!parsed.ok()) {
      PO_LOG_WARNING << "invalid endpoint '" << options.endpoint
                     << "': " << parsed.status().message()
                     << "; every call will fail with invalid_argument";
      endpoint_error = parsed.status();
      return;
    }
    remote_options = parsed.value();
  }

  // --- Remote connection pool -----------------------------------------
  // One HttpClient per concurrent caller: a connection is checked out for
  // the duration of one exchange and parked afterwards, so K parallel
  // callers settle on K persistent sockets.
  std::unique_ptr<HttpClient> AcquireConnection() {
    {
      std::lock_guard<std::mutex> lock(pool_mu);
      if (!idle_connections.empty()) {
        auto connection = std::move(idle_connections.back());
        idle_connections.pop_back();
        return connection;
      }
    }
    return std::make_unique<HttpClient>(remote_options);
  }

  void ReleaseConnection(std::unique_ptr<HttpClient> connection) {
    std::lock_guard<std::mutex> lock(pool_mu);
    idle_connections.push_back(std::move(connection));
  }

  Result<ScoringResponse> RemoteScoreOnce(const ScoringRequest& request) {
    if (!endpoint_error.ok()) {
      return endpoint_error;
    }
    auto connection = AcquireConnection();
    auto response = connection->Post("/v1/score",
                                     ScoringRequestJson(request).Serialize());
    // A connection that failed transport-level is NOT returned to the pool;
    // the next caller starts fresh instead of inheriting a wedged socket.
    if (response.ok()) {
      ReleaseConnection(std::move(connection));
    }
    if (!response.ok()) {
      return response.status();
    }
    if (response.value().status != 200) {
      return StatusFromErrorResponse(response.value());
    }
    auto body = Json::Parse(response.value().body);
    if (!body.ok()) {
      return Status::Internal("remote response is not JSON: " +
                              body.status().message());
    }
    return ParseScoringResponse(body.value());
  }

  Result<ScoringResponse> ScoreOnce(const ScoringRequest& request) {
    return remote ? RemoteScoreOnce(request) : set->Score(request);
  }

  RequestHandle MakeHandle(Result<ReplicaSet::Submission> submission) {
    RequestHandle handle;
    if (!submission.ok()) {
      handle.state_->result.error_code = ApiErrorCodeFor(submission.status().code());
      handle.state_->result.error_message = submission.status().message();
      return handle;
    }
    handle.state_->id = submission.value().id;
    handle.state_->set = set.get();
    handle.state_->future = std::move(submission.value().future);
    handle.state_->resolved = false;
    return handle;
  }

  // Remote submission: the blocking exchange runs on its own thread and the
  // handle waits on its future. Cancel() has nothing to withdraw (the v1
  // blocking route has no cancellation token), so it reports false.
  RequestHandle MakeRemoteHandle(ScoringRequest request) {
    RequestHandle handle;
    handle.state_->id = -1;
    handle.state_->set = nullptr;
    handle.state_->future =
        std::async(std::launch::async, [this, request = std::move(request)] {
          return RemoteScoreOnce(request);
        });
    handle.state_->resolved = false;
    return handle;
  }

  // Blocking call with the transient-failure RetryPolicy applied: each
  // attempt re-submits a fresh copy of the request; sleeps between attempts
  // are exponential with deterministic jitter (and floored at the
  // Retry-After hint after an overload shed or a cluster unavailable).
  ScoreResult ScoreWithRetry(const ScoringRequest& request) {
    uint64_t jitter_state = retry.jitter_seed;
    ScoreResult result = ToScoreResult(ScoreOnce(request));
    for (int attempt = 1; attempt <= retry.max_retries && IsTransient(result);
         ++attempt) {
      const int64_t backoff =
          BackoffMs(retry, attempt, HonorsRetryAfterFloor(result), jitter_state);
      if (backoff > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      }
      client_retries.fetch_add(1, std::memory_order_relaxed);
      result = ToScoreResult(ScoreOnce(request));
    }
    return result;
  }

  // The server's /v1/stats payload; an empty object when it is unreachable.
  Json RemoteStatsJson() {
    if (!endpoint_error.ok()) {
      return Json(Json::Object{});
    }
    auto connection = AcquireConnection();
    auto response = connection->Get("/v1/stats");
    if (response.ok()) {
      ReleaseConnection(std::move(connection));
    }
    if (!response.ok() || response.value().status != 200) {
      return Json(Json::Object{});
    }
    auto body = Json::Parse(response.value().body);
    return body.ok() ? body.take() : Json(Json::Object{});
  }

  HashTokenizer tokenizer;
  std::unique_ptr<ReplicaSet> set;  // null in remote mode
  bool remote = false;
  HttpClientOptions remote_options;
  Status endpoint_error;  // non-OK when the endpoint failed to parse

  std::mutex pool_mu;
  std::vector<std::unique_ptr<HttpClient>> idle_connections;

  RetryPolicy retry;
  std::atomic<int64_t> client_retries{0};
};

Client::Client(const ClientOptions& options)
    : impl_(std::make_unique<Impl>(options)) {}
Client::~Client() = default;

ScoreResult Client::Score(const std::vector<int32_t>& tokens,
                          const std::vector<int32_t>& allowed,
                          const ScoreOptions& options) {
  return impl_->ScoreWithRetry(ToScoringRequest(tokens, allowed, options));
}

ScoreResult Client::ScoreText(const std::string& text,
                              const std::vector<std::string>& allowed_words,
                              const ScoreOptions& options) {
  std::vector<int32_t> allowed;
  allowed.reserve(allowed_words.size());
  for (const std::string& word : allowed_words) {
    allowed.push_back(impl_->tokenizer.TokenFor(word));
  }
  return impl_->ScoreWithRetry(
      ToScoringRequest(impl_->tokenizer.Encode(text), std::move(allowed), options));
}

RequestHandle Client::Submit(std::vector<int32_t> tokens,
                             std::vector<int32_t> allowed,
                             const ScoreOptions& options) {
  ScoringRequest request =
      ToScoringRequest(std::move(tokens), std::move(allowed), options);
  if (impl_->remote) {
    return impl_->MakeRemoteHandle(std::move(request));
  }
  return impl_->MakeHandle(impl_->set->Submit(std::move(request)));
}

std::vector<RequestHandle> Client::SubmitBatch(
    std::vector<std::vector<int32_t>> items, const std::vector<int32_t>& allowed,
    const ScoreOptions& options) {
  std::vector<ScoringRequest> requests;
  requests.reserve(items.size());
  for (std::vector<int32_t>& tokens : items) {
    requests.push_back(ToScoringRequest(std::move(tokens), allowed, options));
  }
  std::vector<RequestHandle> handles;
  if (impl_->remote) {
    // Remote co-batching would need the multi-item route with per-item
    // handles; submitting individually keeps handle semantics identical
    // and lets the server's scheduler still co-batch what arrives together.
    handles.reserve(requests.size());
    for (ScoringRequest& request : requests) {
      handles.push_back(impl_->MakeRemoteHandle(std::move(request)));
    }
    return handles;
  }
  auto submitted = impl_->set->SubmitGroup(std::move(requests));
  if (!submitted.ok()) {
    // All-or-nothing admission: every handle reports the submission error.
    for (size_t i = 0; i < items.size(); ++i) {
      handles.push_back(impl_->MakeHandle(submitted.status()));
    }
    return handles;
  }
  handles.reserve(submitted.value().size());
  for (ReplicaSet::Submission& submission : submitted.value()) {
    handles.push_back(impl_->MakeHandle(std::move(submission)));
  }
  return handles;
}

int32_t Client::TokenForWord(const std::string& word) const {
  return impl_->tokenizer.TokenFor(word);
}

ClientStats Client::Stats() const {
  const Json stats =
      impl_->remote ? impl_->RemoteStatsJson() : StatsJson(impl_->set->Stats());
  return ClientStatsFromJson(stats, impl_->client_retries.load(std::memory_order_relaxed));
}

}  // namespace prefillonly
