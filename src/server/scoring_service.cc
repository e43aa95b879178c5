#include "src/server/scoring_service.h"

#include <cassert>
#include <cmath>
#include <type_traits>

#include "src/server/api_error.h"

namespace prefillonly {

namespace {

// 405 is an HTTP-layer condition with no StatusCode of its own; it still
// wears the shared error shape, plus the Allow header RFC 9110 requires.
HttpResponse MethodNotAllowed(const std::string& method, const std::string& path,
                              const std::string& allow) {
  Json::Object error;
  error.emplace("code", Json("method_not_allowed"));
  error.emplace("type", Json("invalid_request_error"));
  error.emplace("message",
                Json("method " + method + " not allowed on " + path +
                     "; allowed: " + allow));
  Json::Object wrapper;
  wrapper.emplace("error", Json(std::move(error)));
  HttpResponse response;
  response.status = 405;
  response.headers.emplace("Allow", allow);
  response.body = Json(std::move(wrapper)).Serialize();
  return response;
}

// True for a JSON number that is an exact integer within [lo, hi] —
// rejects 1.5 and "1", and bounds the value so the int cast that follows
// can never be an out-of-range (undefined) float-to-int conversion.
bool IsIntegralInRange(const Json& value, double lo, double hi) {
  if (!value.is_number()) {
    return false;
  }
  const double d = value.AsDouble();
  return d == std::floor(d) && d >= lo && d <= hi;
}

// deadline_ms cap: ~31.7 years, exactly representable in a double.
constexpr double kMaxDeadlineMs = 1e12;

Json ScoringResponseJson(const ScoringResponse& response) {
  // Built in place, like ScoringRequestJson (src/client/client.cc).
  Json::Array probabilities;
  probabilities.reserve(response.probabilities.size());
  for (const auto& p : response.probabilities) {
    Json::Object entry;
    entry.emplace("token", static_cast<int64_t>(p.token));
    entry.emplace("probability", p.probability);
    probabilities.emplace_back(std::move(entry));
  }
  Json::Object out;
  out.emplace("score", response.score);
  out.emplace("probabilities", std::move(probabilities));
  out.emplace("n_input", response.n_input);
  out.emplace("n_cached", response.n_cached);
  out.emplace("batch_size", response.batch_size);
  out.emplace("queue_time_s", response.queue_time_s);
  out.emplace("execute_time_s", response.execute_time_s);
  return Json(std::move(out));
}

// Per-item value inside "results": the scoring object, or the shared error
// shape for items that failed individually.
Json ItemResultJson(const Result<ScoringResponse>& result) {
  if (result.ok()) {
    return ScoringResponseJson(result.value());
  }
  return ApiErrorJson(result.status().code(), result.status().message());
}

}  // namespace

ScoringService::ScoringService(EngineOptions options,
                               ScoringServiceOptions service_options) {
  tokenizer_ = std::make_unique<HashTokenizer>(
      static_cast<int32_t>(options.model.vocab_size));
  // One EngineOptions for every replica: identical weights (same seed) make
  // failover bitwise invisible. The ReplicaSet starts each replica's
  // concurrent runtime itself; ~ReplicaSet stops them.
  ReplicaSetOptions cluster = service_options.cluster;
  cluster.engine = std::move(options);
  set_ = std::make_unique<ReplicaSet>(std::move(cluster));
  requests_ = std::make_unique<RequestTable>(
      *set_, service_options.completed_requests_capacity);
  server_ = std::make_unique<HttpServer>(
      [this](const HttpRequest& request) { return Handle(request); });
}

Status ScoringService::Start(uint16_t port) { return server_->Start(port); }

HttpResponse ScoringService::Handle(const HttpRequest& request) {
  const std::string& path = request.path;
  if (path == "/v1/score") {
    if (request.method == "POST") {
      return HandleScore(request);
    }
    return MethodNotAllowed(request.method, path, "POST");
  }
  if (path == "/v1/stats") {
    if (request.method == "GET") {
      return HandleStats();
    }
    return MethodNotAllowed(request.method, path, "GET");
  }
  if (path == "/v1/health") {
    if (request.method == "GET") {
      return HandleHealth();
    }
    return MethodNotAllowed(request.method, path, "GET");
  }
  if (path == "/v1/requests") {
    if (request.method == "POST") {
      return HandleSubmitRequest(request);
    }
    return MethodNotAllowed(request.method, path, "POST");
  }
  if (path == "/v1/replicas") {
    if (request.method == "GET") {
      return HandleListReplicas();
    }
    return MethodNotAllowed(request.method, path, "GET");
  }
  constexpr std::string_view kReplicaPrefix = "/v1/replicas/";
  if (path.rfind(kReplicaPrefix, 0) == 0) {
    return HandleReplicaAdmin(request, path.substr(kReplicaPrefix.size()));
  }
  constexpr std::string_view kRequestPrefix = "/v1/requests/";
  if (path.rfind(kRequestPrefix, 0) == 0) {
    const std::string id = path.substr(kRequestPrefix.size());
    if (id.empty() || id.find('/') != std::string::npos) {
      return ApiErrorResponse(StatusCode::kNotFound, "unknown route: " + path);
    }
    if (request.method == "GET") {
      return HandlePollRequest(id);
    }
    if (request.method == "DELETE") {
      return HandleCancelRequest(id);
    }
    return MethodNotAllowed(request.method, path, "GET, DELETE");
  }
  return ApiErrorResponse(StatusCode::kNotFound,
                          "unknown route: " + request.method + " " + path);
}

Result<ScoringRequest> ScoringService::ParseItem(const Json& item) const {
  if (!item.is_object()) {
    return Status::InvalidArgument(
        std::string("item must be a JSON object, got ") +
        std::string(item.TypeName()));
  }
  ScoringRequest scoring;
  if (const Json* user = item.Find("user_id"); user != nullptr && user->is_number()) {
    scoring.user_id = user->AsInt();
  }

  // Token input: raw ids, or text through the tokenizer.
  if (const Json* tokens = item.Find("tokens"); tokens != nullptr) {
    if (!tokens->is_array()) {
      return Status::InvalidArgument("'tokens' must be an array of ids");
    }
    for (const Json& t : tokens->AsArray()) {
      if (!t.is_number()) {
        return Status::InvalidArgument(
            std::string("'tokens' must contain numbers, got ") +
            std::string(t.TypeName()));
      }
      scoring.tokens.push_back(static_cast<int32_t>(t.AsInt()));
    }
  } else if (const Json* text = item.Find("text"); text != nullptr && text->is_string()) {
    scoring.tokens = tokenizer_->Encode(text->AsString());
  } else {
    return Status::InvalidArgument("provide 'tokens' (ids) or 'text' (string)");
  }

  // Allowed outputs: ids, or words through the tokenizer. Every element is
  // type-checked — a string in 'allowed_tokens' must 400, not crash (the
  // pre-ISSUE-5 handler called AsInt() unchecked here).
  if (const Json* allowed = item.Find("allowed_tokens"); allowed != nullptr) {
    if (!allowed->is_array()) {
      return Status::InvalidArgument("'allowed_tokens' must be an array of ids");
    }
    for (const Json& t : allowed->AsArray()) {
      if (!t.is_number()) {
        return Status::InvalidArgument(
            std::string("'allowed_tokens' must contain numbers, got ") +
            std::string(t.TypeName()));
      }
      scoring.allowed_tokens.push_back(static_cast<int32_t>(t.AsInt()));
    }
  } else if (const Json* allowed_words = item.Find("allowed"); allowed_words != nullptr &&
                                                               allowed_words->is_array()) {
    for (const Json& word : allowed_words->AsArray()) {
      if (!word.is_string()) {
        return Status::InvalidArgument(
            std::string("'allowed' must contain strings, got ") +
            std::string(word.TypeName()));
      }
      scoring.allowed_tokens.push_back(tokenizer_->TokenFor(word.AsString()));
    }
  } else {
    return Status::InvalidArgument(
        "provide 'allowed_tokens' (ids) or 'allowed' (words)");
  }
  return scoring;
}

Result<ScoringService::ParsedSubmission> ScoringService::ParseSubmission(
    const Json& body) const {
  if (!body.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  ParsedSubmission parsed;
  if (const Json* items = body.Find("items"); items != nullptr) {
    if (!items->is_array() || items->AsArray().empty()) {
      return Status::InvalidArgument("'items' must be a non-empty array");
    }
    if (body.Find("tokens") != nullptr || body.Find("text") != nullptr) {
      return Status::InvalidArgument(
          "provide either 'items' or a top-level single item, not both");
    }
    parsed.multi_item = true;
    for (const Json& item : items->AsArray()) {
      auto scoring = ParseItem(item);
      if (!scoring.ok()) {
        return Status::InvalidArgument(
            "items[" + std::to_string(parsed.items.size()) +
            "]: " + scoring.status().message());
      }
      parsed.items.push_back(scoring.take());
    }
  } else {
    auto scoring = ParseItem(body);
    if (!scoring.ok()) {
      return scoring.status();
    }
    parsed.items.push_back(scoring.take());
  }

  // Request-level options apply to every item of the submission.
  if (const Json* options = body.Find("options"); options != nullptr) {
    if (!options->is_object()) {
      return Status::InvalidArgument("'options' must be a JSON object");
    }
    if (const Json* priority = options->Find("priority"); priority != nullptr) {
      if (!IsIntegralInRange(*priority, -2147483648.0, 2147483647.0)) {
        return Status::InvalidArgument(
            "'options.priority' must be a 32-bit integer");
      }
      for (ScoringRequest& item : parsed.items) {
        item.priority = static_cast<int32_t>(priority->AsInt());
      }
    }
    if (const Json* deadline = options->Find("deadline_ms"); deadline != nullptr) {
      if (!IsIntegralInRange(*deadline, 0.0, kMaxDeadlineMs)) {
        return Status::InvalidArgument(
            "'options.deadline_ms' must be an integer in [0, 1e12]");
      }
      for (ScoringRequest& item : parsed.items) {
        item.deadline_ms = deadline->AsInt();
      }
    }
    if (const Json* request_id = options->Find("request_id"); request_id != nullptr) {
      if (!request_id->is_string() || request_id->AsString().empty() ||
          request_id->AsString().size() > 128) {
        return Status::InvalidArgument(
            "'options.request_id' must be a non-empty string of at most 128 "
            "characters");
      }
      // A '/' would make the id unreachable through /v1/requests/{id}; the
      // 'req-' prefix is reserved for server-generated ids so a client can
      // never collide with (or squat on) the generator's sequence.
      if (request_id->AsString().find('/') != std::string::npos) {
        return Status::InvalidArgument("'options.request_id' must not contain '/'");
      }
      if (request_id->AsString().rfind("req-", 0) == 0) {
        return Status::InvalidArgument(
            "'options.request_id' prefix 'req-' is reserved for "
            "server-generated ids");
      }
      parsed.request_id = request_id->AsString();
    }
  }
  return parsed;
}

HttpResponse ScoringService::HandleScore(const HttpRequest& request) {
  auto body = Json::Parse(request.body);
  if (!body.ok()) {
    return ApiErrorResponse(StatusCode::kInvalidArgument, body.status().message());
  }
  auto parsed = ParseSubmission(body.value());
  if (!parsed.ok()) {
    return ApiErrorResponse(parsed.status());
  }
  const bool multi_item = parsed.value().multi_item;

  // Blocking handoff: the whole submission is admitted atomically as one
  // co-batch group on ONE replica (multi-item bodies become deliberate
  // PrefillBatch candidates), then this connection thread waits on every
  // future, in item order — the set doesn't block, other connections'
  // requests run alongside under each replica's SRJF dispatcher.
  auto submitted = set_->SubmitGroup(std::move(parsed.value().items));
  if (!submitted.ok()) {
    return ApiErrorResponse(submitted.status());
  }
  std::vector<Result<ScoringResponse>> results;
  results.reserve(submitted.value().size());
  for (ReplicaSet::Submission& submission : submitted.value()) {
    results.push_back(submission.future.get());
  }

  if (!multi_item) {
    if (!results[0].ok()) {
      return ApiErrorResponse(results[0].status());
    }
    HttpResponse http;
    http.body = ScoringResponseJson(results[0].value()).Serialize();
    return http;
  }
  // Multi-item: per-item results in input order; item-level failures are
  // reported in place so one bad item doesn't mask its siblings' scores.
  Json::Array items;
  for (const auto& result : results) {
    items.push_back(ItemResultJson(result));
  }
  Json::Object out;
  out.emplace("n_items", Json(static_cast<int64_t>(results.size())));
  out.emplace("results", Json(std::move(items)));
  HttpResponse http;
  http.body = Json(std::move(out)).Serialize();
  return http;
}

HttpResponse ScoringService::HandleSubmitRequest(const HttpRequest& request) {
  auto body = Json::Parse(request.body);
  if (!body.ok()) {
    return ApiErrorResponse(StatusCode::kInvalidArgument, body.status().message());
  }
  auto parsed = ParseSubmission(body.value());
  if (!parsed.ok()) {
    return ApiErrorResponse(parsed.status());
  }
  std::string id = parsed.value().request_id;
  if (id.empty()) {
    id = "req-" + std::to_string(next_request_seq_.fetch_add(1));
  }
  const auto n_items = static_cast<int64_t>(parsed.value().items.size());
  // Captured before SubmitGroupAsync consumes the items: the priority
  // decides how long the finished result survives in the retention table.
  const int32_t priority = parsed.value().items.front().priority;

  // Claim the id BEFORE engine admission: a duplicate (e.g. an idempotent
  // client retry) costs a 409 and nothing else — no queue slot, no prefill.
  if (Status reserved = requests_->Reserve(id); !reserved.ok()) {
    return ApiErrorResponse(reserved);
  }
  auto submitted = set_->SubmitGroup(std::move(parsed.value().items));
  if (!submitted.ok()) {
    // Includes the pre-dispatch rejections: an already-expired deadline
    // maps to 504 here, before any queue slot or prefill was spent.
    requests_->Abandon(id);
    return ApiErrorResponse(submitted.status());
  }
  requests_->Commit(id, std::move(submitted.value()), priority);
  Json::Object out;
  out.emplace("id", Json(id));
  out.emplace("status", Json("queued"));
  out.emplace("n_items", Json(n_items));
  HttpResponse http;
  http.status = 202;
  http.body = Json(std::move(out)).Serialize();
  return http;
}

namespace {

HttpResponse LifecycleResponse(const std::string& id,
                               const RequestTable::Snapshot& snapshot) {
  Json::Object out;
  out.emplace("id", Json(id));
  out.emplace("status", Json(std::string(RequestTable::StateName(snapshot.state))));
  const bool terminal = snapshot.state == RequestTable::State::kDone ||
                        snapshot.state == RequestTable::State::kFailed ||
                        snapshot.state == RequestTable::State::kCancelled;
  if (terminal) {
    Json::Array results;
    for (const auto& result : snapshot.results) {
      assert(result.has_value());
      results.push_back(ItemResultJson(*result));
    }
    out.emplace("results", Json(std::move(results)));
  }
  HttpResponse http;
  http.body = Json(std::move(out)).Serialize();
  return http;
}

}  // namespace

HttpResponse ScoringService::HandlePollRequest(const std::string& id) {
  auto snapshot = requests_->Poll(id);
  if (!snapshot.ok()) {
    return ApiErrorResponse(snapshot.status());
  }
  return LifecycleResponse(id, snapshot.value());
}

HttpResponse ScoringService::HandleCancelRequest(const std::string& id) {
  auto snapshot = requests_->Cancel(id);
  if (!snapshot.ok()) {
    return ApiErrorResponse(snapshot.status());
  }
  return LifecycleResponse(id, snapshot.value());
}

namespace {

// One replica's /v1/stats | /v1/replicas entry: router-side state and
// counters, plus the engine counters balance checks sum across replicas.
Json ReplicaSnapshotJson(const ReplicaSnapshot& replica) {
  Json::Object out;
  out.emplace("index", Json(static_cast<int64_t>(replica.index)));
  out.emplace("breaker", Json(std::string(BreakerStateName(replica.breaker))));
  out.emplace("admitting", Json(replica.admitting));
  out.emplace("draining", Json(replica.draining));
  out.emplace("drained", Json(replica.drained));
  out.emplace("outstanding", Json(replica.outstanding));
  switch (replica.engine_health) {
    case Engine::HealthStatus::kOk:
      out.emplace("engine_health", Json("ok"));
      break;
    case Engine::HealthStatus::kDegraded:
      out.emplace("engine_health", Json("degraded"));
      break;
    case Engine::HealthStatus::kOverloaded:
      out.emplace("engine_health", Json("overloaded"));
      break;
  }
  ForEachReplicaCounter(
      [&](const char* key, int64_t value) { out.emplace(key, Json(value)); },
      replica.counters);
  // The full engine aggregate lives at the payload's top level.
  out.emplace("submitted", Json(replica.engine.submitted));
  out.emplace("completed", Json(replica.engine.completed));
  out.emplace("failed", Json(replica.engine.failed));
  out.emplace("cancelled", Json(replica.engine.cancelled));
  out.emplace("shed", Json(replica.engine.shed));
  out.emplace("cache_hit_rate", Json(replica.engine.cache.HitRate()));
  return Json(std::move(out));
}

}  // namespace

Json StatsJson(const ClusterStats& stats) {
  Json::Object out;
  ForEachEngineCounter(
      [&](const char* key, StatMerge /*merge*/, const auto& value) {
        if constexpr (std::is_floating_point_v<std::decay_t<decltype(value)>>) {
          out.emplace(key, Json(value));
        } else {
          out.emplace(key, Json(static_cast<int64_t>(value)));
        }
      },
      stats.totals);
  // Derived ratios: mean requests and admitted miss tokens per dispatched
  // batch (1.0 occupancy = every request ran solo), token-accurate hit rate.
  const EngineStats& t = stats.totals;
  const auto per_batch = [&](int64_t count) {
    return Json(t.batches_dispatched > 0 ? static_cast<double>(count) /
                                               static_cast<double>(t.batches_dispatched)
                                         : 0.0);
  };
  out.emplace("batch_occupancy", per_batch(t.batched_requests));
  out.emplace("miss_tokens_per_batch", per_batch(t.batched_miss_tokens));
  out.emplace("cache_hit_rate", Json(t.cache.HitRate()));
  // Router counters plus the per-replica breakdown behind the totals.
  out.emplace("n_replicas", Json(static_cast<int64_t>(stats.replicas.size())));
  Json::Object cluster;
  ForEachClusterCounter(
      [&](const char* key, int64_t value) { cluster.emplace(key, Json(value)); },
      stats.cluster);
  out.emplace("cluster", Json(std::move(cluster)));
  Json::Array replicas;
  for (const ReplicaSnapshot& replica : stats.replicas) {
    replicas.push_back(ReplicaSnapshotJson(replica));
  }
  out.emplace("replicas", Json(std::move(replicas)));
  return Json(std::move(out));
}

HttpResponse ScoringService::HandleStats() const {
  HttpResponse http;
  http.body = StatsJson(set_->Stats()).Serialize();
  return http;
}

HttpResponse ScoringService::HandleHealth() const {
  const Engine::HealthStatus health = set_->Health();
  const std::vector<ReplicaSnapshot> replicas = set_->Replicas();
  int64_t admitting = 0;
  for (const ReplicaSnapshot& replica : replicas) {
    if (replica.admitting) {
      ++admitting;
    }
  }
  Json::Object out;
  HttpResponse http;
  switch (health) {
    case Engine::HealthStatus::kOk:
      out.emplace("status", Json("ok"));
      break;
    case Engine::HealthStatus::kDegraded:
      // Still serving (200) — but some replica is impaired (breaker open or
      // probing, draining, or an engine degraded/overloaded), so an operator
      // should look before trusting latency SLOs.
      out.emplace("status", Json("degraded"));
      break;
    case Engine::HealthStatus::kOverloaded:
      // NO replica admits work (every breaker open/probing, draining, or
      // engine shedding): new submissions are being rejected, so the health
      // probe itself answers 503 for LB draining.
      out.emplace("status", Json("overloaded"));
      http.status = 503;
      http.headers.emplace("Retry-After", "1");
      break;
  }
  out.emplace("admitting", Json(admitting));
  out.emplace("n_replicas", Json(static_cast<int64_t>(set_->n_replicas())));
  http.body = Json(std::move(out)).Serialize();
  return http;
}

HttpResponse ScoringService::HandleListReplicas() const {
  Json::Array replicas;
  for (const ReplicaSnapshot& replica : set_->Replicas()) {
    replicas.push_back(ReplicaSnapshotJson(replica));
  }
  Json::Object out;
  out.emplace("n_replicas", Json(static_cast<int64_t>(set_->n_replicas())));
  out.emplace("replicas", Json(std::move(replicas)));
  HttpResponse http;
  http.body = Json(std::move(out)).Serialize();
  return http;
}

HttpResponse ScoringService::HandleReplicaAdmin(const HttpRequest& request,
                                                const std::string& tail) {
  // tail is "{index}/drain" or "{index}/rejoin".
  const size_t slash = tail.find('/');
  const std::string index_text = tail.substr(0, slash);
  const std::string action =
      slash == std::string::npos ? "" : tail.substr(slash + 1);
  // The index must be a short run of digits — anything else (empty, signed,
  // non-numeric, absurdly long) is an unknown route, not a 500.
  if (index_text.empty() || index_text.size() > 6 ||
      index_text.find_first_not_of("0123456789") != std::string::npos ||
      (action != "drain" && action != "rejoin")) {
    return ApiErrorResponse(StatusCode::kNotFound,
                            "unknown route: /v1/replicas/" + tail);
  }
  if (request.method != "POST") {
    return MethodNotAllowed(request.method, request.path, "POST");
  }
  const int index = std::stoi(index_text);
  const Status status =
      action == "drain" ? set_->Drain(index) : set_->Rejoin(index);
  if (!status.ok()) {
    // Out-of-range index: kInvalidArgument -> 400.
    return ApiErrorResponse(status);
  }
  Json::Object out;
  out.emplace("index", Json(static_cast<int64_t>(index)));
  out.emplace("action", Json(action));
  // The post-action snapshot, so the operator sees the new state without a
  // second round trip.
  const std::vector<ReplicaSnapshot> replicas = set_->Replicas();
  if (index < static_cast<int>(replicas.size())) {
    out.emplace("replica", ReplicaSnapshotJson(replicas[static_cast<size_t>(index)]));
  }
  HttpResponse http;
  http.body = Json(std::move(out)).Serialize();
  return http;
}

}  // namespace prefillonly
