// The v1 scoring API: binds the PrefillOnly engine to the HTTP server.
//
// Routes (JSON in, JSON out; modeled on the paper's OpenAI-compatible
// frontend, specialized to prefill-only scoring — full reference in
// docs/API.md):
//
//   POST /v1/score            blocking scoring call
//     single item:  { "text"|"tokens": ..., "allowed"|"allowed_tokens": ...,
//                     "user_id": 7, "options": {...} }
//     multi-item:   { "items": [ <item>, ... ], "options": {...} }
//     -> single:    { "score": ..., "probabilities": [...], ... }
//     -> multi:     { "results": [ <result-or-error>, ... ], "n_items": N }
//     Items of one call are submitted as ONE co-batch group: the scheduler
//     deliberately stacks them into the same PrefillBatch when a lane frees
//     (ISSUE 5) instead of hoping they meet probabilistically.
//
//   POST   /v1/requests       async submission; same body as /v1/score
//     -> 202 { "id": "req-3", "status": "queued", "n_items": N }
//   GET    /v1/requests/{id}  non-blocking poll
//     -> { "id", "status": queued|running|done|failed|cancelled,
//          "results": [...] once terminal }
//   DELETE /v1/requests/{id}  cancel (idempotent once terminal)
//     -> { "id", "status" }
//
//   GET /v1/stats             cluster-aggregated engine counters (merged
//                             across replicas by each counter's StatMerge
//                             rule) plus router counters and a per-replica
//                             breakdown
//   GET /v1/health            cluster liveness/degradation probe
//     -> 200 { "status": "ok" | "degraded", "admitting": k, "n_replicas": n }
//        degraded = some replica is impaired (breaker open/half-open,
//        draining, or engine degraded) but at least one still admits
//     -> 503 { "status": "overloaded", ... }   NO replica admits work;
//        clients should back off (Retry-After honored by the facade)
//
//   GET  /v1/replicas               per-replica snapshots (ISSUE 8)
//   POST /v1/replicas/{i}/drain     stop admitting to replica i (its queued
//                                   and in-flight work finishes normally)
//   POST /v1/replicas/{i}/rejoin    resume admitting; resets the breaker
//
// `options` (both submission routes): "priority" (int, strict scheduling
// class), "deadline_ms" (int >= 0; 0 = already expired, rejected with 504
// before dispatch), "request_id" (string, client-chosen async id).
//
// Errors: every route shares the structured shape and Status->HTTP table of
// src/server/api_error.h. Known paths answer wrong methods with 405 plus an
// Allow header. Completed async results are retained in a bounded table
// (RequestTable) and poll as 404 after eviction.
//
// Concurrency (ISSUE 2): the service starts the replica set's concurrent
// runtime at construction. Each HTTP connection runs on its own server
// thread (keep-alive aware, ISSUE 5), and scoring handlers enqueue into the
// ReplicaSet (SubmitGroup) and block on the response futures — so up to
// n_replicas * max_concurrent_requests prefills overlap, scheduled per
// replica by the SRJF dispatcher, while /v1/stats and lifecycle polls stay
// readable mid-flight.
//
// Multi-replica serving (ISSUE 8): the service fronts a ReplicaSet, not a
// bare Engine. Requests route by prefix affinity with health-gated failover
// and per-replica circuit breakers; n_replicas = 1 (the default) behaves
// exactly like the pre-cluster server, including engine shed answering 429.
#ifndef SRC_SERVER_SCORING_SERVICE_H_
#define SRC_SERVER_SCORING_SERVICE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "src/cluster/replica_set.h"
#include "src/core/engine.h"
#include "src/server/http_server.h"
#include "src/server/json.h"
#include "src/server/request_table.h"
#include "src/workload/tokenizer.h"

namespace prefillonly {

// The /v1/stats payload: every ForEachEngineCounter counter under its key,
// the derived ratios, and the router counters and per-replica breakdown.
// Client::Stats builds the same object in process.
Json StatsJson(const ClusterStats& stats);

struct ScoringServiceOptions {
  // Completed async requests retained for polling before FIFO eviction
  // (the bounded completed-result table of ISSUE 5).
  size_t completed_requests_capacity = 256;
  // Cluster shape and robustness knobs (ISSUE 8). `cluster.engine` is
  // ignored — the constructor's EngineOptions argument is stamped over it,
  // so every replica is built from that one configuration.
  ReplicaSetOptions cluster;
};

class ScoringService {
 public:
  // Starts every replica's concurrent runtime (stopped again in ~ReplicaSet).
  explicit ScoringService(EngineOptions options,
                          ScoringServiceOptions service_options = {});

  // Starts serving on 127.0.0.1:`port` (0 = ephemeral).
  Status Start(uint16_t port);
  void Stop() { server_->Stop(); }
  uint16_t port() const { return server_->port(); }

  ReplicaSet& replica_set() { return *set_; }
  // Replica 0's engine by default — the pre-cluster accessor every existing
  // test uses; pass an index to reach the others.
  Engine& engine(int index = 0) { return set_->engine(index); }

  // Request handling, exposed for tests (no socket required). Thread-safe:
  // connection threads call this concurrently.
  HttpResponse Handle(const HttpRequest& request);

 private:
  // One parsed submission body: the items (>= 1) plus request-level options
  // already applied to every item.
  struct ParsedSubmission {
    std::vector<ScoringRequest> items;
    bool multi_item = false;
    std::string request_id;  // client-chosen async id; empty = generate
  };

  Result<ScoringRequest> ParseItem(const Json& item) const;
  Result<ParsedSubmission> ParseSubmission(const Json& body) const;

  HttpResponse HandleScore(const HttpRequest& request);
  HttpResponse HandleSubmitRequest(const HttpRequest& request);
  HttpResponse HandlePollRequest(const std::string& id);
  HttpResponse HandleCancelRequest(const std::string& id);
  HttpResponse HandleStats() const;
  HttpResponse HandleHealth() const;
  HttpResponse HandleListReplicas() const;
  // POST /v1/replicas/{index}/drain|rejoin.
  HttpResponse HandleReplicaAdmin(const HttpRequest& request,
                                  const std::string& tail);

  std::unique_ptr<ReplicaSet> set_;
  std::unique_ptr<HashTokenizer> tokenizer_;
  std::unique_ptr<RequestTable> requests_;
  std::atomic<int64_t> next_request_seq_{1};
  std::unique_ptr<HttpServer> server_;
};

}  // namespace prefillonly

#endif  // SRC_SERVER_SCORING_SERVICE_H_
