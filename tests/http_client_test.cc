// HTTP/1.1 client transport tests (ISSUE 10, src/client/http_client.h).
//
// The client is exercised against the real in-repo HttpServer on real
// loopback sockets — the same pairing production uses — so keep-alive
// reuse, stale-connection resend, and transport error mapping are tested
// end to end, not against mocks.
//
// RemoteParityTest drives the facade's two transports — a local Client and
// a Client with ClientOptions::endpoint set — over the same workload: they
// must yield BITWISE identical scores (the determinism contract riding the
// shortest-round-trip JSON doubles) and the same error codes, with the
// balance invariant holding on both sides of the wire.
//
// ChaosRemoteClientTest (chaos label, CI's chaos job) replays a seeded fault
// schedule across BOTH fault domains at once — a replica hand-off failure
// and a socket-level read blip — while several threads share one remote
// Client, and checks the books still reconcile with /v1/stats.
#include "src/client/http_client.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "prefillonly/client.h"
#include "src/common/fault.h"
#include "src/server/http_server.h"
#include "src/server/scoring_service.h"
#include "src/workload/dataset.h"

namespace prefillonly {
namespace {

HttpServer::Handler CountingEchoHandler(std::atomic<int>& hits) {
  return [&hits](const HttpRequest& request) {
    ++hits;
    HttpResponse response;
    response.body = "{\"path\":\"" + request.path + "\",\"len\":" +
                    std::to_string(request.body.size()) + "}";
    return response;
  };
}

TEST(HttpClientTest, ParseEndpointForms) {
  auto full = ParseEndpoint("10.0.0.8:8080");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().host, "10.0.0.8");
  EXPECT_EQ(full.value().port, 8080);

  // Host defaults to loopback for ":port" and bare-port forms.
  auto colon = ParseEndpoint(":9000");
  ASSERT_TRUE(colon.ok());
  EXPECT_EQ(colon.value().host, "127.0.0.1");
  EXPECT_EQ(colon.value().port, 9000);

  auto bare = ParseEndpoint("9000");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare.value().host, "127.0.0.1");
  EXPECT_EQ(bare.value().port, 9000);

  for (const char* bad : {"", "host:", "host:0", "host:65536", "host:abc"}) {
    auto result = ParseEndpoint(bad);
    EXPECT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(HttpClientTest, KeepAliveReusesOneConnection) {
  std::atomic<int> hits{0};
  HttpServer server(CountingEchoHandler(hits));
  ASSERT_TRUE(server.Start(0).ok());

  HttpClientOptions options;
  options.port = server.port();
  HttpClient client(options);
  for (int i = 0; i < 8; ++i) {
    auto response = client.Post("/echo", "payload-" + std::to_string(i));
    ASSERT_TRUE(response.ok()) << response.status().message();
    EXPECT_EQ(response.value().status, 200);
    EXPECT_NE(response.value().body.find("\"len\":9"), std::string::npos);
  }
  EXPECT_EQ(hits.load(), 8);
  // The whole exchange rode ONE socket: that is the keep-alive contract.
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(client.reconnects(), 0);
  server.Stop();
}

TEST(HttpClientTest, StaleConnectionReconnectsAndResendsOnce) {
  std::atomic<int> hits{0};
  auto first = std::make_unique<HttpServer>(CountingEchoHandler(hits));
  ASSERT_TRUE(first->Start(0).ok());
  const uint16_t port = first->port();

  HttpClientOptions options;
  options.port = port;
  HttpClient client(options);
  ASSERT_TRUE(client.Get("/a").ok());
  EXPECT_EQ(client.reconnects(), 0);

  // Simulate a keep-alive peer restarting between requests: the pooled
  // socket is now stale (EOF before any response byte), which is the one
  // provably-safe resend case.
  first->Stop();
  first.reset();
  HttpServer second(CountingEchoHandler(hits));
  ASSERT_TRUE(second.Start(port).ok());

  auto response = client.Get("/b");
  ASSERT_TRUE(response.ok()) << response.status().message();
  EXPECT_EQ(response.value().status, 200);
  EXPECT_EQ(client.reconnects(), 1);
  EXPECT_EQ(hits.load(), 2);
  second.Stop();
}

TEST(HttpClientTest, ConnectionRefusedIsUnavailable) {
  // Grab a port the OS just proved free, then close the listener.
  uint16_t free_port = 0;
  {
    HttpServer probe([](const HttpRequest&) { return HttpResponse{}; });
    ASSERT_TRUE(probe.Start(0).ok());
    free_port = probe.port();
    probe.Stop();
  }
  HttpClientOptions options;
  options.port = free_port;
  HttpClient client(options);
  auto response = client.Get("/");
  ASSERT_FALSE(response.ok());
  // kUnavailable is the transient class the facade RetryPolicy retries.
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_FALSE(client.connected());
}

TEST(HttpClientTest, InvalidHostIsInvalidArgument) {
  HttpClientOptions options;
  options.host = "not-an-ip";  // DNS is out of scope: IPv4 literals only
  options.port = 1;
  HttpClient client(options);
  auto response = client.Get("/");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------------- parity

std::vector<SimRequest> ScaledPostRecItems(size_t max_items) {
  Dataset dataset =
      MakePostRecommendationDataset(ScaledPostRecommendationConfig());
  if (dataset.requests.size() > max_items) {
    dataset.requests.resize(max_items);
  }
  return std::move(dataset.requests);
}

ClientOptions TinyClientOptions() {
  ClientOptions options;
  options.model = "tiny";
  options.max_concurrent_requests = 2;
  options.max_batch_size = 4;
  return options;
}

std::string LoopbackEndpoint(uint16_t port) {
  return "127.0.0.1:" + std::to_string(port);
}

TEST(RemoteParityTest, RemoteAndInProcessScoresAreBitwiseIdentical) {
  // One engine configuration, two transports.
  EngineOptions engine_options;
  engine_options.model = ModelConfig::Tiny();
  engine_options.max_concurrent_requests = 2;
  engine_options.max_batch_size = 4;
  ScoringService service(engine_options);
  ASSERT_TRUE(service.Start(0).ok());

  Client inprocess(TinyClientOptions());
  ClientOptions remote_options;
  remote_options.model = "tiny";
  remote_options.endpoint = LoopbackEndpoint(service.port());
  Client remote(remote_options);

  const auto items = ScaledPostRecItems(12);
  ScoreOptions score_options;
  const ClientStats remote_before = remote.Stats();
  for (const SimRequest& item : items) {
    score_options.user_id = item.user_id;
    const ScoreResult local = inprocess.Score(item.tokens, {7, 9}, score_options);
    const ScoreResult wire = remote.Score(item.tokens, {7, 9}, score_options);
    ASSERT_TRUE(local.ok) << local.error_message;
    ASSERT_TRUE(wire.ok) << wire.error_message;
    // BITWISE equality across the HTTP boundary: deterministic engine plus
    // shortest-round-trip JSON doubles. EXPECT_EQ on doubles, not NEAR.
    EXPECT_EQ(local.score, wire.score);
    ASSERT_EQ(local.probabilities.size(), wire.probabilities.size());
    for (size_t i = 0; i < local.probabilities.size(); ++i) {
      EXPECT_EQ(local.probabilities[i].token, wire.probabilities[i].token);
      EXPECT_EQ(local.probabilities[i].probability,
                wire.probabilities[i].probability);
    }
    EXPECT_EQ(local.n_input, wire.n_input);
  }

  // The balance invariant holds on both sides of the wire.
  const ClientStats local_stats = inprocess.Stats();
  EXPECT_EQ(local_stats.submitted,
            local_stats.completed + local_stats.failed + local_stats.cancelled +
                local_stats.cancelled_in_flight + local_stats.deadline_expired +
                local_stats.deadline_expired_in_flight);
  const ClientStats remote_after = remote.Stats();
  EXPECT_EQ(remote_after.submitted - remote_before.submitted,
            static_cast<int64_t>(items.size()));
  EXPECT_EQ(remote_after.submitted - remote_before.submitted,
            (remote_after.completed - remote_before.completed) +
                (remote_after.failed - remote_before.failed));
  service.Stop();
}

TEST(RemoteParityTest, ErrorCodesCrossTheWireUnchanged) {
  EngineOptions engine_options;
  engine_options.model = ModelConfig::Tiny();
  ScoringService service(engine_options);
  ASSERT_TRUE(service.Start(0).ok());
  ClientOptions remote_options;
  remote_options.model = "tiny";
  remote_options.endpoint = LoopbackEndpoint(service.port());
  Client remote(remote_options);

  // Out-of-vocabulary token: 400 on the wire, "invalid_argument" here —
  // exactly what the in-process engine reports.
  ScoreResult result = remote.Score({100000}, {7}, {});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, "invalid_argument");

  // Already-expired deadline: 504 on the wire, "deadline_exceeded" here.
  ScoreOptions expired;
  expired.deadline_ms = 0;
  result = remote.Score({1, 2, 3}, {7}, expired);
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, "deadline_exceeded");
  service.Stop();
}

TEST(RemoteParityTest, RemoteTargetToDeadEndpointIsUnavailable) {
  uint16_t free_port = 0;
  {
    EngineOptions engine_options;
    engine_options.model = ModelConfig::Tiny();
    ScoringService probe(engine_options);
    ASSERT_TRUE(probe.Start(0).ok());
    free_port = probe.port();
    probe.Stop();
  }
  ClientOptions remote_options;
  remote_options.model = "tiny";
  remote_options.endpoint = LoopbackEndpoint(free_port);
  Client remote(remote_options);
  const ScoreResult result = remote.Score({1, 2, 3}, {7}, {});
  EXPECT_FALSE(result.ok);
  // The transient class the RetryPolicy understands, same as a drained
  // in-process cluster.
  EXPECT_EQ(result.error_code, "unavailable");
}

// -------------------------------------------------------------------- chaos

// Both fault domains at once under concurrent load: the FIRST replica
// hand-off fails (cluster must fail over or surface a retryable error) and
// an early server-side socket read takes a transient EINTR (the read loop
// must absorb it). The books must still reconcile with /v1/stats.
TEST(ChaosRemoteClientTest, FaultsUnderLoadReconcileWithServerStats) {
  EngineOptions engine_options;
  engine_options.model = ModelConfig::Tiny();
  engine_options.max_concurrent_requests = 2;
  ScoringServiceOptions service_options;
  service_options.cluster.n_replicas = 2;
  ScoringService service(engine_options, service_options);
  ASSERT_TRUE(service.Start(0).ok());

  ClientOptions remote_options;
  remote_options.model = "tiny";
  remote_options.retry.max_retries = 2;
  remote_options.retry.initial_backoff_ms = 5;
  remote_options.retry.retry_after_floor_ms = 10;
  remote_options.endpoint = LoopbackEndpoint(service.port());
  Client remote(remote_options);

  const auto items = ScaledPostRecItems(24);
  constexpr int kThreads = 4;

  std::atomic<size_t> next{0};
  std::atomic<int64_t> dispatched{0};
  std::atomic<int64_t> returned{0};
  std::atomic<int64_t> ok{0};
  ClientStats before;
  ClientStats after;
  int64_t fires = 0;
  {
    FaultScope scope("seed=7;replica.submit=@1;socket.recv=@2");
    before = remote.Stats();
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&] {
        ScoreOptions score_options;
        for (size_t i = next++; i < items.size(); i = next++) {
          score_options.user_id = items[i].user_id;
          ++dispatched;
          const ScoreResult result =
              remote.Score(items[i].tokens, {7, 9}, score_options);
          ++returned;
          if (result.ok) {
            ++ok;
          }
        }
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    after = remote.Stats();
    fires = FaultInjector::Global().total_fires();
  }

  // The chaos contract: faults really fired, yet no request vanished and
  // the server's ledger (read back over /v1/stats) still balances.
  EXPECT_GE(fires, 1);
  EXPECT_EQ(dispatched.load(), static_cast<int64_t>(items.size()));
  EXPECT_EQ(returned.load(), dispatched.load());
  const int64_t submitted_delta = after.submitted - before.submitted;
  EXPECT_EQ(submitted_delta,
            (after.completed - before.completed) + (after.failed - before.failed) +
                (after.cancelled - before.cancelled) +
                (after.cancelled_in_flight - before.cancelled_in_flight) +
                (after.deadline_expired - before.deadline_expired) +
                (after.deadline_expired_in_flight -
                 before.deadline_expired_in_flight))
      << "submitted delta " << submitted_delta;
  // Every client-side success required a successful engine submission, so
  // the server-side ledger must cover at least the successes (retries and
  // failures only add to it).
  EXPECT_GE(submitted_delta, ok.load());
  EXPECT_GT(ok.load(), 0);
  service.Stop();
}

}  // namespace
}  // namespace prefillonly
