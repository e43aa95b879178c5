#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "prefillonly/client.h"
#include "src/server/http_server.h"
#include "src/server/json.h"
#include "src/server/scoring_service.h"

namespace prefillonly {
namespace {

// -------------------------------------------------------------------- JSON

TEST(JsonTest, ParsePrimitives) {
  EXPECT_TRUE(Json::Parse("null").value().is_null());
  EXPECT_EQ(Json::Parse("true").value().AsBool(), true);
  EXPECT_EQ(Json::Parse("false").value().AsBool(), false);
  EXPECT_DOUBLE_EQ(Json::Parse("3.25").value().AsDouble(), 3.25);
  EXPECT_EQ(Json::Parse("-17").value().AsInt(), -17);
  EXPECT_EQ(Json::Parse("\"hi\"").value().AsString(), "hi");
}

TEST(JsonTest, ParseNested) {
  auto parsed = Json::Parse(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Json& v = parsed.value();
  ASSERT_TRUE(v.is_object());
  const Json* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->AsArray().size(), 3u);
  EXPECT_EQ(a->AsArray()[2].Find("b")->AsString(), "c");
  EXPECT_TRUE(v.Find("d")->is_null());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonTest, ParseEscapes) {
  auto parsed = Json::Parse(R"("line\nbreak \"quoted\" tab\t uA")");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().AsString(), "line\nbreak \"quoted\" tab\t uA");
}

TEST(JsonTest, RejectsMalformed) {
  EXPECT_FALSE(Json::Parse("").ok());
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("{\"a\" 1}").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_FALSE(Json::Parse("12 34").ok());
  EXPECT_FALSE(Json::Parse("nul").ok());
}

TEST(JsonTest, SerializeRoundTrip) {
  Json::Object object;
  object.emplace("name", Json("prefill\"only\""));
  object.emplace("n", Json(42));
  object.emplace("pi", Json(3.5));
  object.emplace("flags", Json(Json::Array{Json(true), Json(nullptr)}));
  const std::string serialized = Json(std::move(object)).Serialize();
  auto reparsed = Json::Parse(serialized);
  ASSERT_TRUE(reparsed.ok()) << serialized;
  EXPECT_EQ(reparsed.value().Find("name")->AsString(), "prefill\"only\"");
  EXPECT_EQ(reparsed.value().Find("n")->AsInt(), 42);
  EXPECT_DOUBLE_EQ(reparsed.value().Find("pi")->AsDouble(), 3.5);
  EXPECT_TRUE(reparsed.value().Find("flags")->AsArray()[1].is_null());
}

// -------------------------------------------------------------- HTTP parse

TEST(HttpParseTest, ParsesRequestLineHeadersBody) {
  const std::string raw =
      "POST /v1/score HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Type: application/json\r\n"
      "Content-Length: 2\r\n"
      "\r\n"
      "{}";
  auto request = HttpServer::ParseRequest(raw);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request.value().method, "POST");
  EXPECT_EQ(request.value().path, "/v1/score");
  EXPECT_EQ(request.value().headers.at("content-type"), "application/json");
  EXPECT_EQ(request.value().body, "{}");
}

TEST(HttpParseTest, RejectsMalformed) {
  EXPECT_FALSE(HttpServer::ParseRequest("garbage").ok());
  EXPECT_FALSE(HttpServer::ParseRequest("GET\r\n\r\n").ok());
}

// ----------------------------------------------------- Service (no socket)

EngineOptions SmallEngineOptions() {
  EngineOptions options;
  options.model = ModelConfig::Tiny();
  options.block_size = 16;
  return options;
}

HttpRequest Post(const std::string& path, const std::string& body) {
  HttpRequest request;
  request.method = "POST";
  request.path = path;
  request.body = body;
  return request;
}

TEST(ScoringServiceTest, ScoresTokenRequest) {
  ScoringService service(SmallEngineOptions());
  const auto response = service.Handle(
      Post("/v1/score", R"({"tokens":[1,2,3,4,5,6,7,8], "allowed_tokens":[10,20]})"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  const double score = body.value().Find("score")->AsDouble();
  EXPECT_GT(score, 0.0);
  EXPECT_LT(score, 1.0);
  EXPECT_EQ(body.value().Find("n_input")->AsInt(), 8);
}

TEST(ScoringServiceTest, ScoresTextRequestAndHitsCache) {
  ScoringService service(SmallEngineOptions());
  const std::string profile =
      "user profile : systems papers , sourdough , gravel cycling , synths "
      "and long reads about databases storage and schedulers every week";
  const std::string req1 = R"({"text":")" + profile + R"( article one",
                               "allowed":["yes","no"]})";
  const std::string req2 = R"({"text":")" + profile + R"( article two",
                               "allowed":["yes","no"]})";
  ASSERT_EQ(service.Handle(Post("/v1/score", req1)).status, 200);
  const auto response = service.Handle(Post("/v1/score", req2));
  ASSERT_EQ(response.status, 200);
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_GT(body.value().Find("n_cached")->AsInt(), 0);
}

TEST(ScoringServiceTest, BadRequestsGet400) {
  ScoringService service(SmallEngineOptions());
  EXPECT_EQ(service.Handle(Post("/v1/score", "not json")).status, 400);
  EXPECT_EQ(service.Handle(Post("/v1/score", "{}")).status, 400);
  EXPECT_EQ(service.Handle(Post("/v1/score", R"({"tokens":[1]})")).status, 400);
  EXPECT_EQ(service.Handle(Post("/v1/score",
                                R"({"tokens":[99999], "allowed_tokens":[1]})"))
                .status,
            400);
}

TEST(ScoringServiceTest, UnknownRouteGets404) {
  ScoringService service(SmallEngineOptions());
  HttpRequest request;
  request.method = "GET";
  request.path = "/v2/nonsense";
  EXPECT_EQ(service.Handle(request).status, 404);
}

TEST(ScoringServiceTest, StatsEndpoint) {
  ScoringService service(SmallEngineOptions());
  service.Handle(
      Post("/v1/score", R"({"tokens":[1,2,3,4], "allowed_tokens":[10,20]})"));
  HttpRequest request;
  request.method = "GET";
  request.path = "/v1/stats";
  const auto response = service.Handle(request);
  ASSERT_EQ(response.status, 200);
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().Find("completed")->AsInt(), 1);
}

// ------------------------------------------------- End to end over a socket

// Minimal blocking HTTP client for the loopback test.
std::string HttpRoundTrip(uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::write(fd, request.data() + sent, request.size() - sent);
    if (n <= 0) {
      break;
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpEndToEndTest, ScoreOverLoopback) {
  ScoringService service(SmallEngineOptions());
  ASSERT_TRUE(service.Start(/*port=*/0).ok());
  ASSERT_GT(service.port(), 0);

  const std::string body =
      R"({"tokens":[3,1,4,1,5,9,2,6,5,3,5,9], "allowed_tokens":[10,20], "user_id": 7})";
  const std::string request = "POST /v1/score HTTP/1.1\r\n"
                              "Host: localhost\r\n"
                              "Content-Type: application/json\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  const std::string response = HttpRoundTrip(service.port(), request);
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
  const size_t json_start = response.find("\r\n\r\n");
  ASSERT_NE(json_start, std::string::npos);
  auto parsed = Json::Parse(response.substr(json_start + 4));
  ASSERT_TRUE(parsed.ok());
  EXPECT_GT(parsed.value().Find("score")->AsDouble(), 0.0);
  service.Stop();
}

TEST(HttpEndToEndTest, StartStopIsIdempotent) {
  ScoringService service(SmallEngineOptions());
  ASSERT_TRUE(service.Start(0).ok());
  service.Stop();
  service.Stop();  // no-op
}

// ------------------------------------------- Concurrent serving (ISSUE 2)

std::string ScoreRequestBody(int seed) {
  std::string tokens;
  for (int i = 0; i < 24; ++i) {
    if (i > 0) {
      tokens += ',';
    }
    tokens += std::to_string((seed * 31 + i * 7) % 200 + 1);
  }
  return R"({"tokens":[)" + tokens + R"(], "allowed_tokens":[10,20], "user_id": )" +
         std::to_string(seed) + "}";
}

std::string PostRequest(const std::string& path, const std::string& body) {
  return "POST " + path + " HTTP/1.1\r\nHost: localhost\r\n"
         "Content-Type: application/json\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

// Body of a 200 response, or "" on any other status.
std::string OkBody(const std::string& response) {
  if (response.find("HTTP/1.1 200 OK") == std::string::npos) {
    return "";
  }
  const size_t json_start = response.find("\r\n\r\n");
  return json_start == std::string::npos ? "" : response.substr(json_start + 4);
}

TEST(HttpConcurrencyTest, ParallelSocketsMatchSerialExecution) {
  constexpr int kClients = 6;
  // Serial reference: the same requests one at a time on a fresh service.
  std::vector<double> expected_scores(kClients);
  {
    EngineOptions options = SmallEngineOptions();
    ScoringService serial(options);
    ASSERT_TRUE(serial.Start(0).ok());
    for (int c = 0; c < kClients; ++c) {
      const auto body = OkBody(HttpRoundTrip(
          serial.port(), PostRequest("/v1/score", ScoreRequestBody(c))));
      ASSERT_FALSE(body.empty());
      auto json = Json::Parse(body);
      ASSERT_TRUE(json.ok());
      expected_scores[static_cast<size_t>(c)] = json.value().Find("score")->AsDouble();
    }
    serial.Stop();
  }

  // Concurrent run: every socket in flight at once against a 4-lane engine.
  EngineOptions options = SmallEngineOptions();
  options.max_concurrent_requests = 4;
  ScoringService service(options);
  ASSERT_TRUE(service.Start(0).ok());
  std::vector<std::string> bodies(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&service, &bodies, c] {
      bodies[static_cast<size_t>(c)] = OkBody(HttpRoundTrip(
          service.port(), PostRequest("/v1/score", ScoreRequestBody(c))));
    });
  }
  for (auto& t : clients) {
    t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_FALSE(bodies[static_cast<size_t>(c)].empty()) << "client " << c;
    auto json = Json::Parse(bodies[static_cast<size_t>(c)]);
    ASSERT_TRUE(json.ok());
    // Bitwise determinism end to end: concurrent execution must reproduce
    // the serial scores exactly (same doubles, same serialization).
    EXPECT_EQ(json.value().Find("score")->AsDouble(),
              expected_scores[static_cast<size_t>(c)])
        << "client " << c;
    EXPECT_EQ(json.value().Find("n_input")->AsInt(), 24);
  }
  const auto stats = service.engine().stats();
  EXPECT_EQ(stats.submitted, kClients);
  EXPECT_EQ(stats.completed, kClients);
  service.Stop();
}

TEST(HttpConcurrencyTest, StopUnblocksIdleConnections) {
  // A client that connects and sends nothing parks a connection thread in
  // read(); Stop() must shut the socket down and return instead of hanging
  // in the join.
  ScoringService service(SmallEngineOptions());
  ASSERT_TRUE(service.Start(0).ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(service.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  // Let the server accept and block reading the (never-sent) request.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  service.Stop();
  ::close(fd);
}

TEST(HttpConcurrencyTest, StatsReadableMidFlightWithoutTornCounters) {
  EngineOptions options = SmallEngineOptions();
  options.max_concurrent_requests = 2;
  ScoringService service(options);
  ASSERT_TRUE(service.Start(0).ok());

  constexpr int kScores = 8;
  std::vector<std::thread> scorers;
  for (int c = 0; c < kScores; ++c) {
    scorers.emplace_back([&service, c] {
      HttpRoundTrip(service.port(), PostRequest("/v1/score", ScoreRequestBody(c)));
    });
  }
  // Hammer /v1/stats while the scores are in flight; every response must be
  // a consistent snapshot (never completed+failed > submitted, never torn).
  std::atomic<bool> done{false};
  std::thread stats_reader([&service, &done] {
    while (!done.load()) {
      const auto body =
          OkBody(HttpRoundTrip(service.port(), "GET /v1/stats HTTP/1.1\r\n"
                                               "Host: localhost\r\n\r\n"));
      ASSERT_FALSE(body.empty());
      auto json = Json::Parse(body);
      ASSERT_TRUE(json.ok()) << body;
      const int64_t submitted = json.value().Find("submitted")->AsInt();
      const int64_t completed = json.value().Find("completed")->AsInt();
      const int64_t failed = json.value().Find("failed")->AsInt();
      EXPECT_GE(submitted, 0);
      EXPECT_LE(completed + failed, submitted);
    }
  });
  for (auto& t : scorers) {
    t.join();
  }
  done.store(true);
  stats_reader.join();

  const auto stats = service.engine().stats();
  EXPECT_EQ(stats.completed + stats.failed, kScores);
  service.Stop();
}

// ------------------------------------ Request-lifecycle API (ISSUE 5)

HttpRequest Req(const std::string& method, const std::string& path,
                const std::string& body = "") {
  HttpRequest request;
  request.method = method;
  request.path = path;
  request.body = body;
  return request;
}

std::string TokensBody(int n_tokens, int seed, const std::string& extra = "") {
  std::string tokens;
  for (int i = 0; i < n_tokens; ++i) {
    if (i > 0) {
      tokens += ',';
    }
    tokens += std::to_string((seed * 31 + i * 7) % 200 + 1);
  }
  return R"({"tokens":[)" + tokens + R"(], "allowed_tokens":[10,20])" + extra + "}";
}

// Polls GET /v1/requests/{id} until `status` (or a generous timeout — TSan
// slows prefills by an order of magnitude); returns the last response body.
std::string PollUntil(ScoringService& service, const std::string& id,
                      const std::string& status) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (true) {
    const auto response = service.Handle(Req("GET", "/v1/requests/" + id));
    if (response.status != 200) {
      return response.body;
    }
    auto body = Json::Parse(response.body);
    if (body.ok() && body.value().Find("status")->AsString() == status) {
      return response.body;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      return response.body;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(ApiErrorModelTest, EveryRouteSharesTheStructuredShape) {
  ScoringService service(SmallEngineOptions());
  for (const auto& [request, expected_status, expected_code] :
       std::vector<std::tuple<HttpRequest, int, std::string>>{
           {Post("/v1/score", "not json"), 400, "invalid_argument"},
           {Post("/v1/score", "{}"), 400, "invalid_argument"},
           {Req("GET", "/v2/nonsense"), 404, "not_found"},
           {Req("GET", "/v1/requests/nope"), 404, "not_found"},
           {Req("DELETE", "/v1/requests/nope"), 404, "not_found"},
       }) {
    const auto response = service.Handle(request);
    EXPECT_EQ(response.status, expected_status) << request.path;
    auto body = Json::Parse(response.body);
    ASSERT_TRUE(body.ok()) << response.body;
    const Json* error = body.value().Find("error");
    ASSERT_NE(error, nullptr) << response.body;
    EXPECT_EQ(error->Find("code")->AsString(), expected_code);
    ASSERT_NE(error->Find("type"), nullptr);
    EXPECT_FALSE(error->Find("message")->AsString().empty());
  }
}

TEST(ApiErrorModelTest, MalformedAllowedTokensGets400NotACrash) {
  // Regression (ISSUE 5 satellite): the pre-redesign handler called AsInt()
  // on 'allowed_tokens' elements without checking is_number() — a string in
  // the list threw bad_variant_access through the connection thread.
  ScoringService service(SmallEngineOptions());
  EXPECT_EQ(
      service.Handle(Post("/v1/score", R"({"tokens":[1,2],"allowed_tokens":["x"]})"))
          .status,
      400);
  EXPECT_EQ(
      service.Handle(Post("/v1/score", R"({"tokens":[1,2],"allowed_tokens":[null]})"))
          .status,
      400);
  EXPECT_EQ(
      service
          .Handle(Post("/v1/score", R"({"tokens":[1,2],"allowed_tokens":[10,{}]})"))
          .status,
      400);
  // The sibling 'tokens' loop keeps its check too.
  EXPECT_EQ(
      service.Handle(Post("/v1/score", R"({"tokens":[1,"2"],"allowed_tokens":[10]})"))
          .status,
      400);
}

TEST(ApiErrorModelTest, ExpiredDeadlineGets504BeforeDispatch) {
  ScoringService service(SmallEngineOptions());
  const auto response = service.Handle(
      Post("/v1/score", TokensBody(8, 1, R"(, "options":{"deadline_ms":0})")));
  EXPECT_EQ(response.status, 504);
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().Find("error")->Find("code")->AsString(),
            "deadline_exceeded");
  EXPECT_EQ(body.value().Find("error")->Find("type")->AsString(), "timeout_error");
  // Rejected before admission: nothing was submitted, nothing ran.
  const auto stats = service.engine().stats();
  EXPECT_EQ(stats.submitted, 0);
  EXPECT_EQ(stats.completed, 0);
}

TEST(ApiErrorModelTest, KnownPathWrongMethodGets405WithAllow) {
  ScoringService service(SmallEngineOptions());
  const auto score = service.Handle(Req("GET", "/v1/score"));
  EXPECT_EQ(score.status, 405);
  EXPECT_EQ(score.headers.at("Allow"), "POST");
  const auto stats = service.Handle(Req("POST", "/v1/stats", "{}"));
  EXPECT_EQ(stats.status, 405);
  EXPECT_EQ(stats.headers.at("Allow"), "GET");
  const auto lifecycle = service.Handle(Req("PUT", "/v1/requests/abc", "{}"));
  EXPECT_EQ(lifecycle.status, 405);
  EXPECT_EQ(lifecycle.headers.at("Allow"), "GET, DELETE");
}

TEST(MultiItemScoreTest, ResultsMatchSoloScoresInInputOrder) {
  ScoringService service(SmallEngineOptions());
  // Solo reference scores (bitwise: caching never changes logits).
  std::vector<double> expected;
  for (int seed = 0; seed < 3; ++seed) {
    const auto response = service.Handle(Post("/v1/score", TokensBody(24, seed)));
    ASSERT_EQ(response.status, 200) << response.body;
    expected.push_back(Json::Parse(response.body).value().Find("score")->AsDouble());
  }
  std::string items;
  for (int seed = 0; seed < 3; ++seed) {
    items += (seed == 0 ? "" : ",") + TokensBody(24, seed);
  }
  const auto response =
      service.Handle(Post("/v1/score", R"({"items":[)" + items + "]}"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().Find("n_items")->AsInt(), 3);
  const Json::Array& results = body.value().Find("results")->AsArray();
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].Find("score")->AsDouble(), expected[i]) << "item " << i;
  }
}

TEST(MultiItemScoreTest, ItemParseErrorsNameTheItem) {
  ScoringService service(SmallEngineOptions());
  const auto response = service.Handle(Post(
      "/v1/score",
      R"({"items":[)" + TokensBody(8, 1) + R"(, {"tokens":"oops"}]})"));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("items[1]"), std::string::npos) << response.body;
  // All-or-nothing: the valid sibling was never admitted.
  EXPECT_EQ(service.engine().stats().submitted, 0);
}

TEST(LifecycleRoutesTest, SubmitPollCompletesWithResults) {
  ScoringService service(SmallEngineOptions());
  const auto submitted = service.Handle(Req(
      "POST", "/v1/requests",
      TokensBody(16, 5, R"(, "options":{"request_id":"my-req"})")));
  ASSERT_EQ(submitted.status, 202) << submitted.body;
  auto body = Json::Parse(submitted.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().Find("id")->AsString(), "my-req");
  EXPECT_EQ(body.value().Find("status")->AsString(), "queued");

  const std::string done = PollUntil(service, "my-req", "done");
  auto done_body = Json::Parse(done);
  ASSERT_TRUE(done_body.ok()) << done;
  ASSERT_EQ(done_body.value().Find("status")->AsString(), "done");
  const Json::Array& results = done_body.value().Find("results")->AsArray();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].Find("score")->AsDouble(), 0.0);
  EXPECT_EQ(results[0].Find("n_input")->AsInt(), 16);
}

TEST(LifecycleRoutesTest, DuplicateClientRequestIdGets409) {
  ScoringService service(SmallEngineOptions());
  const std::string body =
      TokensBody(8, 6, R"(, "options":{"request_id":"dup"})");
  ASSERT_EQ(service.Handle(Req("POST", "/v1/requests", body)).status, 202);
  const int64_t after_first = service.engine().stats().submitted;
  const auto second = service.Handle(Req("POST", "/v1/requests", body));
  EXPECT_EQ(second.status, 409);
  EXPECT_NE(second.body.find("failed_precondition"), std::string::npos);
  // The duplicate (e.g. an idempotent client retry) must cost NOTHING:
  // the id check happens before engine admission, so no prefill is burned.
  EXPECT_EQ(service.engine().stats().submitted, after_first);
}

TEST(LifecycleRoutesTest, OptionsOutOfIntegerRangeGet400) {
  ScoringService service(SmallEngineOptions());
  // Values whose float-to-int cast would be out of range (UB) must 400 at
  // validation instead of reaching the cast.
  EXPECT_EQ(service
                .Handle(Req("POST", "/v1/requests",
                            TokensBody(8, 12, R"(, "options":{"deadline_ms":1e19})")))
                .status,
            400);
  EXPECT_EQ(service
                .Handle(Req("POST", "/v1/requests",
                            TokensBody(8, 12, R"(, "options":{"priority":3e9})")))
                .status,
            400);
  EXPECT_EQ(service.engine().stats().submitted, 0);
}

TEST(LifecycleRoutesTest, RejectsUnroutableOrReservedRequestIds) {
  ScoringService service(SmallEngineOptions());
  // '/' would make the id unreachable through /v1/requests/{id}; 'req-' is
  // the server generator's reserved prefix.
  for (const std::string bad : {"a/b", "req-1", ""}) {
    const auto response = service.Handle(Req(
        "POST", "/v1/requests",
        TokensBody(8, 10, R"(, "options":{"request_id":")" + bad + R"("})")));
    EXPECT_EQ(response.status, 400) << bad << ": " << response.body;
  }
  EXPECT_EQ(service.engine().stats().submitted, 0);
}

TEST(LifecycleRoutesTest, CancelWhileQueuedNeverExecutes) {
  ScoringService service(SmallEngineOptions());  // 1 executor lane
  // Occupy the single lane with a long request, deterministically: submit,
  // then wait until it reports running.
  const auto blocker = service.Handle(Req(
      "POST", "/v1/requests",
      TokensBody(512, 7, R"(, "options":{"request_id":"blocker"})")));
  ASSERT_EQ(blocker.status, 202) << blocker.body;
  ASSERT_NE(PollUntil(service, "blocker", "running").find("running"),
            std::string::npos);

  // The target sits queued behind the blocker; cancelling it must dequeue
  // it before it ever reaches a prefill.
  ASSERT_EQ(service
                .Handle(Req("POST", "/v1/requests",
                            TokensBody(16, 8, R"(, "options":{"request_id":"target"})")))
                .status,
            202);
  const auto cancelled = service.Handle(Req("DELETE", "/v1/requests/target"));
  ASSERT_EQ(cancelled.status, 200) << cancelled.body;
  EXPECT_EQ(Json::Parse(cancelled.body).value().Find("status")->AsString(),
            "cancelled");
  // A later poll agrees (cancellation is sticky).
  EXPECT_NE(PollUntil(service, "target", "cancelled").find("cancelled"),
            std::string::npos);

  // Let the blocker finish, then read the counters: exactly one request
  // completed (the blocker), the target counted as a queued cancellation.
  PollUntil(service, "blocker", "done");
  const auto stats = service.engine().stats();
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.failed, 0);
}

TEST(LifecycleRoutesTest, CancelAfterDoneIsIdempotent) {
  ScoringService service(SmallEngineOptions());
  ASSERT_EQ(service
                .Handle(Req("POST", "/v1/requests",
                            TokensBody(8, 9, R"(, "options":{"request_id":"fin"})")))
                .status,
            202);
  PollUntil(service, "fin", "done");
  for (int attempt = 0; attempt < 2; ++attempt) {
    const auto response = service.Handle(Req("DELETE", "/v1/requests/fin"));
    ASSERT_EQ(response.status, 200) << response.body;
    auto body = Json::Parse(response.body);
    ASSERT_TRUE(body.ok());
    // Cancelling a finished request does not rewrite history: it stays
    // done, results intact, on every repeat.
    EXPECT_EQ(body.value().Find("status")->AsString(), "done");
    EXPECT_EQ(body.value().Find("results")->AsArray().size(), 1u);
  }
}

TEST(LifecycleRoutesTest, CompletedResultTableEvictsOldest) {
  ScoringServiceOptions service_options;
  service_options.completed_requests_capacity = 2;
  ScoringService service(SmallEngineOptions(), service_options);
  for (const char* id : {"a", "b", "c"}) {
    ASSERT_EQ(service
                  .Handle(Req("POST", "/v1/requests",
                              TokensBody(8, id[0],
                                         R"(, "options":{"request_id":")" +
                                             std::string(id) + R"("})")))
                  .status,
              202);
    ASSERT_NE(PollUntil(service, id, "done").find("done"), std::string::npos);
  }
  // Capacity 2: the third completion evicted the first.
  EXPECT_EQ(service.Handle(Req("GET", "/v1/requests/a")).status, 404);
  EXPECT_EQ(service.Handle(Req("GET", "/v1/requests/b")).status, 200);
  EXPECT_EQ(service.Handle(Req("GET", "/v1/requests/c")).status, 200);
}

TEST(LifecycleRoutesTest, CompletedResultEvictionIsPriorityAware) {
  // Capacity 2, and the OLDEST completion carries the HIGHEST priority: a
  // FIFO ring would evict it; priority-aware eviction (ISSUE 6) must evict
  // the oldest LOW-priority entry instead, so a burst of low-priority
  // traffic cannot flush a high-priority client's result before it polls.
  ScoringServiceOptions service_options;
  service_options.completed_requests_capacity = 2;
  ScoringService service(SmallEngineOptions(), service_options);
  const std::pair<const char*, int> requests[] = {
      {"high", 5}, {"low1", 0}, {"low2", 0}};
  for (const auto& [id, priority] : requests) {
    ASSERT_EQ(service
                  .Handle(Req("POST", "/v1/requests",
                              TokensBody(8, id[0],
                                         R"(, "options":{"request_id":")" +
                                             std::string(id) +
                                             R"(","priority":)" +
                                             std::to_string(priority) + "}")))
                  .status,
              202);
    ASSERT_NE(PollUntil(service, id, "done").find("done"), std::string::npos);
  }
  EXPECT_EQ(service.Handle(Req("GET", "/v1/requests/high")).status, 200);
  EXPECT_EQ(service.Handle(Req("GET", "/v1/requests/low1")).status, 404);
  EXPECT_EQ(service.Handle(Req("GET", "/v1/requests/low2")).status, 200);
}

// ---------------------------------------------- Health probe (ISSUE 6)

TEST(HealthRouteTest, HealthyServiceAnswersOk) {
  ScoringService service(SmallEngineOptions());
  const auto response = service.Handle(Req("GET", "/v1/health"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().Find("status")->AsString(), "ok");
  // Wrong method follows the shared 405 + Allow convention.
  const auto post = service.Handle(Req("POST", "/v1/health"));
  EXPECT_EQ(post.status, 405);
  EXPECT_EQ(post.headers.at("Allow"), "GET");
}

TEST(HealthRouteTest, StatsExposeRobustnessCounters) {
  ScoringService service(SmallEngineOptions());
  const auto response = service.Handle(Req("GET", "/v1/stats"));
  ASSERT_EQ(response.status, 200);
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  for (const char* key :
       {"deadline_expired_in_flight", "abort_checks", "alloc_retries",
        "alloc_retry_successes", "shed", "watchdog_stalls", "faults_injected"}) {
    ASSERT_NE(body.value().Find(key), nullptr) << key;
    EXPECT_EQ(body.value().Find(key)->AsInt(), 0) << key;
  }
}

// ------------------------------------------- Keep-alive (ISSUE 5 satellite)

// Reads exactly one Content-Length-framed response from `fd`.
std::string ReadFramedResponse(int fd) {
  std::string raw;
  char buffer[2048];
  size_t header_end = std::string::npos;
  size_t content_length = 0;
  while (true) {
    if (header_end == std::string::npos) {
      header_end = raw.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        const size_t pos = raw.find("Content-Length: ");
        if (pos != std::string::npos && pos < header_end) {
          content_length = std::stoul(raw.substr(pos + 16));
        }
      }
    }
    if (header_end != std::string::npos &&
        raw.size() >= header_end + 4 + content_length) {
      return raw.substr(0, header_end + 4 + content_length);
    }
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n <= 0) {
      return raw;
    }
    raw.append(buffer, static_cast<size_t>(n));
  }
}

TEST(KeepAliveTest, PollingReusesOneConnection) {
  ScoringService service(SmallEngineOptions());
  ASSERT_TRUE(service.Start(0).ok());
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(service.port());
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  // Three requests on ONE socket: submit, then two polls.
  const std::string submit_body =
      TokensBody(8, 11, R"(, "options":{"request_id":"ka"})");
  const std::string submit =
      "POST /v1/requests HTTP/1.1\r\nHost: localhost\r\n"
      "Connection: keep-alive\r\nContent-Length: " +
      std::to_string(submit_body.size()) + "\r\n\r\n" + submit_body;
  ASSERT_EQ(::write(fd, submit.data(), submit.size()),
            static_cast<ssize_t>(submit.size()));
  const std::string first = ReadFramedResponse(fd);
  EXPECT_NE(first.find("HTTP/1.1 202"), std::string::npos) << first;
  EXPECT_NE(first.find("Connection: keep-alive"), std::string::npos) << first;

  const std::string poll =
      "GET /v1/requests/ka HTTP/1.1\r\nHost: localhost\r\n"
      "Connection: keep-alive\r\nContent-Length: 0\r\n\r\n";
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(::write(fd, poll.data(), poll.size()),
              static_cast<ssize_t>(poll.size()));
    const std::string response = ReadFramedResponse(fd);
    EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos) << response;
    EXPECT_NE(response.find("\"id\":\"ka\""), std::string::npos) << response;
  }
  ::close(fd);
  service.Stop();
}

TEST(KeepAliveTest, GarbageContentLengthGets400NotACrash) {
  // Regression: std::stoul on a non-numeric Content-Length threw through
  // the connection thread and std::terminate'd the whole server.
  ScoringService service(SmallEngineOptions());
  ASSERT_TRUE(service.Start(0).ok());
  for (const std::string bad : {"abc", "99999999999999999999", "-1", "12x"}) {
    const std::string response = HttpRoundTrip(
        service.port(), "POST /v1/score HTTP/1.1\r\nHost: localhost\r\n"
                        "Content-Length: " + bad + "\r\n\r\n{}");
    EXPECT_NE(response.find("HTTP/1.1 400"), std::string::npos)
        << "Content-Length: " << bad << " -> " << response;
  }
  // The server survived and still serves real requests.
  const std::string ok = HttpRoundTrip(
      service.port(), PostRequest("/v1/score", ScoreRequestBody(3)));
  EXPECT_NE(ok.find("HTTP/1.1 200 OK"), std::string::npos);
  service.Stop();
}

TEST(KeepAliveTest, WithoutTheHeaderConnectionsStayOneShot) {
  // Legacy close-delimited behavior is load-bearing: clients read to EOF.
  ScoringService service(SmallEngineOptions());
  ASSERT_TRUE(service.Start(0).ok());
  const std::string response = HttpRoundTrip(
      service.port(), PostRequest("/v1/score", ScoreRequestBody(1)));
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  service.Stop();
}

// ------------------------------- Replica administration (ISSUE 8)

ScoringServiceOptions TwoReplicaOptions() {
  ScoringServiceOptions options;
  options.cluster.n_replicas = 2;
  options.cluster.health_poll_ms = 0;  // no monitor racing assertions
  return options;
}

TEST(ReplicaAdminTest, ListReplicasShowsPerReplicaState) {
  ScoringService service(SmallEngineOptions(), TwoReplicaOptions());
  const auto response = service.Handle(Req("GET", "/v1/replicas"));
  ASSERT_EQ(response.status, 200) << response.body;
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().Find("n_replicas")->AsInt(), 2);
  const Json::Array& replicas = body.value().Find("replicas")->AsArray();
  ASSERT_EQ(replicas.size(), 2u);
  for (size_t i = 0; i < replicas.size(); ++i) {
    EXPECT_EQ(replicas[i].Find("index")->AsInt(), static_cast<int64_t>(i));
    EXPECT_EQ(replicas[i].Find("breaker")->AsString(), "closed");
    EXPECT_TRUE(replicas[i].Find("admitting")->AsBool());
    EXPECT_FALSE(replicas[i].Find("draining")->AsBool());
    EXPECT_EQ(replicas[i].Find("engine_health")->AsString(), "ok");
    EXPECT_EQ(replicas[i].Find("routed_affinity")->AsInt(), 0);
  }
  // Wrong method follows the shared 405 + Allow convention.
  const auto post = service.Handle(Req("POST", "/v1/replicas"));
  EXPECT_EQ(post.status, 405);
  EXPECT_EQ(post.headers.at("Allow"), "GET");
}

TEST(ReplicaAdminTest, DrainAndRejoinDriveClusterHealth) {
  ScoringService service(SmallEngineOptions(), TwoReplicaOptions());

  const auto drained = service.Handle(Req("POST", "/v1/replicas/0/drain"));
  ASSERT_EQ(drained.status, 200) << drained.body;
  auto body = Json::Parse(drained.body);
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(body.value().Find("action")->AsString(), "drain");
  EXPECT_TRUE(body.value().Find("replica")->Find("draining")->AsBool());
  EXPECT_FALSE(body.value().Find("replica")->Find("admitting")->AsBool());

  // One replica down: degraded but serving — /v1/health stays 200.
  auto health = service.Handle(Req("GET", "/v1/health"));
  ASSERT_EQ(health.status, 200) << health.body;
  auto health_body = Json::Parse(health.body);
  ASSERT_TRUE(health_body.ok());
  EXPECT_EQ(health_body.value().Find("status")->AsString(), "degraded");
  EXPECT_EQ(health_body.value().Find("admitting")->AsInt(), 1);
  EXPECT_EQ(health_body.value().Find("n_replicas")->AsInt(), 2);

  // Both replicas down: nothing admits — the 503 + Retry-After shape, and
  // a submission is refused with the structured unavailable error.
  ASSERT_EQ(service.Handle(Req("POST", "/v1/replicas/1/drain")).status, 200);
  health = service.Handle(Req("GET", "/v1/health"));
  EXPECT_EQ(health.status, 503);
  EXPECT_EQ(health.headers.at("Retry-After"), "1");
  health_body = Json::Parse(health.body);
  ASSERT_TRUE(health_body.ok());
  EXPECT_EQ(health_body.value().Find("admitting")->AsInt(), 0);
  const auto refused = service.Handle(
      Post("/v1/score", R"({"tokens":[1,2,3,4], "allowed_tokens":[10,20]})"));
  EXPECT_EQ(refused.status, 503);
  EXPECT_EQ(refused.headers.at("Retry-After"), "1");
  EXPECT_NE(refused.body.find("unavailable"), std::string::npos) << refused.body;

  // Rejoin both and the cluster is whole again.
  ASSERT_EQ(service.Handle(Req("POST", "/v1/replicas/0/rejoin")).status, 200);
  ASSERT_EQ(service.Handle(Req("POST", "/v1/replicas/1/rejoin")).status, 200);
  health = service.Handle(Req("GET", "/v1/health"));
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(Json::Parse(health.body).value().Find("status")->AsString(), "ok");
}

TEST(ReplicaAdminTest, MalformedAdminRoutesGetStructuredErrors) {
  ScoringService service(SmallEngineOptions(), TwoReplicaOptions());
  // Unknown action / non-numeric index: not a route at all.
  EXPECT_EQ(service.Handle(Req("POST", "/v1/replicas/0/explode")).status, 404);
  EXPECT_EQ(service.Handle(Req("POST", "/v1/replicas/zero/drain")).status, 404);
  // Known route, wrong method.
  const auto got = service.Handle(Req("GET", "/v1/replicas/0/drain"));
  EXPECT_EQ(got.status, 405);
  EXPECT_EQ(got.headers.at("Allow"), "POST");
  // Known route, index out of range: a 400 with the shared error shape.
  const auto out_of_range = service.Handle(Req("POST", "/v1/replicas/9/drain"));
  EXPECT_EQ(out_of_range.status, 400);
  EXPECT_NE(out_of_range.body.find("invalid_argument"), std::string::npos)
      << out_of_range.body;
}

TEST(ReplicaAdminTest, StatsAggregateAcrossReplicasWithBreakdowns) {
  ScoringService service(SmallEngineOptions(), TwoReplicaOptions());
  const auto scored = service.Handle(
      Post("/v1/score", R"({"tokens":[1,2,3,4,5,6,7,8], "allowed_tokens":[10,20]})"));
  ASSERT_EQ(scored.status, 200) << scored.body;

  const auto response = service.Handle(Req("GET", "/v1/stats"));
  ASSERT_EQ(response.status, 200);
  auto body = Json::Parse(response.body);
  ASSERT_TRUE(body.ok());
  // Legacy flat keys are now cluster totals; the request above is in them.
  EXPECT_EQ(body.value().Find("submitted")->AsInt(), 1);
  EXPECT_EQ(body.value().Find("completed")->AsInt(), 1);
  EXPECT_EQ(body.value().Find("n_replicas")->AsInt(), 2);
  // Router-level counters live under "cluster".
  const Json* cluster = body.value().Find("cluster");
  ASSERT_NE(cluster, nullptr);
  EXPECT_EQ(cluster->Find("routed_affinity")->AsInt(), 1);
  EXPECT_EQ(cluster->Find("failovers")->AsInt(), 0);
  EXPECT_EQ(cluster->Find("unavailable_rejections")->AsInt(), 0);
  // Per-replica breakdowns: exactly one replica took the request.
  const Json::Array& replicas = body.value().Find("replicas")->AsArray();
  ASSERT_EQ(replicas.size(), 2u);
  int64_t submitted = 0;
  for (const Json& replica : replicas) {
    submitted += replica.Find("submitted")->AsInt();
  }
  EXPECT_EQ(submitted, 1);
}

// Sorted keys of a JSON object.
std::vector<std::string> Keys(const Json& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.AsObject()) {
    keys.push_back(key);
  }
  return keys;
}

TEST(ReplicaAdminTest, StatsPayloadKeysArePinned) {
  ScoringService service(SmallEngineOptions(), TwoReplicaOptions());
  ASSERT_EQ(service.Handle(Post("/v1/score", R"({"tokens":[1,2,3,4,5,6,7,8],
                                                 "allowed_tokens":[10,20]})"))
                .status,
            200);
  const auto response = service.Handle(Req("GET", "/v1/stats"));
  ASSERT_EQ(response.status, 200);
  auto parsed = Json::Parse(response.body);
  ASSERT_TRUE(parsed.ok());
  const Json& body = parsed.value();

  // Fractional values; every other number is an integer counter and must
  // serialize as one.
  const std::vector<std::string> fractional = {"batch_occupancy", "cache_hit_rate",
                                               "miss_tokens_per_batch", "total_execute_s"};
  const std::vector<std::string> top = {
      "abort_checks", "alloc_retries", "alloc_retry_successes", "batch_occupancy",
      "batched_miss_tokens", "batched_requests", "batches_dispatched", "cache_bytes",
      "cache_evictions", "cache_failed_acquires", "cache_hit_rate", "cache_hit_tokens",
      "cache_insertions", "cache_lookup_tokens", "cache_lookups", "cancelled",
      "cancelled_in_flight", "cluster", "completed", "deadline_expired",
      "deadline_expired_in_flight", "failed", "faults_injected", "miss_tokens_per_batch",
      "n_replicas", "offload_bytes", "offload_demotions", "offload_evictions",
      "offload_hit_tokens", "offload_promotions", "offload_read_hits",
      "offload_read_misses", "packing_skips", "peak_activation_bytes", "peak_batch_size",
      "peak_in_flight", "prefix_waits", "replicas", "shed", "submitted",
      "total_execute_s", "watchdog_stalls"};
  EXPECT_EQ(Keys(body), top);
  for (const std::string& key : top) {
    const Json& value = *body.Find(key);
    if (key == "cluster") {
      EXPECT_TRUE(value.is_object());
    } else if (key == "replicas") {
      EXPECT_TRUE(value.is_array());
    } else {
      ASSERT_TRUE(value.is_number()) << key;
      if (std::find(fractional.begin(), fractional.end(), key) == fractional.end()) {
        EXPECT_EQ(value.Serialize(), std::to_string(value.AsInt())) << key;
      }
    }
  }
  EXPECT_EQ(body.Find("submitted")->AsInt(), 1);
  EXPECT_EQ(body.Find("peak_in_flight")->AsInt(), 1);
  EXPECT_GT(body.Find("total_execute_s")->AsDouble(), 0.0);

  const Json& cluster = *body.Find("cluster");
  EXPECT_EQ(Keys(cluster),
            (std::vector<std::string>{"breaker_trips", "failovers", "half_open_probes",
                                      "routed_affinity", "routed_spill",
                                      "unavailable_rejections"}));
  for (const auto& [key, value] : cluster.AsObject()) {
    EXPECT_TRUE(value.is_number()) << key;
  }

  const Json::Array& replicas = body.Find("replicas")->AsArray();
  ASSERT_EQ(replicas.size(), 2u);
  const std::vector<std::string> replica_keys = {
      "admit_failures", "admitting",     "breaker",          "breaker_trips",
      "cache_hit_rate", "cancelled",     "completed",        "drained",
      "draining",       "engine_health", "failed",           "failed_over_in",
      "failed_over_out", "half_open_probes", "index",        "outstanding",
      "routed_affinity", "routed_spill", "shed",             "submitted"};
  for (const Json& replica : replicas) {
    EXPECT_EQ(Keys(replica), replica_keys);
    for (const char* key : {"admitting", "drained", "draining"}) {
      EXPECT_TRUE(replica.Find(key)->is_bool()) << key;
    }
    for (const char* key : {"breaker", "engine_health"}) {
      EXPECT_TRUE(replica.Find(key)->is_string()) << key;
    }
  }
}

TEST(ReplicaAdminTest, InProcessClientStatsMatchStatsJson) {
  // Twin clusters, one behind the HTTP service and one behind an
  // in-process Client, score the same sequence; the in-process ClientStats
  // must carry exactly what the service's /v1/stats JSON does.
  ClientOptions client_options;
  client_options.model = "tiny";
  client_options.block_size = 16;
  client_options.n_replicas = 2;
  Client client(client_options);
  ScoringService service(SmallEngineOptions(), TwoReplicaOptions());
  for (int i = 0; i < 6; ++i) {
    // Two users, a shared 32-token profile each: later requests hit cache.
    std::vector<int32_t> tokens;
    std::string body = R"({"allowed_tokens":[10,20],"tokens":[)";
    for (int t = 0; t < 40; ++t) {
      const int32_t token = t < 32 ? 1 + (i % 2) * 50 + t : 100 + i * 8 + t;
      tokens.push_back(token);
      if (t > 0) {
        body += ',';
      }
      body += std::to_string(token);
    }
    body += "]}";
    ASSERT_TRUE(client.Score(tokens, {10, 20}).ok);
    ASSERT_EQ(service.Handle(Post("/v1/score", body)).status, 200);
  }
  const ClientStats stats = client.Stats();
  auto parsed = Json::Parse(service.Handle(Req("GET", "/v1/stats")).body);
  ASSERT_TRUE(parsed.ok());
  const Json& json = parsed.value();
  const auto integer = [&](const char* key) { return json.Find(key)->AsInt(); };
  EXPECT_EQ(stats.submitted, integer("submitted"));
  EXPECT_EQ(stats.completed, integer("completed"));
  EXPECT_EQ(stats.failed, integer("failed"));
  EXPECT_EQ(stats.cancelled, integer("cancelled"));
  EXPECT_EQ(stats.cancelled_in_flight, integer("cancelled_in_flight"));
  EXPECT_EQ(stats.deadline_expired, integer("deadline_expired"));
  EXPECT_EQ(stats.deadline_expired_in_flight, integer("deadline_expired_in_flight"));
  EXPECT_EQ(stats.shed, integer("shed"));
  EXPECT_EQ(stats.client_retries, 0);
  EXPECT_EQ(stats.batches_dispatched, integer("batches_dispatched"));
  EXPECT_EQ(stats.batched_requests, integer("batched_requests"));
  EXPECT_EQ(stats.cache_hit_rate, json.Find("cache_hit_rate")->AsDouble());
  EXPECT_EQ(static_cast<int64_t>(stats.cache_bytes), integer("cache_bytes"));
  EXPECT_EQ(static_cast<int64_t>(stats.peak_activation_bytes),
            integer("peak_activation_bytes"));
  // Not vacuous: the twins did real, cache-hitting work.
  EXPECT_EQ(stats.completed, 6);
  EXPECT_GT(stats.cache_hit_rate, 0.0);
}

}  // namespace
}  // namespace prefillonly
