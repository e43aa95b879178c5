// The paper's deployment shape (§3.1): an HTTP frontend over the engine.
//
// Starts the scoring service on loopback, exercises the v1 API through a
// real socket — a blocking score (the second hits the prefix cache), a
// multi-item score, and the async lifecycle (submit, poll, cancel) — then
// shuts down. Run it with no arguments; pass a port via PO_PORT to poke it
// with curl while it serves (PO_SERVE_SECONDS, default 30), and a replica
// count via PO_REPLICAS (default 1) to serve from a fault-tolerant
// multi-replica set — then /v1/replicas and the drain/rejoin admin routes
// become interesting:
//
//   PO_PORT=8080 ./build/example_scoring_server &
//   curl -s localhost:8080/v1/score -d '{"allowed":["yes","no"],
//     "text":"user profile: likes systems papers. article: cache design. yes or no?"}'
//   curl -s localhost:8080/v1/requests -d '{"tokens":[1,2,3],"allowed_tokens":[7,9]}'
//   curl -s localhost:8080/v1/requests/req-1
//   curl -s localhost:8080/v1/replicas
//   curl -s -X POST localhost:8080/v1/replicas/0/drain
//
// Full route reference: docs/API.md.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/server/scoring_service.h"

namespace {

std::string RoundTrip(uint16_t port, const std::string& method,
                      const std::string& path, const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return "(connect failed)";
  }
  const std::string request = method + " " + path +
                              " HTTP/1.1\r\nHost: localhost\r\n"
                              "Content-Length: " +
                              std::to_string(body.size()) + "\r\n\r\n" + body;
  (void)!::write(fd, request.data(), request.size());
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? response : response.substr(split + 4);
}

}  // namespace

int main() {
  using namespace prefillonly;

  EngineOptions options;
  options.model = ModelConfig::Small();
  options.block_size = 8;  // text prompts are short; small blocks still share
  options.max_batch_size = 4;  // multi-item calls co-batch
  ScoringServiceOptions service_options;
  if (const char* env = std::getenv("PO_REPLICAS"); env != nullptr) {
    if (const int n = std::atoi(env); n >= 1) {
      service_options.cluster.n_replicas = n;
    }
  }
  ScoringService service(std::move(options), service_options);
  if (service_options.cluster.n_replicas > 1) {
    std::printf("serving from %d replicas (prefix-affinity routed)\n",
                service_options.cluster.n_replicas);
  }

  uint16_t port = 0;
  if (const char* env = std::getenv("PO_PORT"); env != nullptr) {
    port = static_cast<uint16_t>(std::atoi(env));
  }
  if (auto status = service.Start(port); !status.ok()) {
    std::printf("failed to start: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("scoring service on http://127.0.0.1:%u\n\n", service.port());

  const std::string profile =
      "user profile : reads long systems papers , bakes sourdough , rides "
      "gravel routes and collects synthesizers . history : twelve articles "
      "on schedulers and caches . ";
  const std::string q1 = R"({"text":")" + profile +
                         R"(article : gpu memory management", "allowed":["yes","no"]})";
  const std::string q2 = R"({"text":")" + profile +
                         R"(article : celebrity gossip weekly", "allowed":["yes","no"]})";

  std::printf("score 1 -> %s\n", RoundTrip(service.port(), "POST", "/v1/score", q1).c_str());
  std::printf("score 2 -> %s\n", RoundTrip(service.port(), "POST", "/v1/score", q2).c_str());
  std::printf("(score 2's n_cached shows the shared profile prefix being "
              "reused across HTTP requests.)\n\n");

  // Multi-item scoring: one call, per-item results in input order, the
  // items co-scheduled into shared prefill batches.
  const std::string multi =
      R"({"items":[)"
      R"({"text":")" + profile + R"(article : raft consensus", "allowed":["yes","no"]},)"
      R"({"text":")" + profile + R"(article : sourdough hydration", "allowed":["yes","no"]},)"
      R"({"text":")" + profile + R"(article : bikepacking bags", "allowed":["yes","no"]}],)"
      R"("options":{"priority":1}})";
  std::printf("multi-item -> %s\n\n",
              RoundTrip(service.port(), "POST", "/v1/score", multi).c_str());

  // Async lifecycle: submit, poll, cancel.
  const std::string submitted = RoundTrip(
      service.port(), "POST", "/v1/requests",
      R"({"text":")" + profile + R"(article : lsm compaction", "allowed":["yes","no"],)"
      R"( "options":{"request_id":"demo-1"}})");
  std::printf("submit -> %s\n", submitted.c_str());
  std::printf("poll   -> %s\n",
              RoundTrip(service.port(), "GET", "/v1/requests/demo-1", "").c_str());
  std::printf("cancel -> %s\n",
              RoundTrip(service.port(), "DELETE", "/v1/requests/demo-1", "").c_str());

  if (std::getenv("PO_PORT") != nullptr) {
    int serve_seconds = 30;
    if (const char* env = std::getenv("PO_SERVE_SECONDS"); env != nullptr) {
      serve_seconds = std::atoi(env);
    }
    std::printf("\nserving for %ds; try curl now...\n", serve_seconds);
    std::fflush(stdout);
    ::sleep(static_cast<unsigned>(serve_seconds));
  }
  service.Stop();
  return 0;
}
