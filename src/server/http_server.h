// Minimal HTTP/1.1 server for the scoring frontend.
//
// The paper's PrefillOnly "opens an HTTP server compatible with the OpenAI
// API protocol for the user to send their prefill-only requests" (§3.1).
// This is that frontend in miniature: a blocking accept loop on its own
// thread, request-line + header + Content-Length body parsing, and a
// handler callback per request. Each accepted connection is served on its
// own thread (ISSUE 2) so slow or concurrent clients never serialize behind
// one in-flight prefill — connection threads enqueue into the engine's
// concurrent runtime and block on the response future, not on each other.
// The handler must therefore be thread-safe. Finished connection threads
// are reaped opportunistically on the accept path and joined on Stop().
//
// Persistent connections (ISSUE 5): a client that sends
// `Connection: keep-alive` gets a Content-Length-framed response on the
// SAME socket and may pipeline its next request there — polling clients
// (GET /v1/requests/{id}) stop paying a TCP connect per poll. Without that
// header the connection stays one-shot and close-delimited, exactly as
// before, so legacy read-until-EOF clients keep working.
//
// Bounds: a header section longer than kMaxHeaderBytes is answered 431 and
// the connection closed; a body beyond 64 MiB is a 400. The accept loop
// survives every accept() error except a closed listener, pausing briefly
// when the process is out of fds or memory (the `net.accept` fault site).
#ifndef SRC_SERVER_HTTP_SERVER_H_
#define SRC_SERVER_HTTP_SERVER_H_

#include <atomic>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "src/common/status.h"

namespace prefillonly {

struct HttpRequest {
  std::string method;
  std::string path;
  std::map<std::string, std::string> headers;  // lower-cased keys
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  // Extra response headers (e.g. Allow on 405, Retry-After on 429).
  // Content-Type, Content-Length and Connection are emitted by the server.
  std::map<std::string, std::string> headers;
  std::string body;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  // Longest header section served, its closing blank line included.
  static constexpr size_t kMaxHeaderBytes = 16u << 10;

  explicit HttpServer(Handler handler) : handler_(std::move(handler)) {}
  ~HttpServer() { Stop(); }

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept thread.
  Status Start(uint16_t port);
  void Stop();

  // The bound port (valid after Start succeeds).
  uint16_t port() const { return port_; }
  bool running() const { return running_.load(); }

  // Parses one HTTP request out of `raw` (exposed for unit tests).
  static Result<HttpRequest> ParseRequest(const std::string& raw);

 private:
  // One serving thread per accepted socket; `done` flags the thread as
  // joinable-without-blocking for the accept loop's reap sweep. The serving
  // thread shuts the socket down when finished (the client's EOF) but never
  // closes it — the fd is closed only after the thread is joined (reap or
  // Stop), so Stop() can safely shutdown() a live fd to unblock a stuck
  // read without ever racing a close/fd-reuse.
  struct Connection {
    std::thread thread;
    int fd = -1;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(int fd);
  void ReapFinishedLocked();

  Handler handler_;
  // Atomic: Stop() invalidates it from another thread while the accept loop
  // reads it.
  std::atomic<int> listen_fd_{-1};
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;

  std::mutex conn_mu_;
  std::list<std::unique_ptr<Connection>> connections_;
  // Serializes Stop(): a second concurrent stopper must not return before
  // the first has joined the accept and connection threads.
  std::mutex stop_mu_;
};

}  // namespace prefillonly

#endif  // SRC_SERVER_HTTP_SERVER_H_
