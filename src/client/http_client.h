// Blocking HTTP/1.1 client with keep-alive (ISSUE 10).
//
// The transport behind the facade's remote mode (ClientOptions::endpoint)
// and po_bench's HTTP load: one TCP connection to one host:port,
// reused across requests exactly the way the in-repo HttpServer persists
// them — every request carries `Connection: keep-alive`, every response is
// Content-Length-framed, so request after request rides the same socket
// and a polling or load-generating client never pays a connect per call.
//
// Scope is deliberately the mirror image of src/server/http_server.h: no
// TLS, no chunked transfer, no redirects — the v1 API emits none of those.
// What it does handle it handles carefully:
//
//   * RECONNECT-ON-STALE: a keep-alive peer may close the socket between
//     requests (server restart, idle reap). If the failure happens before
//     any response byte arrived, the request provably never executed, so
//     the client transparently reconnects and resends ONCE. A failure
//     mid-response is NOT retried — the request may have executed, and
//     at-most-once delivery is the cluster's contract (docs/CLUSTER.md).
//   * EINTR/short-write safety on both directions, same as the server.
//   * Transport failures surface as Status codes, not sentinel bodies:
//     kUnavailable for connect/send/recv failures (the retryable class the
//     facade's RetryPolicy already understands), kInternal for responses
//     that violate HTTP framing.
//
// One HttpClient = one connection = one thread at a time. Concurrent
// callers hold one HttpClient each (see the facade's connection pool in
// src/client/client.cc).
#ifndef SRC_CLIENT_HTTP_CLIENT_H_
#define SRC_CLIENT_HTTP_CLIENT_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/common/status.h"

namespace prefillonly {

struct HttpClientOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  // Socket-level send/receive timeout. A server that goes silent for this
  // long mid-exchange fails the request with kUnavailable; 0 = no timeout.
  int64_t io_timeout_ms = 30000;
};

// "host:port" (or ":port" / "port", defaulting the host to loopback).
Result<HttpClientOptions> ParseEndpoint(const std::string& endpoint);

struct HttpClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  // lower-cased keys
  std::string body;
};

class HttpClient {
 public:
  explicit HttpClient(HttpClientOptions options) : options_(std::move(options)) {}
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  // Sends one request and reads one framed response on the persistent
  // connection (connecting on first use, reconnecting once if the pooled
  // connection turned out stale). Content-Length and Connection: keep-alive
  // are added by the client; `headers` may add more.
  Result<HttpClientResponse> Request(
      const std::string& method, const std::string& path, const std::string& body,
      const std::map<std::string, std::string>& headers = {});

  Result<HttpClientResponse> Get(const std::string& path) {
    return Request("GET", path, "");
  }
  Result<HttpClientResponse> Post(const std::string& path, const std::string& body) {
    return Request("POST", path, body);
  }

  const HttpClientOptions& options() const { return options_; }
  bool connected() const { return fd_ >= 0; }
  // Connections established beyond the first (stale keep-alive sockets
  // replaced). Zero after N requests == the keep-alive path actually held.
  int64_t reconnects() const { return reconnects_; }

 private:
  Status Connect();
  void Disconnect();
  // One request/response exchange on the current connection.
  // `got_response_bytes` reports whether any response data arrived before a
  // failure — the resend-safety predicate.
  Result<HttpClientResponse> RoundTrip(const std::string& raw,
                                       bool& got_response_bytes);

  HttpClientOptions options_;
  int fd_ = -1;
  int64_t connects_ = 0;
  int64_t reconnects_ = 0;
  // Unparsed bytes read past the previous response's frame (a pipelining
  // server could legally send ahead; keeping them preserves framing).
  std::string residue_;
};

}  // namespace prefillonly

#endif  // SRC_CLIENT_HTTP_CLIENT_H_
