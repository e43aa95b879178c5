#include "src/server/http_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>
#include <string_view>
#include <thread>

#include "src/common/fault.h"
#include "src/common/logging.h"

namespace prefillonly {

namespace {

std::string ToLower(std::string s) {
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return s;
}

std::string StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 202:
      return "Accepted";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

// EINTR-safe read: a signal interrupting the syscall is NOT end-of-stream
// (the pre-ISSUE-6 loop treated any n <= 0 as EOF and silently dropped the
// connection mid-request). The socket.recv fault site simulates exactly
// that interrupted attempt.
ssize_t RecvSome(int fd, char* buffer, size_t size) {
  while (true) {
    if (FaultInjector::Global().Fire(fault::kSocketRecv)) {
      continue;  // as if read() returned -1/EINTR
    }
    const ssize_t n = ::read(fd, buffer, size);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    return n;
  }
}

// Writes the whole buffer: retries interrupted attempts, continues after
// short writes. False once the peer is gone (EPIPE/reset) or on any hard
// error. Fault sites: socket.send simulates an EINTR'd attempt;
// socket.short_write clamps one attempt to a single byte so the
// continuation path runs with real data (the response stays intact).
bool SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    if (FaultInjector::Global().Fire(fault::kSocketSend)) {
      continue;  // as if send() returned -1/EINTR
    }
    size_t len = size - sent;
    if (len > 1 && FaultInjector::Global().Fire(fault::kSocketShortWrite)) {
      len = 1;
    }
    // MSG_NOSIGNAL: a client (or Stop()) tearing the socket down must yield
    // EPIPE here, not a process-killing SIGPIPE.
    const ssize_t n = ::send(fd, data + sent, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

// accept() errors after which the listener itself is unusable: Stop()
// closed it, or it never listened. Every other error concerns one pending
// connection (a client that reset first, a signal) or a momentary shortage.
bool ListenerGone(int err) { return err == EBADF || err == EINVAL || err == ENOTSOCK; }

// Shortages that only finishing connections relieve: the loop pauses
// before retrying instead of spinning on accept().
bool OutOfResources(int err) {
  return err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM;
}

constexpr auto kAcceptBackoff = std::chrono::milliseconds(10);

constexpr std::string_view kHeaderEnd = "\r\n\r\n";

}  // namespace

Result<HttpRequest> HttpServer::ParseRequest(const std::string& raw) {
  const size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::InvalidArgument("incomplete HTTP header");
  }
  HttpRequest request;
  size_t line_start = 0;
  size_t line_end = raw.find("\r\n");
  {
    const std::string line = raw.substr(0, line_end);
    const size_t sp1 = line.find(' ');
    const size_t sp2 = line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      return Status::InvalidArgument("malformed request line");
    }
    request.method = line.substr(0, sp1);
    request.path = line.substr(sp1 + 1, sp2 - sp1 - 1);
  }
  line_start = line_end + 2;
  while (line_start < header_end) {
    line_end = raw.find("\r\n", line_start);
    const std::string line = raw.substr(line_start, line_end - line_start);
    const size_t colon = line.find(':');
    if (colon != std::string::npos) {
      std::string key = ToLower(line.substr(0, colon));
      size_t value_start = colon + 1;
      while (value_start < line.size() && line[value_start] == ' ') {
        ++value_start;
      }
      request.headers[key] = line.substr(value_start);
    }
    line_start = line_end + 2;
  }
  request.body = raw.substr(header_end + 4);
  return request;
}

Status HttpServer::Start(uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal("socket() failed");
  }
  const int enable = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &enable, sizeof(enable));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("bind() failed");
  }
  if (::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("listen() failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  PO_LOG_INFO << "HTTP server listening on 127.0.0.1:" << port_;
  return Status::Ok();
}

void HttpServer::Stop() {
  // Hold stop_mu_ for the whole teardown so a racing second caller blocks
  // until every server thread is joined, then sees running_ == false.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (!running_.exchange(false)) {
    return;
  }
  // Shutting the listener down unblocks accept().
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  listen_fd_ = -1;
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  // The accept thread is gone, so no new connections can appear. Unblock
  // any connection thread stuck in read() on an idle client, then drain.
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto& connection : connections_) {
    ::shutdown(connection->fd, SHUT_RDWR);
  }
  for (auto& connection : connections_) {
    if (connection->thread.joinable()) {
      connection->thread.join();
    }
    ::close(connection->fd);
  }
  connections_.clear();
}

void HttpServer::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      ::close((*it)->fd);
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void HttpServer::AcceptLoop() {
  bool warned = false;  // one warning per streak of failed accepts
  while (running_.load()) {
    int fd = -1;
    int err = EMFILE;
    if (!FaultInjector::Global().Fire(fault::kNetAccept)) {
      fd = ::accept(listen_fd_, nullptr, nullptr);
      err = errno;
    }
    if (fd < 0) {
      if (!running_.load() || ListenerGone(err)) {
        break;
      }
      if (!warned) {
        PO_LOG_WARNING << "accept() failed, retrying: " << std::strerror(err);
        warned = true;
      }
      if (OutOfResources(err)) {
        {
          std::lock_guard<std::mutex> lock(conn_mu_);
          ReapFinishedLocked();
        }
        std::this_thread::sleep_for(kAcceptBackoff);
      }
      continue;
    }
    warned = false;
    // One thread per connection: parsing, handling and writing happen off
    // the accept path, so concurrent clients overlap inside the engine.
    auto connection = std::make_unique<Connection>();
    Connection* raw = connection.get();
    raw->fd = fd;
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapFinishedLocked();
    connections_.push_back(std::move(connection));
    raw->thread = std::thread([this, fd, raw] {
      ServeConnection(fd);
      // FIN to the client (close-delimited responses); the fd itself is
      // closed after join so Stop() can never shutdown() a reused fd.
      ::shutdown(fd, SHUT_RDWR);
      raw->done.store(true, std::memory_order_release);
    });
  }
}

// Strict, non-throwing Content-Length parse. nullopt on anything that is
// not a plain decimal number within `max` — std::stoul here would THROW on
// garbage and take the whole process down with std::terminate.
std::optional<size_t> ParseContentLength(const std::string& value, size_t max) {
  if (value.empty() || value.size() > 19) {
    return std::nullopt;
  }
  size_t parsed = 0;
  for (char c : value) {
    if (c < '0' || c > '9') {
      return std::nullopt;
    }
    parsed = parsed * 10 + static_cast<size_t>(c - '0');
  }
  if (parsed > max) {
    return std::nullopt;
  }
  return parsed;
}

void HttpServer::ServeConnection(int fd) {
  // Bounds the buffered request body; a declared length beyond it is a 400,
  // not an allocation.
  constexpr size_t kMaxBodyBytes = 64u << 20;
  std::string raw;
  char buffer[4096];
  // Serve request after request on this socket for as long as the client
  // asks for keep-alive (ISSUE 5); every response is Content-Length-framed
  // so the client can find the next response boundary without an EOF.
  while (true) {
    // Frame exactly one request: headers, then the declared body length.
    // Each read is searched for the header's end from where the previous
    // read ended, less the 3 bytes a split "\r\n\r\n" can leave behind.
    size_t content_length = 0;
    size_t header_end = raw.find(kHeaderEnd);
    bool header_parsed = false;
    bool eof = false;
    bool framing_error = false;
    bool header_too_large = false;
    while (true) {
      header_too_large = header_end == std::string::npos
                             ? raw.size() >= kMaxHeaderBytes
                             : header_end + kHeaderEnd.size() > kMaxHeaderBytes;
      if (header_too_large) {
        break;
      }
      if (header_end != std::string::npos && !header_parsed) {
        header_parsed = true;
        auto parsed = ParseRequest(raw.substr(0, header_end + kHeaderEnd.size()));
        if (parsed.ok()) {
          auto it = parsed.value().headers.find("content-length");
          if (it != parsed.value().headers.end()) {
            if (auto length = ParseContentLength(it->second, kMaxBodyBytes)) {
              content_length = *length;
            } else {
              framing_error = true;
              break;
            }
          }
        }
      }
      if (header_end != std::string::npos &&
          raw.size() >= header_end + kHeaderEnd.size() + content_length) {
        break;
      }
      const size_t scanned = raw.size();
      const ssize_t n = RecvSome(fd, buffer, sizeof(buffer));
      if (n <= 0) {
        eof = true;
        break;
      }
      raw.append(buffer, static_cast<size_t>(n));
      if (header_end == std::string::npos) {
        header_end = raw.find(kHeaderEnd, scanned < 3 ? 0 : scanned - 3);
      }
    }
    if (eof) {
      if (raw.empty() || header_end == std::string::npos) {
        // Clean shutdown between requests (or nothing ever arrived).
        return;
      }
      // Truncated request: fall through and let parsing produce the 400.
    }
    const size_t frame = header_end == std::string::npos
                             ? raw.size()
                             : std::min(raw.size(), header_end + 4 + content_length);
    const std::string one = raw.substr(0, frame);
    raw.erase(0, frame);

    HttpResponse response;
    bool keep_alive = false;
    auto request = ParseRequest(one);
    if (header_too_large) {
      // Nothing past the cap was read, so the request cannot be framed:
      // answer and close.
      response.status = 431;
      response.body =
          R"({"error":{"code":"invalid_argument","type":"invalid_request_error","message":"request header section exceeds )" +
          std::to_string(kMaxHeaderBytes) + R"( bytes"}})";
    } else if (framing_error) {
      // The body boundary is unknowable — answer 400 and drop the
      // connection (no keep-alive) since resynchronization is impossible.
      response.status = 400;
      response.body =
          R"({"error":{"code":"invalid_argument","type":"invalid_request_error","message":"invalid Content-Length"}})";
    } else if (!request.ok()) {
      response.status = 400;
      response.body =
          R"({"error":{"code":"invalid_argument","type":"invalid_request_error","message":"malformed request"}})";
    } else {
      // Opt-in persistence only: legacy clients read until EOF, so the
      // close-delimited default must survive.
      auto it = request.value().headers.find("connection");
      keep_alive = it != request.value().headers.end() &&
                   ToLower(it->second) == "keep-alive" && !eof;
      response = handler_(request.value());
    }

    std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                      StatusText(response.status) + "\r\n";
    out += "Content-Type: " + response.content_type + "\r\n";
    out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
    for (const auto& [key, value] : response.headers) {
      out += key + ": " + value + "\r\n";
    }
    out += keep_alive ? "Connection: keep-alive\r\n\r\n" : "Connection: close\r\n\r\n";
    out += response.body;
    if (!SendAll(fd, out.data(), out.size())) {
      return;
    }
    if (!keep_alive) {
      return;
    }
  }
}

}  // namespace prefillonly
