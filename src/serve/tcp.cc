#include "serve/tcp.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

namespace urank {
namespace serve {

namespace {

// Writes all of `data` (handling short writes); false on error.
bool WriteAll(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Longest request line a connection accepts: above any inline admin/load a
// test or tool sends (larger relations load by path). A client that
// exceeds it gets one invalid-request response naming the limit, and the
// connection is closed.
constexpr std::size_t kMaxLineBytes = std::size_t{64} << 20;

// Half-closes `fd` and discards what the peer is still sending (for at
// most two seconds), so closing with unread input does not reset the
// connection and destroy the response just written.
void DrainBeforeClose(int fd) {
  ::shutdown(fd, SHUT_WR);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  char sink[4096];
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t n = ::recv(fd, sink, sizeof(sink), 0);
    if (n == 0 || (n < 0 && errno != EINTR)) return;
  }
}

}  // namespace

TcpServer::TcpServer(Server* server) : server_(server) {}

TcpServer::~TcpServer() { Shutdown(); }

bool TcpServer::Start(int port, std::string* error) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0) {
    if (error != nullptr) *error = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void TcpServer::Shutdown() {
  // Idempotent: after the first call the joinable() checks and the swapped-
  // out connection lists make every step below a no-op.
  stop_.store(true);
  if (accept_thread_.joinable()) {
    // Closing the listen socket wakes the poll in AcceptLoop.
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    accept_thread_.join();
  }
  std::vector<std::thread> threads;
  {
    // Shut down under the lock: a connection drops its fd from conn_fds_
    // under the same lock before closing it, so every fd here is still
    // open (never a recycled number).
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conn_fds_.clear();
    threads.swap(conn_threads_);
    finished_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
}

void TcpServer::AcceptLoop() {
  while (!stop_.load()) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, 100);
    if (stop_.load()) return;
    if (ready <= 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listen socket closed
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::vector<std::thread> reaped;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      // Reap the connection threads that have finished since the last
      // accept, so a connect/disconnect loop holds a bounded thread set.
      for (const std::thread::id id : finished_) {
        const auto it = std::find_if(
            conn_threads_.begin(), conn_threads_.end(),
            [id](const std::thread& t) { return t.get_id() == id; });
        reaped.push_back(std::move(*it));
        conn_threads_.erase(it);
      }
      finished_.clear();
      conn_fds_.push_back(fd);
      conn_threads_.emplace_back([this, fd] { ConnectionLoop(fd); });
    }
    for (std::thread& t : reaped) t.join();
  }
}

void TcpServer::ConnectionLoop(int fd) {
  std::string buffer;
  std::size_t scanned = 0;  // buffer[0, scanned) holds no newline
  char chunk[4096];
  bool open = true;
  for (;;) {
    // Serve every complete line already buffered, resuming the newline
    // search where the last one stopped (a long line is scanned once). An
    // oversized line stops the loop and stays at the buffer's front.
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = buffer.find('\n', std::max(start, scanned));
      if (nl == std::string::npos || nl - start > kMaxLineBytes) break;
      std::string line = buffer.substr(start, nl - start);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      start = nl + 1;
      if (line.empty()) continue;  // blank keep-alive lines are ignored
      std::string response = server_->HandleLine(line);
      response.push_back('\n');
      if (!WriteAll(fd, response)) {
        open = false;
        break;
      }
    }
    if (!open) break;
    buffer.erase(0, start);
    scanned = buffer.size();
    if (buffer.size() > kMaxLineBytes) {
      WriteAll(fd, RenderErrorResponse(
                       JsonValue(), QueryStatusCode::kInvalidRequest,
                       "request line exceeds the " +
                           std::to_string(kMaxLineBytes >> 20) +
                           " MiB limit; connection closed") +
                       "\n");
      DrainBeforeClose(fd);
      break;
    }

    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // peer closed (or Shutdown shut the socket down)
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    // Absent once Shutdown has taken the list over.
    const auto it = std::find(conn_fds_.begin(), conn_fds_.end(), fd);
    if (it != conn_fds_.end()) conn_fds_.erase(it);
    finished_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

}  // namespace serve
}  // namespace urank
