#include "net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <ctime>

#include "common.h"

namespace e2e {

bool Connect(int port, Connection* conn, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = "socket() failed";
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    *error = std::string("connect failed: ") + std::strerror(errno);
    ::close(fd);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  conn->fd = fd;
  conn->inbuf.clear();
  conn->inflight.clear();
  return true;
}

void Close(Connection* conn) {
  if (conn->fd >= 0) ::close(conn->fd);
  conn->fd = -1;
  conn->inbuf.clear();
  conn->inflight.clear();
}

bool Send(Connection* conn, const std::string& line, Outstanding request) {
  std::string data = line;
  data.push_back('\n');
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(conn->fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      pollfd p{conn->fd, POLLOUT, 0};
      ::poll(&p, 1, 1000);
      continue;
    }
    return false;
  }
  conn->inflight.push_back(request);
  return true;
}

namespace {

// Drains the socket; dispatches complete lines. False on EOF or error.
bool ReadAvailable(int index, Connection* conn, std::uint64_t now,
                   const LineHandler& handler) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      conn->inbuf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    return false;
  }
  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = conn->inbuf.find('\n', start);
    if (nl == std::string::npos) break;
    if (conn->inflight.empty()) return false;
    const Outstanding request = conn->inflight.front();
    conn->inflight.pop_front();
    handler(index, request,
            std::string_view(conn->inbuf.data() + start, nl - start), now);
    start = nl + 1;
  }
  conn->inbuf.erase(0, start);
  return true;
}

}  // namespace

bool PollOnce(std::vector<Connection>* conns, std::uint64_t until_ns,
              const LineHandler& handler) {
  std::vector<pollfd> fds;
  fds.reserve(conns->size());
  for (const Connection& c : *conns) fds.push_back({c.fd, POLLIN, 0});
  const std::uint64_t now = NowNs();
  const std::uint64_t wait = until_ns > now ? until_ns - now : 0;
  timespec ts{static_cast<time_t>(wait / 1000000000ull),
              static_cast<long>(wait % 1000000000ull)};
  const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
  if (ready < 0) return errno == EINTR;
  if (ready == 0) return true;
  const std::uint64_t recv_ns = NowNs();
  for (std::size_t i = 0; i < fds.size(); ++i) {
    if (fds[i].revents == 0) continue;
    if (!ReadAvailable(static_cast<int>(i), &(*conns)[i], recv_ns, handler)) {
      return false;
    }
  }
  return true;
}

bool Call(Connection* conn, const std::string& line, std::string* response,
          double timeout_s) {
  if (!conn->inflight.empty() || !Send(conn, line, Outstanding{})) {
    return false;
  }
  std::vector<Connection> one;
  one.push_back(std::move(*conn));
  bool got = false;
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(timeout_s * 1e9);
  bool ok = true;
  while (!got && NowNs() < deadline) {
    ok = PollOnce(&one, deadline,
                  [&](int, const Outstanding&, std::string_view l,
                      std::uint64_t) {
                    response->assign(l);
                    got = true;
                  });
    if (!ok) break;
  }
  *conn = std::move(one[0]);
  return ok && got;
}

}  // namespace e2e
