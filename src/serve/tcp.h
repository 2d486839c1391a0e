// Loopback TCP transport for urankd.
//
// TcpServer accepts connections on 127.0.0.1 and runs one thread per
// connection, each reading newline-delimited request lines and writing
// back the Server's newline-delimited responses. The transport is a thin
// shell: every protocol decision — parsing, admission, shedding,
// deadlines — lives in serve/server.h, which is exactly what lets the
// --stdin mode and the tests exercise the same code path without a
// socket.
//
// Binding is loopback-only by design: urankd has no authentication, so
// it must not listen on external interfaces. Port 0 requests an
// ephemeral port; port() reports what the kernel assigned (the test and
// benchmark harnesses depend on this).
//
// Each request line is capped at 64 MiB; a longer line is answered once
// with invalid-request naming the limit and its connection is closed.
// Finished connection threads are joined at the next accept, so a
// connect/disconnect loop keeps a bounded thread set.
//
// Shutdown(): stops accepting, shuts down every open connection and
// joins all transport threads. It does NOT drain the Server — callers
// sequence transport shutdown and Server::Drain explicitly (urankd does
// transport first, so no new work arrives while in-flight jobs finish).

#ifndef URANK_SERVE_TCP_H_
#define URANK_SERVE_TCP_H_

#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.h"

namespace urank {
namespace serve {

class TcpServer {
 public:
  // Serves `server` (not owned; must outlive this transport).
  explicit TcpServer(Server* server);
  ~TcpServer();

  TcpServer(const TcpServer&) = delete;
  TcpServer& operator=(const TcpServer&) = delete;

  // Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept loop.
  // Returns false with a description in `*error` on bind/listen failure.
  bool Start(int port, std::string* error);

  // The bound port; 0 before a successful Start.
  int port() const { return port_; }

  // Stops accepting, closes every connection, joins all threads.
  // Idempotent.
  void Shutdown();

 private:
  void AcceptLoop();
  void ConnectionLoop(int fd);

  Server* const server_;
  std::atomic<bool> stop_{false};
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread accept_thread_;

  std::mutex conn_mu_;
  // Open connection fds; a connection removes its own before closing it.
  std::vector<int> conn_fds_;
  std::vector<std::thread> conn_threads_;
  // Connection threads that have returned, joined at the next accept.
  std::vector<std::thread::id> finished_;
};

}  // namespace serve
}  // namespace urank

#endif  // URANK_SERVE_TCP_H_
