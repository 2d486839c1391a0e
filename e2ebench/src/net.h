// Loopback TCP side of the benchmark client: one non-blocking socket per
// connection and a single poll loop over all of them, so open-loop sends
// stay on schedule without one thread per connection. The daemon answers
// each connection's lines in order, so responses pair with the FIFO of
// outstanding requests.
#ifndef E2EBENCH_NET_H_
#define E2EBENCH_NET_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

// One request on the wire, awaiting its response.
struct Outstanding {
  std::uint64_t due_ns = 0;   // when the schedule wanted it sent
  std::uint64_t sent_ns = 0;  // when it was written to the socket
  int tag = 0;                // caller-defined (record index)
};

struct Connection {
  int fd = -1;
  std::string inbuf;
  std::deque<Outstanding> inflight;
};

// Called once per response line: connection index, the request it answers,
// the line (no newline) and the time the read returned it.
using LineHandler = std::function<void(int, const Outstanding&,
                                       std::string_view, std::uint64_t)>;

bool Connect(int port, Connection* conn, std::string* error);
void Close(Connection* conn);

// Writes `line` plus a newline and queues `request` as outstanding.
bool Send(Connection* conn, const std::string& line, Outstanding request);

// Waits until a response arrives or `until_ns` passes, handling every
// complete line read. False on a transport error (peer closed, recv
// failed, or a response with no outstanding request).
bool PollOnce(std::vector<Connection>* conns, std::uint64_t until_ns,
              const LineHandler& handler);

// Blocking request/response on one otherwise idle connection.
bool Call(Connection* conn, const std::string& line, std::string* response,
          double timeout_s = 120.0);

}  // namespace e2e

#endif  // E2EBENCH_NET_H_
