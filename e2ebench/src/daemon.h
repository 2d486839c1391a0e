// The urankd subprocess: spawn with default serving options, wait for the
// "listening on" line, read its CPU time and peak RSS from /proc, stop it
// with SIGTERM and wait for it to exit.
#ifndef E2EBENCH_DAEMON_H_
#define E2EBENCH_DAEMON_H_

#include <sys/types.h>

#include <string>
#include <vector>

namespace e2e {

class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Starts `binary args...` with stdout/stderr appended to `log_path` and
  // blocks until it prints its listening port (false on exit or timeout).
  bool Start(const std::string& binary, const std::vector<std::string>& args,
             const std::string& log_path, std::string* error);
  int port() const { return port_; }
  bool running() const { return pid_ > 0; }

  // utime + stime of the whole process so far (ms, clock-tick resolution).
  double CpuMs() const;
  // VmHWM: the peak resident set size (MB).
  double PeakRssMb() const;

  // SIGTERM, then waits up to `timeout_s` before SIGKILL. Returns true when
  // the daemon drained and exited 0.
  bool Stop(double timeout_s = 30.0);

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

}  // namespace e2e

#endif  // E2EBENCH_DAEMON_H_
