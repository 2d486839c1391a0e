#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "common.h"

namespace e2e {

Daemon::~Daemon() {
  if (running()) Stop(5.0);
}

bool Daemon::Start(const std::string& binary,
                   const std::vector<std::string>& args,
                   const std::string& log_path, std::string* error) {
  const int log_fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) {
    *error = "cannot open " + log_path;
    return false;
  }
  std::vector<std::string> argv_store;
  argv_store.push_back(binary);
  argv_store.insert(argv_store.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(log_fd);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (null_fd >= 0) ::dup2(null_fd, STDIN_FILENO);
    ::execv(binary.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(log_fd);
  pid_ = pid;

  // Poll the log for "listening on 127.0.0.1:PORT". Loading large CSVs
  // happens before the line appears, so allow generous time.
  const std::uint64_t deadline = NowNs() + 120ull * 1000000000ull;
  static const char kNeedle[] = "listening on 127.0.0.1:";
  while (NowNs() < deadline) {
    std::ifstream in(log_path);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t at = line.find(kNeedle);
      if (at != std::string::npos) {
        port_ = std::atoi(line.c_str() + at + sizeof(kNeedle) - 1);
        if (port_ > 0) return true;
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      *error = "urankd exited during start-up (see " + log_path + ")";
      return false;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  *error = "urankd did not report a listening port";
  Stop(5.0);
  return false;
}

double Daemon::CpuMs() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string all((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields overall.
  const std::size_t close = all.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(all.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::atof(field.c_str());
    if (i == 15) stime = std::atof(field.c_str());
  }
  const double ticks = static_cast<double>(::sysconf(_SC_CLK_TCK));
  return (utime + stime) * 1000.0 / ticks;
}

double Daemon::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool Daemon::Stop(double timeout_s) {
  if (pid_ <= 0) return false;
  ::kill(pid_, SIGTERM);
  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(timeout_s * 1e9);
  int status = 0;
  bool clean = false;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      break;
    }
    if (NowNs() >= deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return clean;
}

}  // namespace e2e
