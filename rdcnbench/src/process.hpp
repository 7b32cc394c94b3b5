// rdcnbench child processes: spawned with their stdout on a pipe, killed
// with the benchmark (PR_SET_PDEATHSIG), and always reaped.
#pragma once

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace rdcnbench {

class Child {
 public:
  /// Starts argv[0] with `argv`; stdout goes to a pipe read by
  /// read_line(), stderr to `stderr_path` ("" = inherited).  Call from the
  /// main thread: the parent-death signal fires when the spawning thread
  /// exits.
  Child(const std::vector<std::string>& argv, const std::string& stderr_path) {
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      if (!stderr_path.empty()) {
        const int err = ::open(stderr_path.c_str(),
                               O_WRONLY | O_CREAT | O_APPEND, 0644);
        if (err >= 0) ::dup2(err, STDERR_FILENO);
      }
      ::execv(args[0], args.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_ = fds[0];
  }
  ~Child() {
    kill();
    if (out_ >= 0) ::close(out_);
  }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  pid_t pid() const { return pid_; }

  /// Next stdout line (without '\n'); "" at EOF.
  std::string read_line() {
    std::string line;
    char c = 0;
    while (true) {
      const ssize_t n = ::read(out_, &c, 1);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0 || c == '\n') return line;
      line += c;
    }
  }

  /// Waits up to `timeout` for a voluntary exit; returns the exit status
  /// (-1 when it had to be killed or was killed by a signal).
  int wait(std::chrono::milliseconds timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (pid_ > 0) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || (r < 0 && errno != EINTR)) {
        pid_ = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    kill();
    return -1;
  }

  /// SIGKILL + reap (no-op once reaped).
  void kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    while (::waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  int out_ = -1;
};

}  // namespace rdcnbench
