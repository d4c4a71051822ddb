// `client`: drives one dmfb_serve process as a closed loop over one pipe.
// At most `window` request lines are in flight; the next line goes out only
// when an answer comes back. The daemon answers in submission order, so
// answer i belongs to line i, and a line's latency runs from the moment it
// is handed to the pipe until its answer line is read. The first line's
// answer ends the set-up interval and is not a latency sample.
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "harness.hpp"

namespace perfbench {

namespace {

void set_nonblocking(int fd) {
  const int flags = fcntl(fd, F_GETFL);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw std::runtime_error(std::string("fcntl: ") + std::strerror(errno));
  }
}

}  // namespace

int client_main(const Args& args) {
  const std::string serve_bin = args.get("serve");
  const std::string threads = std::to_string(args.get_int("threads"));
  const std::string store = args.get("store");
  const std::string stats_json = args.get("stats-json");
  const auto window = static_cast<std::size_t>(args.get_int("window"));
  if (window == 0) throw std::invalid_argument("--window must be positive");
  const std::vector<std::string> lines = read_lines(args.get("batch"));
  const std::size_t total = lines.size();
  if (total == 0) throw std::invalid_argument("empty batch");

  // A daemon that dies mid-batch must surface as missing answers, not kill
  // the client on a write to the closed pipe.
  std::signal(SIGPIPE, SIG_IGN);
  int to_child[2];
  int from_child[2];
  if (pipe2(to_child, O_CLOEXEC) != 0 || pipe2(from_child, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  const Clock::time_point spawn = Clock::now();
  const pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    const int devnull = open("/dev/null", O_WRONLY);
    if (dup2(to_child[0], 0) < 0 || dup2(from_child[1], 1) < 0 ||
        devnull < 0 || dup2(devnull, 2) < 0) {
      _exit(127);
    }
    const char* argv[] = {serve_bin.c_str(), "--threads",     threads.c_str(),
                          "--store",         store.c_str(),   "--stats-json",
                          stats_json.c_str(), nullptr};
    execv(serve_bin.c_str(), const_cast<char* const*>(argv));
    _exit(127);
  }
  close(to_child[0]);
  close(from_child[1]);
  int write_fd = to_child[1];
  const int read_fd = from_child[0];
  set_nonblocking(write_fd);
  set_nonblocking(read_fd);

  std::vector<Clock::time_point> sent(total);
  std::vector<Clock::time_point> received(total);
  std::string answers;
  std::string pending;  // bytes handed to the pipe but not yet written
  std::size_t pending_offset = 0;
  std::size_t next = 0;
  std::size_t done = 0;
  bool daemon_closed = false;
  char buffer[1 << 16];
  while (done < total && !daemon_closed) {
    if (pending_offset == pending.size()) {
      pending.clear();
      pending_offset = 0;
      const Clock::time_point now = Clock::now();
      // The first line goes out alone: its answer ends the set-up interval,
      // and the window opens only once the daemon is up.
      const std::size_t open = done == 0 ? 1 : window;
      while (next < total && next - done < open) {
        pending += lines[next];
        pending += '\n';
        sent[next++] = now;
      }
    }
    if (write_fd >= 0 && next == total && pending_offset == pending.size()) {
      // EOF: the daemon drains and exits after the last answer.
      close(write_fd);
      write_fd = -1;
    }
    pollfd fds[2] = {{read_fd, POLLIN, 0}, {write_fd, POLLOUT, 0}};
    const bool want_write = write_fd >= 0 && pending_offset < pending.size();
    if (poll(fds, want_write ? 2 : 1, -1) < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("poll: ") + std::strerror(errno));
    }
    if (want_write && (fds[1].revents & (POLLOUT | POLLERR | POLLHUP))) {
      const ssize_t wrote = write(write_fd, pending.data() + pending_offset,
                                  pending.size() - pending_offset);
      if (wrote > 0) {
        pending_offset += static_cast<std::size_t>(wrote);
      } else if (wrote < 0 && errno != EAGAIN && errno != EINTR) {
        close(write_fd);
        write_fd = -1;
        pending_offset = pending.size();
      }
    }
    if (fds[0].revents & (POLLIN | POLLERR | POLLHUP)) {
      const ssize_t got = read(read_fd, buffer, sizeof buffer);
      if (got == 0) {
        daemon_closed = true;
      } else if (got > 0) {
        const Clock::time_point now = Clock::now();
        for (ssize_t i = 0; i < got; ++i) {
          if (buffer[i] == '\n' && done < total) received[done++] = now;
        }
        answers.append(buffer, static_cast<std::size_t>(got));
      } else if (errno != EAGAIN && errno != EINTR) {
        daemon_closed = true;
      }
    }
  }
  if (write_fd >= 0) close(write_fd);
  // Drain anything after the last expected answer, so the daemon never
  // blocks on a full pipe before it exits.
  for (;;) {
    pollfd fd = {read_fd, POLLIN, 0};
    if (poll(&fd, 1, -1) < 0 && errno == EINTR) continue;
    const ssize_t got = read(read_fd, buffer, sizeof buffer);
    if (got > 0) {
      answers.append(buffer, static_cast<std::size_t>(got));
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EINTR)) continue;
    break;
  }
  close(read_fd);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  const Clock::time_point exited = Clock::now();
  std::ofstream(args.get("out"), std::ios::binary) << answers;

  std::vector<std::int64_t> latency_ns;  // the set-up line excluded
  for (std::size_t i = 1; i < done; ++i) {
    latency_ns.push_back(elapsed_ns(sent[i], received[i]));
  }
  const int exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  std::cout << JsonObject()
                   .integer("lines", static_cast<std::int64_t>(total))
                   .integer("answers", static_cast<std::int64_t>(done))
                   .integer("exit", exit_code)
                   .num("setup_s",
                        done > 0 ? elapsed_s(spawn, received[0]) : 0.0)
                   .num("steady_s",
                        done > 1 ? elapsed_s(received[0], received[done - 1])
                                 : 0.0)
                   .num("wall_s", elapsed_s(spawn, exited))
                   .integer("maxrss_kb", usage.ru_maxrss)
                   .raw("latency_ns", json_array(latency_ns))
                   .text()
            << '\n';
  return 0;
}

}  // namespace perfbench
