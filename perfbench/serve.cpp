#include "serve.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/wait.h>
#include <unistd.h>

extern char** environ;

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// A closed-loop caller that hears nothing for this long, a rescue barrier
/// included, has hung: the request counts as failed.
constexpr int kReplyTimeoutMs = 10000;

constexpr std::uint64_t ms_ns(int ms) {
  return static_cast<std::uint64_t>(ms) * 1000000ull;
}

void note(ServeRun& r, std::string what) {
  if (r.errors.size() < 8) r.errors.push_back(std::move(what));
}

/// A spawned daemon: its pid, bound port and a thread draining its stderr
/// (so a chatty daemon can never block on a full pipe).
class DaemonProcess {
 public:
  DaemonProcess(const std::string& bin, std::string& error) {
    int errpipe[2];
    if (::pipe2(errpipe, O_CLOEXEC) != 0) {
      error = "pipe: " + std::string(std::strerror(errno));
      return;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_adddup2(&fa, errpipe[1], 2);
    const char* argv[] = {bin.c_str(), "--policy",    "sdem-on", "--shards",
                          "2",         "--acceptors", "1",       "--port",
                          "0",         nullptr};
    const int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr,
                               const_cast<char**>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(errpipe[1]);
    if (rc != 0) {
      pid_ = -1;
      ::close(errpipe[0]);
      error = "spawn " + bin + ": " + std::strerror(rc);
      return;
    }
    // The daemon announces "listening on 127.0.0.1:PORT ..." once bound.
    std::string seen;
    char buf[512];
    const std::string key = "listening on 127.0.0.1:";
    while (port_ < 0) {
      const ssize_t n = ::read(errpipe[0], buf, sizeof(buf));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      seen.append(buf, static_cast<std::size_t>(n));
      const std::size_t at = seen.find(key);
      if (at != std::string::npos &&
          seen.find('\n', at) != std::string::npos) {
        port_ = std::atoi(seen.c_str() + at + key.size());
      }
    }
    if (port_ <= 0) error = "daemon did not announce a port: " + seen;
    drain_ = std::thread([fd = errpipe[0]] {
      char sink[4096];
      while (true) {
        const ssize_t n = ::read(fd, sink, sizeof(sink));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
      }
      ::close(fd);
    });
  }

  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  ~DaemonProcess() {
    if (pid_ > 0 && !exited_) {
      ::kill(pid_, SIGKILL);
      wait(-1);
    }
    if (drain_.joinable()) drain_.join();
  }

  int pid() const { return pid_; }
  int port() const { return port_; }

  /// True when the process has already exited (reaps it).
  bool gone() {
    if (exited_) return true;
    int st = 0;
    if (::waitpid(pid_, &st, WNOHANG) == pid_) {
      exited_ = true;
      status_ = st;
    }
    return exited_;
  }

  /// Wait up to `timeout_ms` (-1: forever) for exit; returns the wait
  /// status, or -1 on timeout.
  int wait(int timeout_ms) {
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(timeout_ms) * 1000000ull;
    while (!exited_) {
      int st = 0;
      const pid_t got = ::waitpid(pid_, &st, timeout_ms < 0 ? 0 : WNOHANG);
      if (got == pid_) {
        exited_ = true;
        status_ = st;
        break;
      }
      if (got < 0 && errno != EINTR) return -1;
      if (timeout_ms >= 0 && now_ns() > deadline) return -1;
      if (timeout_ms >= 0) ::usleep(1000);
    }
    return status_;
  }

 private:
  pid_t pid_ = -1;
  int port_ = -1;
  bool exited_ = false;
  int status_ = 0;
  std::thread drain_;
};

/// Whether `line` is a {"ok":true,...} envelope.
bool acknowledged(const std::string& line) {
  try {
    const sdem::Json* ok = sdem::Json::parse(line).find("ok");
    return ok != nullptr && ok->is_bool() && ok->as_bool();
  } catch (const std::exception&) {
    return false;
  }
}

int connect_to(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool write_line(int fd, const std::string& line) {
  static const char nl = '\n';
  iovec iov[2] = {{const_cast<char*>(line.data()), line.size()},
                  {const_cast<char*>(&nl), 1}};
  std::size_t left = line.size() + 1;
  int first = 0;
  while (left > 0) {
    const ssize_t n = ::writev(fd, iov + first, 2 - first);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    std::size_t k = static_cast<std::size_t>(n);
    left -= k;
    while (k > 0 && first < 2) {
      const std::size_t take = std::min(k, iov[first].iov_len);
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + take;
      iov[first].iov_len -= take;
      k -= take;
      if (iov[first].iov_len == 0) ++first;
    }
  }
  return true;
}

struct Conn {
  int fd = -1;
  std::size_t next = 0;  ///< next request index to send
  std::size_t end = 0;   ///< one past the last request of this phase
  bool outstanding = false;
  bool rescued = false;  ///< a rescue barrier was sent for this request
  std::uint64_t sent_ns = 0;
  bool dead = false;
  std::string buf;
};

/// Read one response line from `k` into `line`, waiting at most
/// kReplyTimeoutMs for each chunk.
bool read_line(Conn& k, std::string& line) {
  char chunk[65536];
  for (;;) {
    const std::size_t nl = k.buf.find('\n');
    if (nl != std::string::npos) {
      line = k.buf.substr(0, nl);
      k.buf.erase(0, nl + 1);
      return true;
    }
    pollfd p{k.fd, POLLIN, 0};
    const int ready = ::poll(&p, 1, kReplyTimeoutMs);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) return false;
    const ssize_t n = ::read(k.fd, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    k.buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// STATS on the control connection: the daemon answers it behind a
/// service-wide barrier that drains every shard, so a request stuck in a
/// shard ring with no drain scheduled gets handled.
void rescue(Conn& control, ServeRun& run) {
  ++run.attempted;
  std::string line;
  if (!write_line(control.fd, "{\"op\":\"STATS\"}") ||
      !read_line(control, line) || !acknowledged(line)) {
    ++run.failed;
    note(run, "rescue STATS not acknowledged: " + line.substr(0, 200));
  }
}

/// Cuts the measured phase into segments of `per_segment` consecutive
/// responses, reading the host's steal time at each cut.
class Sampler {
 public:
  Sampler(std::vector<Segment>& out, std::size_t per_segment)
      : out_(out), per_(std::max<std::size_t>(1, per_segment)) {
    open();
  }
  void answered(bool query, double ns) {
    Segment& s = out_.back();
    (query ? s.query_ns : s.submit_ns).push_back(ns);
    if (++s.answered == per_) {
      close();
      open();
    }
  }
  /// A request that was never answered enters the samples as +inf.
  void unanswered(bool query) {
    (query ? out_.back().query_ns : out_.back().submit_ns).push_back(kInf);
  }
  void finish() {
    close();
    const Segment& s = out_.back();
    if (s.answered == 0 && s.submit_ns.empty() && s.query_ns.empty())
      out_.pop_back();
  }

 private:
  void open() {
    out_.emplace_back();
    t0_ = now_ns();
    steal0_ = host_steal_s();
  }
  void close() {
    Segment& s = out_.back();
    s.wall_s = static_cast<double>(now_ns() - t0_) * 1e-9;
    s.steal_s = host_steal_s() - steal0_;
  }

  std::vector<Segment>& out_;
  std::size_t per_;
  std::uint64_t t0_ = 0;
  double steal0_ = 0.0;
};

/// The closed loop: one thread, every connection keeps exactly one request
/// in flight. A request unanswered after kRescueAfterMs gets one rescue
/// barrier on `control`; one still unanswered after kReplyTimeoutMs fails.
/// Returns once every connection has finished [next, end) or died; the
/// requests a dead connection never got answered are failures.
void pump(const Stream& stream, Conn (&conns)[Stream::kConns],
          Conn& control, Sampler* sample, ServeRun& run) {
  char chunk[65536];
  while (true) {
    pollfd pfd[Stream::kConns];
    int idx[Stream::kConns];
    int waiting = 0;
    bool stuck = false;
    std::uint64_t wake = std::numeric_limits<std::uint64_t>::max();
    const std::uint64_t t = now_ns();
    for (int c = 0; c < Stream::kConns; ++c) {
      Conn& k = conns[c];
      if (k.dead) continue;
      if (!k.outstanding && k.next < k.end) {
        k.sent_ns = now_ns();
        if (!write_line(k.fd, stream.conn[c][k.next].line)) {
          k.dead = true;
          note(run, "write failed on conn " + std::to_string(c));
          continue;
        }
        k.outstanding = true;
        k.rescued = false;
      }
      if (!k.outstanding) continue;
      const std::uint64_t waited = t > k.sent_ns ? t - k.sent_ns : 0;
      if (waited >= ms_ns(kReplyTimeoutMs)) {
        k.dead = true;
        note(run, "conn " + std::to_string(c) + ": no response to request " +
                      std::to_string(k.next) + " within " +
                      std::to_string(kReplyTimeoutMs / 1000) + " s");
        continue;
      }
      if (!k.rescued && waited >= ms_ns(kRescueAfterMs)) {
        k.rescued = true;
        ++run.rescued;
        stuck = true;
      }
      wake = std::min(wake, k.sent_ns + ms_ns(k.rescued ? kReplyTimeoutMs
                                                        : kRescueAfterMs));
      pfd[waiting] = {k.fd, POLLIN, 0};
      idx[waiting++] = c;
    }
    if (stuck) rescue(control, run);
    if (waiting == 0) break;
    const std::uint64_t now = now_ns();
    const int timeout =
        wake > now ? static_cast<int>((wake - now + 999999) / 1000000) : 0;
    const int ready = ::poll(pfd, static_cast<nfds_t>(waiting), timeout);
    if (ready < 0 && errno == EINTR) continue;
    if (ready < 0) {
      for (int w = 0; w < waiting; ++w) conns[idx[w]].dead = true;
      note(run, "poll: " + std::string(std::strerror(errno)));
      break;
    }
    for (int w = 0; w < waiting; ++w) {
      if ((pfd[w].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int c = idx[w];
      Conn& k = conns[c];
      const ssize_t n = ::read(k.fd, chunk, sizeof(chunk));
      const std::uint64_t t = now_ns();
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        k.dead = true;
        note(run, "connection " + std::to_string(c) + " dropped");
        continue;
      }
      k.buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = k.buf.find('\n')) != std::string::npos) {
        std::string line = k.buf.substr(0, nl);
        k.buf.erase(0, nl + 1);
        if (!k.outstanding) {
          ++run.failed;
          note(run, "extra response on conn " + std::to_string(c));
          continue;
        }
        if (sample != nullptr)
          sample->answered(stream.conn[c][k.next].query,
                           static_cast<double>(t - k.sent_ns));
        run.responses[c].push_back(std::move(line));
        k.outstanding = false;
        ++k.next;
      }
    }
  }
  for (int c = 0; c < Stream::kConns; ++c) {
    Conn& k = conns[c];
    if (!k.dead) continue;
    for (std::size_t i = k.next; i < k.end; ++i) {
      ++run.failed;
      if (sample != nullptr) sample->unanswered(stream.conn[c][i].query);
    }
    k.next = k.end;
  }
}

}  // namespace

ServeRun serve_once(const std::string& service_bin, const Stream& stream,
                    int segments) {
  ServeRun run;
  for (int c = 0; c < Stream::kConns; ++c)
    run.attempted += segments > 0 ? stream.conn[c].size() : stream.warm[c];

  const std::uint64_t t_launch = now_ns();
  std::string error;
  DaemonProcess daemon(service_bin, error);
  Conn conns[Stream::kConns];
  Conn control;
  const auto close_all = [&] {
    for (Conn& k : conns)
      if (k.fd >= 0) ::close(k.fd);
    if (control.fd >= 0) ::close(control.fd);
  };
  const auto fail_all = [&](const std::string& why) {
    note(run, why);
    run.failed = run.attempted;
    close_all();
    return run;
  };
  if (!error.empty()) return fail_all(error);
  for (int c = 0; c < Stream::kConns; ++c) {
    conns[c].fd = connect_to(daemon.port());
    if (conns[c].fd < 0) return fail_all("connection refused");
    conns[c].end = stream.warm[c];
  }
  control.fd = connect_to(daemon.port());
  if (control.fd < 0) return fail_all("connection refused");

  pump(stream, conns, control, nullptr, run);
  run.setup_s = static_cast<double>(now_ns() - t_launch) * 1e-9;
  run.setup_cpu_s = static_cast<double>(process_cpu_ns(daemon.pid())) * 1e-9;

  if (segments > 0) {
    std::size_t measured = 0;
    for (int c = 0; c < Stream::kConns; ++c) {
      measured += stream.conn[c].size() - stream.warm[c];
      conns[c].end = stream.conn[c].size();
    }
    const std::uint64_t cpu0 = process_cpu_ns(daemon.pid());
    Sampler sampler(run.segments,
                    measured / static_cast<std::size_t>(segments));
    pump(stream, conns, control, &sampler, run);
    sampler.finish();
    run.cpu_s =
        static_cast<double>(process_cpu_ns(daemon.pid()) - cpu0) * 1e-9;
  }
  run.peak_rss_mb = peak_rss_mb(daemon.pid());

  // SHUTDOWN on a live connection; the daemon must still be up to answer.
  if (daemon.gone()) {
    ++run.failed;
    note(run, "daemon exited before SHUTDOWN");
  } else {
    Conn& k = conns[0].dead ? conns[1] : conns[0];
    std::string line;
    if (k.dead || !write_line(k.fd, "{\"op\":\"SHUTDOWN\"}") ||
        !read_line(k, line) || !acknowledged(line)) {
      ++run.failed;
      note(run, "SHUTDOWN not acknowledged: " + line.substr(0, 200));
    }
  }
  close_all();
  const int st = daemon.wait(30000);
  if (st < 0 || !WIFEXITED(st) || WEXITSTATUS(st) != 0) {
    ++run.failed;
    note(run, "daemon did not exit cleanly (status " + std::to_string(st) +
                  ")");
  }
  return run;
}

std::size_t check_responses(const Stream& stream, const ServeRun& run,
                            std::vector<std::string>& errors) {
  std::size_t bad = 0;
  const auto fail = [&](int c, std::size_t i, const std::string& why) {
    ++bad;
    if (errors.size() < 8)
      errors.push_back("conn " + std::to_string(c) + " request " +
                       std::to_string(i) + ": " + why);
  };
  for (int c = 0; c < Stream::kConns; ++c) {
    double last_seq = -1.0;
    const std::vector<std::string>& got = run.responses[c];
    for (std::size_t i = 0; i < got.size(); ++i) {
      const StreamRequest& req = stream.conn[c][i];
      sdem::Json r;
      try {
        r = sdem::Json::parse(got[i]);
      } catch (const std::exception& e) {
        fail(c, i, std::string("unparsable response: ") + e.what());
        continue;
      }
      const sdem::Json* ok = r.find("ok");
      const sdem::Json* op = r.find("op");
      const sdem::Json* island = r.find("island");
      const sdem::Json* seq = r.find("seq");
      if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) {
        fail(c, i, "error envelope: " + got[i].substr(0, 200));
        continue;
      }
      if (op == nullptr || !op->is_string() ||
          op->as_string() != (req.query ? "QUERY" : "SUBMIT") ||
          island == nullptr || !island->is_number() ||
          island->as_number() != req.island) {
        fail(c, i, "op/island not echoed: " + got[i].substr(0, 200));
        continue;
      }
      if (!req.query) {
        const sdem::Json* id = r.find("id");
        if (id == nullptr || !id->is_number() ||
            id->as_number() != req.task_id) {
          fail(c, i, "task id not echoed");
          continue;
        }
      }
      if (seq == nullptr || !seq->is_number() ||
          !(seq->as_number() > last_seq)) {
        fail(c, i, "response out of order");
        continue;
      }
      last_seq = seq->as_number();
    }
  }
  return bad;
}

}  // namespace perfbench
