#include "service/daemon.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sdem::service {

// ---------------------------------------------------------------------------
// ResponseWriter

Daemon::ResponseWriter::ResponseWriter() {
  conns_[0] = ConnState{};  // stdout pseudo-connection, fd -1
}

int Daemon::ResponseWriter::add_conn(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = next_id_++;
  conns_[id].fd = fd;
  return id;
}

void Daemon::ResponseWriter::close_conn(int id) {
  int fd = -1;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    fd = it->second.fd;
    conns_.erase(it);  // later deposits for this id are discarded
  }
  if (fd >= 0) ::close(fd);
}

void Daemon::ResponseWriter::deposit(int conn_id, std::uint64_t conn_seq,
                                     std::string line) {
  line.push_back('\n');
  std::lock_guard<std::mutex> lock(mu_);
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;  // connection gone: best-effort drop
  ConnState& c = it->second;
  c.held.emplace(conn_seq, std::move(line));
  while (!c.held.empty() && c.held.begin()->first == c.next) {
    write_line(c.fd, c.held.begin()->second);
    c.held.erase(c.held.begin());
    ++c.next;
  }
}

void Daemon::ResponseWriter::write_line(int fd, const std::string& line) {
  if (fd < 0) {
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fflush(stdout);
    return;
  }
  // Best effort: a disconnected client just loses its responses (SIGPIPE
  // is ignored; EPIPE is expected).
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(fd, line.data() + off, line.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// Daemon

Daemon::Daemon(DaemonOptions opt) : opt_(std::move(opt)) {
  if (opt_.acceptors < 1) opt_.acceptors = 1;
}

Daemon::~Daemon() {
  // run() cleans up after itself; nothing survives it but the Service,
  // whose destructor flushes and drains.
}

int Daemon::port() {
  std::unique_lock<std::mutex> lock(port_mu_);
  port_cv_.wait(lock, [this] { return bound_port_ != -2; });
  return bound_port_;
}

void Daemon::request_stop() {
  stop_.store(true, std::memory_order_release);
  metrics_cv_.notify_all();
  // run() builds and tears down acceptors_ under the same lock, so every
  // wake fd seen here is live (before startup the vector is just empty).
  std::lock_guard<std::mutex> lock(acceptors_mu_);
  for (const auto& a : acceptors_) {
    if (a->wake_wr >= 0) wake(*a);
  }
}

std::uint64_t Daemon::requests_processed() const {
  return svc_ != nullptr ? svc_->requests_processed() : 0;
}

void Daemon::wake(Acceptor& a) {
  const char b = 1;
  for (;;) {
    const ssize_t n = ::write(a.wake_wr, &b, 1);
    if (n >= 0 || errno != EINTR) return;  // full pipe already wakes
  }
}

int Daemon::run() {
  ServiceOptions sopt;
  sopt.policy = opt_.policy;
  sopt.shards = opt_.shards;
  sopt.producers = opt_.acceptors;
  sopt.eager = true;
  sopt.queue_capacity = opt_.queue_capacity;
  if (opt_.shards > 1) pool_ = std::make_unique<ThreadPool>(opt_.shards);
  svc_ = std::make_unique<Service>(
      sopt, pool_.get(), [this](const Request& r, Json resp) {
        writer_.deposit(r.conn, r.conn_seq, resp.dump(0));
      });

  if (opt_.port >= 0 && !open_listener()) {
    std::lock_guard<std::mutex> lock(port_mu_);
    bound_port_ = -1;
    port_cv_.notify_all();
    return 1;
  }
  if (opt_.port < 0) {
    std::lock_guard<std::mutex> lock(port_mu_);
    bound_port_ = -1;
    port_cv_.notify_all();
  }

  {
    std::lock_guard<std::mutex> lock(acceptors_mu_);
    acceptors_.clear();
    for (int i = 0; i < opt_.acceptors; ++i) {
      auto a = std::make_unique<Acceptor>();
      a->index = i;
      int pipefd[2];
      if (::pipe(pipefd) != 0) {
        std::perror("pipe");
        return 1;
      }
      a->wake_rd = pipefd[0];
      a->wake_wr = pipefd[1];
      // Non-blocking read side: draining the pipe must never block the
      // loop.
      ::fcntl(a->wake_rd, F_SETFL,
              ::fcntl(a->wake_rd, F_GETFL, 0) | O_NONBLOCK);
      acceptors_.push_back(std::move(a));
    }
  }
  if (stop_.load(std::memory_order_acquire)) {
    // request_stop() raced with startup; make sure every loop exits fast.
    for (const auto& a : acceptors_) wake(*a);
  }

  if (opt_.metrics_interval_s > 0.0 && !opt_.metrics_path.empty()) {
    metrics_thread_ = std::thread([this] { metrics_loop(); });
  }

  std::vector<std::thread> threads;
  for (int i = 1; i < opt_.acceptors; ++i) {
    threads.emplace_back([this, i] { acceptor_loop(*acceptors_[i]); });
  }
  acceptor_loop(*acceptors_[0]);
  for (std::thread& t : threads) t.join();

  if (metrics_thread_.joinable()) {
    // The lead loop can exit without request_stop() (stdin EOF with no TCP
    // is routed through it, but "nothing to serve" is not).
    stop_.store(true, std::memory_order_release);
    metrics_cv_.notify_all();
    metrics_thread_.join();
  }

  svc_->drain_all();
  {
    // Closing the wake fds and freeing the vector under the lock keeps a
    // concurrent request_stop() from writing to a recycled fd or walking
    // freed Acceptors.
    std::lock_guard<std::mutex> lock(acceptors_mu_);
    for (const auto& a : acceptors_) {
      for (auto& [fd, c] : a->conns) writer_.close_conn(c.id);
      std::lock_guard<std::mutex> inbox_lock(a->inbox_mu);
      for (Conn& c : a->inbox) writer_.close_conn(c.id);
      ::close(a->wake_rd);
      ::close(a->wake_wr);
    }
    acceptors_.clear();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  return 0;
}

bool Daemon::open_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    std::perror("socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opt_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 64) < 0) {
    std::perror("bind/listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  {
    std::lock_guard<std::mutex> lock(port_mu_);
    bound_port_ = static_cast<int>(ntohs(addr.sin_port));
    port_cv_.notify_all();
  }
  std::fprintf(stderr, "listening on 127.0.0.1:%d acceptors=%d\n",
               bound_port_, opt_.acceptors);
  return true;
}

void Daemon::accept_clients() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN &c: accepted everything pending
    }
    Conn c;
    c.fd = fd;
    c.id = writer_.add_conn(fd);
    const int target = next_acceptor_.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<int>(acceptors_.size());
    Acceptor& dst = *acceptors_[static_cast<std::size_t>(target)];
    if (target == 0) {
      dst.conns.emplace(fd, std::move(c));
    } else {
      {
        std::lock_guard<std::mutex> lock(dst.inbox_mu);
        dst.inbox.push_back(std::move(c));
      }
      wake(dst);
    }
    // One accept per POLLIN keeps latency fair across acceptors; the
    // listener stays readable if more are queued.
    return;
  }
}

void Daemon::acceptor_loop(Acceptor& a) {
  const bool lead = a.index == 0;
  bool stdin_open = lead && opt_.use_stdin;
  Conn stdin_conn;  // id 0 (stdout), fd 0
  stdin_conn.id = 0;
  stdin_conn.fd = 0;

  while (!stop_.load(std::memory_order_acquire)) {
    std::vector<pollfd> fds;
    fds.push_back({a.wake_rd, POLLIN, 0});
    if (stdin_open) fds.push_back({0, POLLIN, 0});
    if (lead && listen_fd_ >= 0) fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, c] : a.conns) fds.push_back({fd, POLLIN, 0});
    if (lead && fds.size() == 1 && listen_fd_ < 0) break;  // nothing to serve
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;  // signal: retry silently
      std::perror("poll");
      break;
    }
    for (const pollfd& p : fds) {
      // POLLHUP/POLLERR without POLLIN can still have buffered data; read()
      // tells us definitively, so treat all three as "try a read".
      if ((p.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      if (p.fd == a.wake_rd) {
        char scratch[256];
        while (::read(a.wake_rd, scratch, sizeof(scratch)) > 0) {
        }
        std::vector<Conn> incoming;
        {
          std::lock_guard<std::mutex> lock(a.inbox_mu);
          incoming.swap(a.inbox);
        }
        for (Conn& c : incoming) a.conns.emplace(c.fd, std::move(c));
      } else if (stdin_open && p.fd == 0) {
        if (!read_chunk(a, 0, stdin_conn)) {
          flush_partial(a, stdin_conn);
          stdin_open = false;
          // stdin EOF with no TCP surface: drain and exit cleanly.
          if (listen_fd_ < 0) request_stop();
        }
      } else if (lead && p.fd == listen_fd_) {
        accept_clients();
      } else {
        auto it = a.conns.find(p.fd);
        if (it == a.conns.end()) continue;
        if (!read_chunk(a, p.fd, it->second)) {
          flush_partial(a, it->second);
          writer_.close_conn(it->second.id);
          a.conns.erase(it);
        }
      }
      if (stop_.load(std::memory_order_acquire)) break;
    }
    // Bound latency: staged raw lines ride to the rings before we block in
    // poll() again (route_raw auto-flushes only at full batches).
    std::shared_lock<std::shared_mutex> gate(barrier_mu_);
    svc_->flush(a.index);
  }

  {
    std::shared_lock<std::shared_mutex> gate(barrier_mu_);
    svc_->flush(a.index);
  }
  // Make every other loop notice stop_ (first exiter wakes the rest).
  for (const auto& other : acceptors_) {
    if (other.get() != &a) wake(*other);
  }
}

bool Daemon::read_chunk(Acceptor& a, int fd, Conn& c) {
  char chunk[65536];
  ssize_t n;
  for (;;) {
    n = ::read(fd, chunk, sizeof(chunk));
    if (n >= 0 || errno != EINTR) break;  // EINTR: retry, no logging
  }
  if (n == 0) return false;  // EOF
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
  c.buf.append(chunk, static_cast<std::size_t>(n));
  // Only the new bytes are searched: buf[0, scanned) is known newline-free.
  std::size_t start = 0;
  std::size_t from = c.scanned;
  for (;;) {
    const std::size_t nl = c.buf.find('\n', from);
    if (nl == std::string::npos) {
      from = c.buf.size();
      break;  // partial line: keep for next read
    }
    if (c.overlong) {
      c.overlong = false;  // the rejected line ends here
    } else if (nl - start > kMaxLineBytes) {
      reject_overlong(c);
    } else {
      dispatch(a, c.buf.substr(start, nl - start), c);
    }
    start = from = nl + 1;
    if (stop_.load(std::memory_order_acquire)) break;
  }
  c.buf.erase(0, start);
  c.scanned = from - start;
  // An unterminated tail past the cap is answered now, and its bytes are
  // dropped as they arrive until its newline, so a client that never sends
  // one cannot grow buf.
  if (!c.overlong && c.buf.size() > kMaxLineBytes) {
    reject_overlong(c);
    c.overlong = true;
  }
  if (c.overlong) {
    c.buf.clear();
    c.scanned = 0;
  }
  return true;
}

void Daemon::flush_partial(Acceptor& a, Conn& c) {
  // A final line without a trailing newline still counts at EOF.
  if (!c.buf.empty() && !c.overlong &&
      !stop_.load(std::memory_order_acquire)) {
    dispatch(a, c.buf, c);
  }
  c.buf.clear();
  c.scanned = 0;
  c.overlong = false;
}

void Daemon::reject_overlong(Conn& c) {
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  writer_.deposit(c.id, c.conn_seq++,
                  error_response(seq, "line exceeds " +
                                          std::to_string(kMaxLineBytes) +
                                          " bytes")
                      .dump(0));
}

void Daemon::dispatch(Acceptor& a, const std::string& line, Conn& c) {
  if (line.empty()) return;
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t conn_seq = c.conn_seq++;

  const Peeked peek = peek_request(line);
  if (peek.routable()) {
    // Fast path: ship the raw line; the shard's drain parses it.
    std::shared_lock<std::shared_mutex> gate(barrier_mu_);
    svc_->route_raw(peek.island, peek.op, line, seq, c.id, conn_seq, a.index);
    return;
  }

  // Peek miss (STATS, METRICS, SHUTDOWN, or a SUBMIT the peek cannot route,
  // such as "island":2.0): full parse here on the acceptor.
  Parsed p = parse_request(line);
  if (!p.ok) {
    writer_.deposit(c.id, conn_seq, error_response(seq, p.error).dump(0));
    return;
  }
  p.request.seq = seq;
  p.request.conn = c.id;
  p.request.conn_seq = conn_seq;
  switch (p.request.op) {
    case Op::kSubmit:
    case Op::kQuery: {
      std::shared_lock<std::shared_mutex> gate(barrier_mu_);
      svc_->route(std::move(p.request), a.index);
      break;
    }
    case Op::kStats: {
      // Service-wide barrier: exclusive gate stops the other acceptors, so
      // the drain + obs snapshot inside stats() see a quiesced pipeline.
      std::unique_lock<std::shared_mutex> gate(barrier_mu_);
      svc_->flush(a.index);
      writer_.deposit(c.id, conn_seq, svc_->stats(seq).dump(0));
      break;
    }
    case Op::kMetrics: {
      // Same exclusive barrier as STATS: the windowed cells and registry
      // snapshot inside metrics() must see a quiesced pipeline.
      std::unique_lock<std::shared_mutex> gate(barrier_mu_);
      svc_->flush(a.index);
      writer_.deposit(c.id, conn_seq, svc_->metrics(seq).dump(0));
      break;
    }
    case Op::kShutdown: {
      {
        std::unique_lock<std::shared_mutex> gate(barrier_mu_);
        svc_->flush(a.index);
        svc_->drain_all();
        Json resp = ok_response(Op::kShutdown, seq);
        resp.set("requests", svc_->requests_processed());
        resp.set("uptime_s", svc_->uptime_s());
        // Final exposition snapshot: a supervisor that only sees the
        // SHUTDOWN response still gets the closing counters.
        resp.set("metrics", svc_->metrics_text());
        writer_.deposit(c.id, conn_seq, resp.dump(0));
      }
      request_stop();
      break;
    }
  }
}

void Daemon::metrics_loop() {
  const auto interval =
      std::chrono::duration<double>(opt_.metrics_interval_s);
  std::unique_lock<std::mutex> lock(metrics_mu_);
  while (!stop_.load(std::memory_order_acquire)) {
    if (metrics_cv_.wait_for(lock, interval, [this] {
          return stop_.load(std::memory_order_acquire);
        })) {
      break;
    }
    lock.unlock();
    {
      // Exclusive barrier, like a METRICS request: producers pause, the
      // drain retires every flushed request, then the snapshot is read.
      std::unique_lock<std::shared_mutex> gate(barrier_mu_);
      svc_->drain_all();
      const std::string text = svc_->metrics_text();
      std::FILE* f = std::fopen(opt_.metrics_path.c_str(), "w");
      if (f != nullptr) {
        std::fwrite(text.data(), 1, text.size(), f);
        std::fclose(f);
      }
    }
    lock.lock();
  }
}

}  // namespace sdem::service
