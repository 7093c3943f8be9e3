#include "service/daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace sdem::service {

// ---------------------------------------------------------------------------
// ResponseWriter

Daemon::ResponseWriter::ResponseWriter() {
  conns_[0] = std::make_unique<Outbox>();  // stdout pseudo-connection
}

int Daemon::ResponseWriter::add_conn(int fd, Acceptor* owner,
                                     const std::atomic<bool>** full) {
  auto ob = std::make_unique<Outbox>();
  ob->fd = fd;
  ob->owner = owner;
  *full = &ob->full;
  std::lock_guard<std::mutex> lock(mu_);
  const int id = next_id_++;
  conns_[id] = std::move(ob);
  return id;
}

void Daemon::ResponseWriter::close_conn(int id) {
  std::unique_ptr<Outbox> ob;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    // A deposit or flush in progress holds ob->mu; every other one first
    // needs mu_, which is held here. So once ob->mu is ours, nobody else
    // can still reach the outbox or its fd.
    std::lock_guard<std::mutex> wait(it->second->mu);
    ob = std::move(it->second);
    conns_.erase(it);
  }
  if (ob->fd >= 0) ::close(ob->fd);
}

void Daemon::ResponseWriter::send_some(Outbox& ob) {
  std::size_t off = 0;
  while (off < ob.unsent.size()) {
    const ssize_t n = ::send(ob.fd, ob.unsent.data() + off,
                             ob.unsent.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      // The client is gone (EPIPE, ECONNRESET): it loses its responses,
      // and its acceptor closes the fd.
      ob.broken = true;
      off = ob.unsent.size();
    }
  }
  ob.unsent.erase(0, off);
}

void Daemon::ResponseWriter::deposit(int conn_id, std::uint64_t conn_seq,
                                     std::string line) {
  Acceptor* notify = nullptr;
  {
    std::unique_lock<std::mutex> table(mu_);
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return;  // connection gone: best-effort drop
    Outbox& ob = *it->second;
    std::lock_guard<std::mutex> lock(ob.mu);
    table.unlock();  // close_conn needs ob.mu too, so ob outlives this scope
    if (ob.broken) return;
    if (conn_seq != ob.next) {
      ob.held.emplace(conn_seq, std::move(line));
      return;
    }
    const std::size_t before = ob.unsent.size();
    ob.unsent += line;
    ob.unsent += '\n';
    ++ob.next;
    for (auto h = ob.held.begin();
         h != ob.held.end() && h->first == ob.next; h = ob.held.erase(h)) {
      ob.unsent += h->second;
      ob.unsent += '\n';
      ++ob.next;
    }
    if (ob.fd < 0) {
      std::fwrite(ob.unsent.data(), 1, ob.unsent.size(), stdout);
      std::fflush(stdout);
      ob.unsent.clear();
      return;
    }
    // Bytes already unsent are waiting for the owner's EPOLLOUT; sending
    // now could not get past them.
    if (before == 0) send_some(ob);
    const bool full = ob.unsent.size() > kMaxUnsentBytes;
    ob.full.store(full, std::memory_order_relaxed);
    // The owner acts when it must watch for EPOLLOUT, stop reading, or
    // close the connection.
    if ((before == 0 && !ob.unsent.empty()) ||
        (before <= kMaxUnsentBytes && full) || ob.done()) {
      notify = ob.owner;
    }
  }
  if (notify != nullptr) {
    {
      std::lock_guard<std::mutex> lock(notify->inbox_mu);
      notify->want_write.push_back(conn_id);
    }
    wake(*notify);
  }
}

std::size_t Daemon::ResponseWriter::flush(int conn_id) {
  std::unique_lock<std::mutex> table(mu_);
  const auto it = conns_.find(conn_id);
  if (it == conns_.end()) return std::string::npos;
  Outbox& ob = *it->second;
  std::lock_guard<std::mutex> lock(ob.mu);
  table.unlock();
  send_some(ob);
  ob.full.store(ob.unsent.size() > kMaxUnsentBytes, std::memory_order_relaxed);
  return ob.done() ? std::string::npos : ob.unsent.size();
}

std::size_t Daemon::ResponseWriter::hang_up(int conn_id, std::uint64_t due) {
  {
    std::lock_guard<std::mutex> table(mu_);
    const auto it = conns_.find(conn_id);
    if (it == conns_.end()) return std::string::npos;
    std::lock_guard<std::mutex> lock(it->second->mu);
    it->second->due = due;
  }
  return flush(conn_id);
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
      // Non-blocking both ways: draining the pipe must never block the
      // loop, and a drain waking an acceptor must not block on a full pipe
      // (which already wakes it).
      for (const int fd : pipefd) {
        ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
      }
      acceptors_.push_back(std::move(a));
    }
  }
  if (stop_.load(std::memory_order_acquire)) {
    // request_stop() raced with startup; make sure every loop exits fast.
    for (const auto& a : acceptors_) wake(*a);
  }

  std::vector<std::thread> threads;
  for (int i = 1; i < opt_.acceptors; ++i) {
    threads.emplace_back([this, i] { acceptor_loop(*acceptors_[i]); });
  }
  acceptor_loop(*acceptors_[0]);
  for (std::thread& t : threads) t.join();

  svc_->drain_all();
  close_connections();
  {
    // Closing the wake fds and freeing the vector under the lock keeps a
    // concurrent request_stop() from writing to a recycled fd or walking
    // freed Acceptors.
    std::lock_guard<std::mutex> lock(acceptors_mu_);
    for (const auto& a : acceptors_) {
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
    // A response goes out as soon as it is ready; with Nagle on, the second
    // of two pipelined responses would wait for the client's delayed ACK.
    // Non-blocking, so that no drain and no acceptor waits on one client.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    const int target = next_acceptor_.fetch_add(1, std::memory_order_relaxed) %
                       static_cast<int>(acceptors_.size());
    Acceptor& dst = *acceptors_[static_cast<std::size_t>(target)];
    Conn c;
    c.fd = fd;
    c.id = writer_.add_conn(fd, &dst, &c.full);
    c.events = EPOLLIN;
    {
      std::lock_guard<std::mutex> lock(dst.inbox_mu);
      dst.inbox.push_back(std::move(c));
    }
    wake(dst);
    // One accept per wake-up keeps latency fair across acceptors; the
    // listener stays readable if more are queued.
    return;
  }
}

namespace {

// epoll tags of an acceptor's own fds; a connection's tag is its id (>= 1).
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
constexpr std::uint64_t kListenerTag = kWakeTag - 1;
constexpr std::uint64_t kStdinTag = kWakeTag - 2;

bool watch(int ep, int op, int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  return ::epoll_ctl(ep, op, fd, &ev) == 0;
}

}  // namespace

void Daemon::acceptor_loop(Acceptor& a) {
  const bool lead = a.index == 0;
  // Level-triggered, like poll(2), but the interest set stays registered
  // between waits instead of being handed to the kernel on every call.
  a.ep = ::epoll_create1(EPOLL_CLOEXEC);
  if (a.ep < 0) std::perror("epoll_create1");
  watch(a.ep, EPOLL_CTL_ADD, a.wake_rd, EPOLLIN, kWakeTag);
  if (lead && listen_fd_ >= 0) {
    watch(a.ep, EPOLL_CTL_ADD, listen_fd_, EPOLLIN, kListenerTag);
  }
  bool stdin_open = lead && opt_.use_stdin;
  // epoll refuses regular files and /dev/null, which are always readable:
  // such a stdin is read on every turn and the wait does not block.
  const bool stdin_polled =
      stdin_open && watch(a.ep, EPOLL_CTL_ADD, 0, EPOLLIN, kStdinTag);
  Conn stdin_conn;  // id 0 (stdout), fd 0
  stdin_conn.id = 0;
  stdin_conn.fd = 0;
  const auto read_stdin = [&] {
    if (read_chunk(0, stdin_conn)) {
      dispatch_lines(a, stdin_conn);
      return;
    }
    flush_partial(a, stdin_conn);
    stdin_open = false;
    if (stdin_polled) ::epoll_ctl(a.ep, EPOLL_CTL_DEL, 0, nullptr);
    // stdin EOF with no TCP surface: drain and exit cleanly.
    if (listen_fd_ < 0) request_stop();
  };
  const auto close = [&](std::map<int, Conn>::iterator it) {
    ::epoll_ctl(a.ep, EPOLL_CTL_DEL, it->second.fd, nullptr);
    writer_.close_conn(it->first);
    a.conns.erase(it);
  };

  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    if (lead && !stdin_open && listen_fd_ < 0) break;  // nothing to serve
    const int n = ::epoll_wait(a.ep, events, 64,
                               stdin_open && !stdin_polled ? 0 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;  // signal: retry silently
      std::perror("epoll_wait");
      break;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        char scratch[256];
        while (::read(a.wake_rd, scratch, sizeof(scratch)) > 0) {
        }
        std::vector<Conn> incoming;
        std::vector<int> want_write;
        {
          std::lock_guard<std::mutex> lock(a.inbox_mu);
          incoming.swap(a.inbox);
          want_write.swap(a.want_write);
        }
        for (Conn& c : incoming) {
          watch(a.ep, EPOLL_CTL_ADD, c.fd, c.events,
                static_cast<std::uint64_t>(c.id));
          a.conns.emplace(c.id, std::move(c));
        }
        for (const int id : want_write) {
          const auto it = a.conns.find(id);
          if (it != a.conns.end() && !send_pending(a, it->second)) close(it);
        }
      } else if (tag == kStdinTag) {
        if (stdin_open) read_stdin();
      } else if (tag == kListenerTag) {
        accept_clients();
      } else {
        const auto it = a.conns.find(static_cast<int>(tag));
        if (it == a.conns.end()) continue;  // closed earlier in this round
        if (!on_event(a, it->second, events[i].events)) close(it);
      }
      if (stop_.load(std::memory_order_acquire)) break;
    }
    if (stdin_open && !stdin_polled && !stop_.load(std::memory_order_acquire)) {
      read_stdin();
    }
    // Bound latency: staged raw lines ride to the shard queues before we
    // block in epoll_wait again (route_raw auto-flushes only at full
    // batches).
    std::shared_lock<std::shared_mutex> gate(barrier_mu_);
    svc_->flush(a.index);
  }
  ::close(a.ep);

  {
    std::shared_lock<std::shared_mutex> gate(barrier_mu_);
    svc_->flush(a.index);
  }
  // Make every other loop notice stop_ (first exiter wakes the rest).
  for (const auto& other : acceptors_) {
    if (other.get() != &a) wake(*other);
  }
}

bool Daemon::on_event(Acceptor& a, Conn& c, std::uint32_t events) {
  // A connection that reads no more has nothing left to do once its
  // client is gone. Otherwise EPOLLHUP/EPOLLERR can still come with
  // buffered requests; read() tells definitively.
  const bool gone = (events & (EPOLLHUP | EPOLLERR)) != 0;
  if (gone && (c.paused || c.hung_up)) return false;
  if ((events & EPOLLOUT) != 0 && !send_pending(a, c)) return false;
  if (c.paused || c.hung_up || ((events & EPOLLIN) == 0 && !gone)) {
    return true;
  }
  if (read_chunk(c.fd, c)) return serve_lines(a, c);
  // EOF: the client sent its last request. The connection closes once
  // every response it is owed is sent.
  flush_partial(a, c);
  c.hung_up = true;
  return settle(a, c, writer_.hang_up(c.id, c.conn_seq));
}

bool Daemon::serve_lines(Acceptor& a, Conn& c) {
  while (!dispatch_lines(a, c) && !stop_.load(std::memory_order_acquire)) {
    // The backlog passed kMaxUnsentBytes: stop reading until EPOLLOUT
    // brings it back under, unless the socket has taken enough already.
    if (!settle(a, c, writer_.flush(c.id))) return false;
    if (c.paused) return true;
  }
  return true;
}

bool Daemon::send_pending(Acceptor& a, Conn& c) {
  const bool was_paused = c.paused;
  if (!settle(a, c, writer_.flush(c.id))) return false;
  return !was_paused || c.paused || serve_lines(a, c);
}

bool Daemon::settle(Acceptor& a, Conn& c, std::size_t unsent) {
  if (unsent == std::string::npos) return false;
  c.paused = unsent > kMaxUnsentBytes;
  const std::uint32_t events = (c.paused || c.hung_up ? 0u : EPOLLIN) |
                               (unsent > 0 ? EPOLLOUT : 0u);
  if (events != c.events) {
    c.events = events;
    watch(a.ep, EPOLL_CTL_MOD, c.fd, events, static_cast<std::uint64_t>(c.id));
  }
  return true;
}

void Daemon::close_connections() {
  // Every response is deposited by now (the acceptors are joined and the
  // shards drained); what the sockets have not taken goes out as the
  // clients read it, for kShutdownGrace at most.
  std::vector<const Conn*> open;
  for (const auto& a : acceptors_) {
    for (const auto& [id, c] : a->conns) open.push_back(&c);
  }
  const auto deadline = std::chrono::steady_clock::now() + kShutdownGrace;
  std::vector<pollfd> writable;
  for (;;) {
    writable.clear();
    std::erase_if(open, [&](const Conn* c) {
      const std::size_t unsent = writer_.flush(c->id);
      if (unsent != 0 && unsent != std::string::npos) {
        writable.push_back(pollfd{c->fd, POLLOUT, 0});
        return false;
      }
      writer_.close_conn(c->id);
      return true;
    });
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (open.empty() || left.count() <= 0) break;
    ::poll(writable.data(), writable.size(), static_cast<int>(left.count()));
  }
  for (const Conn* c : open) writer_.close_conn(c->id);
}

bool Daemon::read_chunk(int fd, Conn& c) {
  char chunk[65536];
  ssize_t n;
  for (;;) {
    n = ::read(fd, chunk, sizeof(chunk));
    if (n >= 0 || errno != EINTR) break;  // EINTR: retry, no logging
  }
  if (n == 0) return false;  // EOF
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
  c.buf.append(chunk, static_cast<std::size_t>(n));
  return true;
}

bool Daemon::dispatch_lines(Acceptor& a, Conn& c) {
  // Only the new bytes are searched: buf[0, scanned) is known newline-free.
  std::size_t start = 0;
  std::size_t from = c.scanned;
  bool held = false;
  for (;;) {
    // Checked per line: one read holds thousands of requests, and each
    // may have a large response.
    if (stop_.load(std::memory_order_acquire) ||
        (c.full != nullptr && c.full->load(std::memory_order_relaxed))) {
      held = true;
      break;
    }
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
  }
  c.buf.erase(0, start);
  c.scanned = from - start;
  if (held) return false;
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
    dispatch(a, std::move(c.buf), c);
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

void Daemon::dispatch(Acceptor& a, std::string line, Conn& c) {
  if (line.empty()) return;
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t conn_seq = c.conn_seq++;

  const Peeked peek = peek_request(line);
  if (peek.routable()) {
    // Fast path: ship the raw line; the shard's drain parses it.
    std::shared_lock<std::shared_mutex> gate(barrier_mu_);
    svc_->route_raw(peek.island, peek.op, std::move(line), seq, c.id,
                    conn_seq, a.index);
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

}  // namespace sdem::service
