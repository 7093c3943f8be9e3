#include "service/daemon.hpp"

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
namespace {

// epoll tags of the loop's own fds; a connection's tag is its id.
constexpr std::uint64_t kWakeTag = ~std::uint64_t{0};
constexpr std::uint64_t kListenerTag = kWakeTag - 1;
/// The connection id of stdin, answered on stdout.
constexpr int kStdio = 0;

bool watch(int ep, int op, int fd, std::uint32_t events, std::uint64_t tag) {
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = tag;
  return ::epoll_ctl(ep, op, fd, &ev) == 0;
}

}  // namespace

Daemon::Daemon(DaemonOptions opt) : opt_(std::move(opt)) {
  // Non-blocking both ways: draining the pipe must never block the loop,
  // and a drain waking the loop must not block on a full pipe (which
  // already wakes it).
  int pipefd[2];
  if (::pipe2(pipefd, O_NONBLOCK | O_CLOEXEC) == 0) {
    wake_rd_ = pipefd[0];
    wake_wr_ = pipefd[1];
  } else {
    std::perror("pipe");
  }
}

Daemon::~Daemon() {
  // The Service's destructor drains, and a drain posts and may wake the
  // loop, so the pipe outlives it.
  svc_.reset();
  pool_.reset();
  if (wake_rd_ >= 0) ::close(wake_rd_);
  if (wake_wr_ >= 0) ::close(wake_wr_);
}

int Daemon::port() {
  std::unique_lock<std::mutex> lock(port_mu_);
  port_cv_.wait(lock, [this] { return bound_port_ != -2; });
  return bound_port_;
}

void Daemon::request_stop() {
  stop_.store(true, std::memory_order_release);
  wake();
}

std::uint64_t Daemon::requests_processed() const {
  return svc_ != nullptr ? svc_->requests_processed() : 0;
}

void Daemon::wake() {
  const char b = 1;
  for (;;) {
    const ssize_t n = ::write(wake_wr_, &b, 1);
    if (n >= 0 || errno != EINTR) return;  // full pipe already wakes
  }
}

void Daemon::post(int conn, std::uint64_t conn_seq, std::string line) {
  if (std::this_thread::get_id() == loop_thread_) {
    // An inline drain, error envelope or barrier answer goes out now: the
    // client's next request then overlaps the next shard's drain.
    Conn* c = file(conn, conn_seq, std::move(line));
    if (c != nullptr && (c->events & EPOLLOUT) == 0) send_some(*c);
    return;
  }
  bool wake_loop = false;
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    // The loop swaps the list out whole, so the post that finds it empty
    // is the one whose wake-up is not already ahead of the loop.
    wake_loop = posted_.empty();
    posted_.push_back(Posted{conn, conn_seq, std::move(line)});
  }
  if (wake_loop) wake();
}

int Daemon::run() {
  loop_thread_ = std::this_thread::get_id();
  ServiceOptions sopt;
  sopt.policy = opt_.policy;
  sopt.shards = opt_.shards;
  sopt.eager = true;
  if (opt_.shards > 1) pool_ = std::make_unique<ThreadPool>(opt_.shards);
  svc_ = std::make_unique<Service>(
      sopt, pool_.get(), [this](const Request& r, Json resp) {
        post(r.conn, r.conn_seq, resp.dump(0));
      });

  // Level-triggered, like poll(2), but the interest set stays registered
  // between waits instead of being handed to the kernel on every call.
  ep_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (ep_ < 0) std::perror("epoll_create1");
  const bool ok =
      ep_ >= 0 && wake_rd_ >= 0 && (opt_.port < 0 || open_listener());
  if (listen_fd_ < 0) {
    std::lock_guard<std::mutex> lock(port_mu_);
    bound_port_ = -1;
    port_cv_.notify_all();
  }
  if (ok) serve();

  svc_->flush();
  svc_->drain_all();
  take_in();
  close_connections();
  if (ep_ >= 0) ::close(ep_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  return ok ? 0 : 1;
}

bool Daemon::open_listener() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
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
  std::fprintf(stderr, "listening on 127.0.0.1:%d\n", bound_port_);
  return true;
}

void Daemon::accept_clients() {
  for (;;) {
    // Non-blocking, so that no drain and no other connection waits on one
    // client.
    const int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN &c: accepted everything pending
    }
    // A response goes out as soon as it is ready; with Nagle on, the second
    // of two pipelined responses would wait for the client's delayed ACK.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const int id = next_id_++;
    Conn& c = conns_[id];
    c.id = id;
    c.fd = fd;
    c.events = EPOLLIN;
    watch(ep_, EPOLL_CTL_ADD, fd, EPOLLIN, static_cast<std::uint64_t>(id));
  }
}

void Daemon::serve() {
  watch(ep_, EPOLL_CTL_ADD, wake_rd_, EPOLLIN, kWakeTag);
  if (listen_fd_ >= 0) {
    watch(ep_, EPOLL_CTL_ADD, listen_fd_, EPOLLIN, kListenerTag);
  }
  bool stdin_polled = false;
  if (opt_.use_stdin) {
    Conn& in = conns_[kStdio];
    in.id = kStdio;
    in.fd = 0;
    in.events = EPOLLIN;
    // epoll refuses regular files and /dev/null, which are always readable:
    // such a stdin is read on every turn and the wait does not block.
    stdin_polled = watch(ep_, EPOLL_CTL_ADD, 0, EPOLLIN, kStdio);
  }
  const auto on = [this](int id, std::uint32_t events) {
    const auto it = conns_.find(id);
    if (it == conns_.end()) return;  // closed earlier in this turn
    if (!on_event(it->second, events)) close_conn(it);
  };

  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    const auto in = conns_.find(kStdio);
    const bool stdin_open = in != conns_.end() && !in->second.hung_up;
    if (!stdin_open && listen_fd_ < 0) break;  // nothing left to serve
    const bool read_stdin = stdin_open && !stdin_polled;
    const int n = ::epoll_wait(ep_, events, 64, read_stdin ? 0 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;  // signal: retry silently
      std::perror("epoll_wait");
      break;
    }
    for (int i = 0; i < n && !stop_.load(std::memory_order_acquire); ++i) {
      const std::uint64_t tag = events[i].data.u64;
      if (tag == kWakeTag) {
        char scratch[256];
        while (::read(wake_rd_, scratch, sizeof(scratch)) > 0) {
        }
      } else if (tag == kListenerTag) {
        accept_clients();
      } else {
        on(static_cast<int>(tag), events[i].events);
      }
    }
    if (read_stdin && !stop_.load(std::memory_order_acquire)) {
      on(kStdio, EPOLLIN);
    }
    // Bound latency: staged raw lines ride to the shard queues, and every
    // response posted so far goes out, before the loop waits again
    // (route_raw auto-flushes only at full batches). A connection that
    // deliver() resumes dispatches more lines, which go out the same way.
    do {
      svc_->flush();
    } while (deliver());
  }
}

Daemon::Conn* Daemon::file(int conn, std::uint64_t conn_seq,
                           std::string line) {
  const auto it = conns_.find(conn);
  if (it == conns_.end()) return nullptr;  // connection gone: dropped
  Conn& c = it->second;
  if (conn_seq != c.next) {
    c.held.emplace(conn_seq, std::move(line));
  } else {
    c.unsent += line;
    c.unsent += '\n';
    ++c.next;
    for (auto h = c.held.begin(); h != c.held.end() && h->first == c.next;
         h = c.held.erase(h)) {
      c.unsent += h->second;
      c.unsent += '\n';
      ++c.next;
    }
  }
  if (!c.dirty) {
    c.dirty = true;
    dirty_.push_back(conn);
  }
  return &c;
}

void Daemon::take_in() {
  {
    std::lock_guard<std::mutex> lock(posted_mu_);
    if (posted_.empty()) return;
    taking_.swap(posted_);
  }
  for (Posted& p : taking_) file(p.conn, p.conn_seq, std::move(p.line));
  taking_.clear();
}

bool Daemon::deliver() {
  take_in();
  bool resumed = false;
  // By index: a resumed connection's dispatch takes in, and lists, more.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    const auto it = conns_.find(dirty_[i]);
    if (it == conns_.end()) continue;
    Conn& c = it->second;
    c.dirty = false;
    const bool was_paused = c.paused;
    // Bytes already waiting for EPOLLOUT: sending now could not get past
    // them.
    if ((c.events & EPOLLOUT) == 0) send_some(c);
    if (!settle(c)) {
      close_conn(it);
    } else if (was_paused && !c.paused) {
      // Its answers brought it back under kMaxInFlight.
      resumed = true;
      if (!serve_lines(c)) close_conn(it);
    }
  }
  dirty_.clear();
  return resumed;
}

bool Daemon::on_event(Conn& c, std::uint32_t events) {
  // A connection that reads no more has nothing left to do once its
  // client is gone. Otherwise EPOLLHUP/EPOLLERR can still come with
  // buffered requests; read() tells definitively.
  const bool gone = (events & (EPOLLHUP | EPOLLERR)) != 0;
  if (gone && (c.paused || c.hung_up)) return false;
  if ((events & EPOLLOUT) != 0 && !send_pending(c)) return false;
  if (c.paused || c.hung_up || ((events & EPOLLIN) == 0 && !gone)) {
    return true;
  }
  if (read_chunk(c)) return serve_lines(c);
  // EOF: the client sent its last request. The connection closes once
  // every response it is owed is sent.
  flush_partial(c);
  c.hung_up = true;
  c.due = c.conn_seq;
  if (c.id == kStdio) {
    // stdout never waits for EPOLLOUT, and a pipe at EOF would report
    // EPOLLHUP on every wait.
    ::epoll_ctl(ep_, EPOLL_CTL_DEL, c.fd, nullptr);
    c.events = 0;
  }
  return send_pending(c);
}

bool Daemon::serve_lines(Conn& c) {
  while (!dispatch_lines(c) && !stop_.load(std::memory_order_acquire)) {
    // c reached a cap: stop reading until EPOLLOUT or its answers bring it
    // back under, unless the socket has taken enough already.
    send_some(c);
    if (!settle(c)) return false;
    if (c.paused) return true;
  }
  return true;
}

bool Daemon::send_pending(Conn& c) {
  const bool was_paused = c.paused;
  send_some(c);
  if (!settle(c)) return false;
  return !was_paused || c.paused || serve_lines(c);
}

void Daemon::send_some(Conn& c) {
  if (c.id == kStdio) {
    std::fwrite(c.unsent.data(), 1, c.unsent.size(), stdout);
    std::fflush(stdout);
    c.unsent.clear();
    return;
  }
  std::size_t off = 0;
  while (off < c.unsent.size()) {
    const ssize_t n = ::send(c.fd, c.unsent.data() + off,
                             c.unsent.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      // The client is gone (EPIPE, ECONNRESET): it loses its responses,
      // and the loop closes the fd.
      c.broken = true;
      off = c.unsent.size();
    }
  }
  c.unsent.erase(0, off);
}

bool Daemon::settle(Conn& c) {
  if (c.done()) return false;
  // A connection paused at kMaxInFlight resumes once half its requests
  // are answered, so it dispatches whole batches again.
  c.paused = c.unsent.size() > kMaxUnsentBytes ||
             c.in_flight() >= (c.paused ? kMaxInFlight / 2 : kMaxInFlight);
  const std::uint32_t events = (c.paused || c.hung_up ? 0u : EPOLLIN) |
                               (c.unsent.empty() ? 0u : EPOLLOUT);
  if (events != c.events) {
    c.events = events;
    watch(ep_, EPOLL_CTL_MOD, c.fd, events, static_cast<std::uint64_t>(c.id));
  }
  return true;
}

std::map<int, Daemon::Conn>::iterator Daemon::close_conn(
    std::map<int, Conn>::iterator it) {
  ::epoll_ctl(ep_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  if (it->first != kStdio) ::close(it->second.fd);
  return conns_.erase(it);
}

void Daemon::close_connections() {
  // Every response is filed by now (the loop has exited, the shards are
  // drained and their last responses taken in); what the sockets have not
  // taken goes out as the clients read it, for kShutdownGrace at most.
  const auto deadline = std::chrono::steady_clock::now() + kShutdownGrace;
  std::vector<pollfd> writable;
  for (;;) {
    writable.clear();
    for (auto it = conns_.begin(); it != conns_.end();) {
      send_some(it->second);
      if (it->second.unsent.empty()) {
        it = close_conn(it);
      } else {
        writable.push_back(pollfd{it->second.fd, POLLOUT, 0});
        ++it;
      }
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (conns_.empty() || left.count() <= 0) break;
    ::poll(writable.data(), writable.size(), static_cast<int>(left.count()));
  }
  while (!conns_.empty()) close_conn(conns_.begin());
}

bool Daemon::read_chunk(Conn& c) {
  char chunk[65536];
  ssize_t n;
  for (;;) {
    n = ::read(c.fd, chunk, sizeof(chunk));
    if (n >= 0 || errno != EINTR) break;  // EINTR: retry, no logging
  }
  if (n == 0) return false;  // EOF
  if (n < 0) return errno == EAGAIN || errno == EWOULDBLOCK;
  c.buf.append(chunk, static_cast<std::size_t>(n));
  return true;
}

bool Daemon::dispatch_lines(Conn& c) {
  // Only the new bytes are searched: buf[0, scanned) is known newline-free.
  std::size_t start = 0;
  std::size_t from = c.scanned;
  bool held = false;
  for (;;) {
    // Checked per line: one read holds thousands of requests, and each
    // may have a large response. The responses posted so far count.
    take_in();
    if (stop_.load(std::memory_order_acquire) ||
        c.unsent.size() > kMaxUnsentBytes || c.in_flight() >= kMaxInFlight) {
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
      dispatch(c.buf.substr(start, nl - start), c);
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

void Daemon::flush_partial(Conn& c) {
  // A final line without a trailing newline still counts at EOF.
  if (!c.buf.empty() && !c.overlong &&
      !stop_.load(std::memory_order_acquire)) {
    dispatch(std::move(c.buf), c);
  }
  c.buf.clear();
  c.scanned = 0;
  c.overlong = false;
}

void Daemon::reject_overlong(Conn& c) {
  const std::uint64_t seq = seq_++;
  post(c.id, c.conn_seq++,
       error_response(seq, "line exceeds " + std::to_string(kMaxLineBytes) +
                               " bytes")
           .dump(0));
}

void Daemon::dispatch(std::string line, Conn& c) {
  if (line.empty()) return;
  const std::uint64_t seq = seq_++;
  const std::uint64_t conn_seq = c.conn_seq++;

  const Peeked peek = peek_request(line);
  if (peek.routable()) {
    // Fast path: ship the raw line; the shard's drain parses it.
    svc_->route_raw(peek.island, peek.op, std::move(line), seq, c.id,
                    conn_seq);
    return;
  }

  // Peek miss (STATS, METRICS, SHUTDOWN, or a SUBMIT the peek cannot route,
  // such as "island":2.0): full parse here on the loop.
  Parsed p = parse_request(line);
  if (!p.ok) {
    post(c.id, conn_seq, error_response(seq, p.error).dump(0));
    return;
  }
  p.request.seq = seq;
  p.request.conn = c.id;
  p.request.conn_seq = conn_seq;
  if (p.request.op == Op::kSubmit || p.request.op == Op::kQuery) {
    svc_->route(std::move(p.request));
    return;
  }
  // Service-wide barrier: the loop is the only producer, so with its
  // staging flushed, the drain inside stats()/metrics() (and drain_all()
  // for SHUTDOWN) leaves a quiesced pipeline for the obs snapshot, and the
  // answer counts every request dispatched before it.
  svc_->flush();
  Json resp;
  if (p.request.op == Op::kStats) {
    resp = svc_->stats(seq);
  } else if (p.request.op == Op::kMetrics) {
    resp = svc_->metrics(seq);
  } else {
    svc_->drain_all();
    resp = ok_response(Op::kShutdown, seq);
    resp.set("requests", svc_->requests_processed());
    resp.set("uptime_s", svc_->uptime_s());
    // Final exposition snapshot: a supervisor that only sees the SHUTDOWN
    // response still gets the closing counters.
    resp.set("metrics", svc_->metrics_text());
    request_stop();
  }
  post(c.id, conn_seq, resp.dump(0));
}

}  // namespace sdem::service
