// Live daemon for the online scheduling service (docs/service.md §4–5).
//
// Extracted from tools/sdem_service.cpp so the network frontend is
// testable in-process (tests/test_daemon.cpp starts one on an ephemeral
// port, fragments requests across TCP writes, and checks response order).
//
// Threading: `acceptors` epoll loops, each an ingest *producer* of the
// Service pipeline (service.hpp). Acceptor 0 owns stdin and the TCP
// listener; accepted connections are handed out round-robin over wake
// pipes and then belong to exactly one acceptor for life — which is what
// keeps each connection's request stream in arrival order. An acceptor
// that finds a shard's drain short runs it itself (read, parse, commit,
// dump and write on one thread); longer drains go to the `shards`-thread
// pool.
//
// Per-connection response order is restored by a reorder buffer keyed on
// Request::conn_seq (shards complete out of order; two connections'
// responses may interleave, one connection's never do). Connections are
// addressed by monotone ids, not fds, so a recycled fd can never receive
// another connection's responses. Sockets are non-blocking: whoever emits a
// response sends what the socket takes, and the connection's own acceptor
// sends the rest once the socket is writable again, so no drain and no
// acceptor ever waits on one client. Only that acceptor closes the fd, once
// a client that hung up has been sent every response it is owed or its
// socket fails; when the daemon stops, run() closes the rest after every
// acceptor has exited, giving the clients kShutdownGrace to read.
//
// STATS, METRICS and SHUTDOWN are service-wide barriers: the dispatching
// acceptor stops the other acceptors at a shared/exclusive gate, flushes
// its own staging, and drains every shard, so the obs snapshot (and the
// windowed METRICS cells) read quiesced state.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"
#include "support/thread_pool.hpp"

namespace sdem::service {

struct DaemonOptions {
  std::string policy = "sdem-on";
  int shards = 1;
  /// Ingest/poll threads; connections are assigned round-robin. More than
  /// one only pays off when many slow clients or peek-miss lines (parsed on
  /// the acceptor) dominate. Each acceptor also runs the short drains it
  /// schedules (service.hpp), so more acceptors run more of them in
  /// parallel.
  int acceptors = 1;
  int port = -1;           ///< -1 = no TCP; 0 = pick a free port
  bool use_stdin = true;   ///< serve requests on stdin/stdout (CLI mode)
};

class Daemon {
 public:
  /// Longest request line a connection may send, newline excluded. A longer
  /// line gets one error envelope in its conn_seq slot; its bytes up to the
  /// next '\n' are dropped unbuffered and the connection keeps serving.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

  /// Response bytes a connection may have waiting for its client to read.
  /// Past this the daemon dispatches none of that connection's request
  /// lines (it checks before each one) and reads no more of them, and
  /// resumes once the client has read the backlog back under it; the
  /// connection stays open and loses nothing. A client that pipelines
  /// without reading thus holds at most this much plus the responses to
  /// requests already handed to the shards, and never holds up another
  /// connection.
  static constexpr std::size_t kMaxUnsentBytes = std::size_t{1} << 20;

  /// How long a stopping daemon keeps sending the responses its clients
  /// have not read yet before it closes their connections.
  static constexpr std::chrono::milliseconds kShutdownGrace{5000};

  explicit Daemon(DaemonOptions opt);
  ~Daemon();

  /// Serve until SHUTDOWN, stdin EOF (with no TCP surface), or
  /// request_stop(). Blocking; returns a process exit code.
  int run();

  /// The bound TCP port. Blocks until the listener is up (or run() failed
  /// to bind); -1 when TCP is disabled or binding failed. Safe to call
  /// from another thread while run() serves.
  int port();

  /// Ask a running daemon to stop (thread-safe, idempotent).
  void request_stop();

  std::uint64_t requests_processed() const;

 private:
  struct Acceptor;

  /// Per-connection response side: a reorder buffer that emits responses
  /// in conn_seq order, and the emitted bytes the socket has not taken yet.
  /// Any thread may deposit; only the connection's acceptor flushes the
  /// rest and closes the fd. Connection id 0 is stdout.
  class ResponseWriter {
   public:
    ResponseWriter();
    /// Register a non-blocking socket served by `owner`; returns its id.
    /// `*full` is pointed at a flag that is set while more than
    /// kMaxUnsentBytes of its responses wait; it lives until close_conn.
    int add_conn(int fd, Acceptor* owner, const std::atomic<bool>** full);
    /// Drop undelivered responses and close the fd (the owner only). After
    /// this, deposits for `id` are discarded.
    void close_conn(int id);
    /// Queue `line` (no trailing newline) as response `conn_seq`, and send
    /// every response that is now next in order as far as the socket takes
    /// it without blocking. The owner is told when bytes start waiting for
    /// EPOLLOUT, when they pass kMaxUnsentBytes, and when the connection
    /// is done (see flush).
    void deposit(int conn_id, std::uint64_t conn_seq, std::string line);
    /// Send what the socket takes now (the owner, on EPOLLOUT or when told).
    /// Returns the bytes still unsent, or npos once the connection is done:
    /// it is gone, its socket failed, or its client hung up and has been
    /// sent every response it is owed.
    std::size_t flush(int conn_id);
    /// flush(), after the client hung up: `due` responses are owed in all.
    std::size_t hang_up(int conn_id, std::uint64_t due);

   private:
    struct Outbox {
      std::mutex mu;
      int fd = -1;  ///< -1 = stdout
      Acceptor* owner = nullptr;
      std::uint64_t next = 0;  ///< conn_seq of the next response to emit
      /// Responses owed in all; set when the client hangs up.
      std::uint64_t due = std::numeric_limits<std::uint64_t>::max();
      std::map<std::uint64_t, std::string> held;  ///< ahead of their turn
      std::string unsent;      ///< emitted, waiting for the owner's EPOLLOUT
      bool broken = false;     ///< the socket failed; output is dropped
      std::atomic<bool> full{false};  ///< unsent.size() > kMaxUnsentBytes
      bool done() const { return broken || (next == due && unsent.empty()); }
    };
    /// Send as much of ob.unsent as the socket takes without blocking.
    static void send_some(Outbox& ob);

    std::mutex mu_;  ///< guards conns_ for lookups; no I/O happens under it
    std::map<int, std::unique_ptr<Outbox>> conns_;
    int next_id_ = 1;
  };

  struct Conn {
    int id = -1;
    int fd = -1;
    std::uint64_t conn_seq = 0;  ///< next request's per-connection index
    std::string buf;             ///< lines not yet dispatched
    std::size_t scanned = 0;     ///< leading bytes of buf known '\n'-free
    bool overlong = false;       ///< dropping a rejected line up to its '\n'
    /// The writer's over-kMaxUnsentBytes flag (null for stdout).
    const std::atomic<bool>* full = nullptr;
    bool paused = false;   ///< not reading: unsent > kMaxUnsentBytes
    bool hung_up = false;  ///< read EOF: only responses are left to send
    std::uint32_t events = 0;  ///< the epoll interest registered for fd
  };

  struct Acceptor {
    int index = 0;
    int ep = -1;  ///< the loop's epoll set
    int wake_rd = -1;
    int wake_wr = -1;
    std::mutex inbox_mu;
    std::vector<Conn> inbox;  ///< connections handed over by acceptor 0
    /// Connections whose unsent responses changed state (see deposit).
    std::vector<int> want_write;
    std::map<int, Conn> conns;  ///< id -> connection (owned by this loop)
  };

  bool open_listener();
  void accept_clients();
  void acceptor_loop(Acceptor& a);
  /// Read once from fd (retrying EINTR) and append to c.buf. Returns false
  /// on EOF or a hard error.
  bool read_chunk(int fd, Conn& c);
  /// Dispatch c.buf's complete lines and enforce kMaxLineBytes. Stops,
  /// leaving lines in buf, when the daemon stops or c.full is set; returns
  /// false then.
  bool dispatch_lines(Acceptor& a, Conn& c);
  /// Handle one epoll event on a client connection. Returns false once the
  /// connection is done and to be closed.
  bool on_event(Acceptor& a, Conn& c, std::uint32_t events);
  /// dispatch_lines() while c's backlog allows, pausing c when it does not.
  bool serve_lines(Acceptor& a, Conn& c);
  /// Send c's unsent responses as far as the socket takes them, and resume
  /// its held lines once the backlog is back under kMaxUnsentBytes.
  bool send_pending(Acceptor& a, Conn& c);
  /// Fit c's epoll interest to a flush() result: EPOLLOUT while responses
  /// are unsent, EPOLLIN while reading is allowed. False on npos.
  bool settle(Acceptor& a, Conn& c, std::size_t unsent);
  /// On stop: send the clients their unread responses for up to
  /// kShutdownGrace, then close every connection.
  void close_connections();
  void flush_partial(Acceptor& a, Conn& c);
  void dispatch(Acceptor& a, std::string line, Conn& c);
  /// Answer an over-long line with an error envelope in its conn_seq slot.
  void reject_overlong(Conn& c);
  static void wake(Acceptor& a);

  DaemonOptions opt_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Service> svc_;
  ResponseWriter writer_;
  std::vector<std::unique_ptr<Acceptor>> acceptors_;

  /// Routable dispatches hold this shared; STATS/SHUTDOWN hold it
  /// exclusive so the service-wide drain (and obs snapshot) sees no
  /// concurrent producers.
  std::shared_mutex barrier_mu_;

  /// Guards acceptors_ construction/teardown in run() against the wake
  /// sweep in request_stop(); the acceptor loops themselves only touch the
  /// vector while it is stable (after startup, before the joins).
  std::mutex acceptors_mu_;

  std::atomic<std::uint64_t> seq_{0};
  std::atomic<int> next_acceptor_{0};
  std::atomic<bool> stop_{false};

  std::mutex port_mu_;
  std::condition_variable port_cv_;
  int bound_port_ = -2;  ///< -2 = not yet known, -1 = none/failed
  int listen_fd_ = -1;
};

}  // namespace sdem::service
