// Live daemon for the online scheduling service (docs/service.md §4–5).
//
// Extracted from tools/sdem_service.cpp so the network frontend is
// testable in-process (tests/test_daemon.cpp starts one on an ephemeral
// port, fragments requests across TCP writes, and checks response order).
//
// Threading: one epoll event loop, the Service's only ingest *producer*
// (service.hpp), owns every connection: stdin/stdout, the TCP listener and
// each accepted socket. It alone reads, sends, closes and writes stdout. A
// short shard drain runs on the loop, which sends its response at once;
// longer drains go to the `shards`-thread pool and post each response to
// one mutex-guarded list, waking the loop when the list was empty. The
// loop takes the list in after every flush() and before each line it
// dispatches, files responses into per-connection reorder buffers (shards
// complete out of order), and sends each connection once. Connections are
// addressed by monotone ids, so a recycled fd never gets another's bytes.
//
// Sockets are non-blocking: the bytes a socket does not take wait in the
// connection's buffer for EPOLLOUT, so no drain and no other connection
// ever waits on one client. A client that hung up is closed once it has
// been sent every response it is owed; when the daemon stops, run() gives
// the rest kShutdownGrace to read.
//
// STATS, METRICS and SHUTDOWN are service-wide barriers: the loop flushes
// its staging and the Service drains every shard, so the obs snapshot (and
// the windowed METRICS cells) read quiesced state.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/service.hpp"
#include "support/thread_pool.hpp"

namespace sdem::service {

struct DaemonOptions {
  std::string policy = "sdem-on";
  int shards = 1;
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
  /// the kMaxInFlight requests already handed to the shards, and never
  /// holds up another connection.
  static constexpr std::size_t kMaxUnsentBytes = std::size_t{1} << 20;

  /// Requests one connection may have in the shards, dispatched and not
  /// yet answered. At this many the daemon dispatches none of that
  /// connection's lines and reads no more of them until half are answered.
  /// Half a shard queue (1024): a client that pipelines faster than its
  /// shard drains cannot fill the queue, so the event loop never waits on
  /// it and no other connection waits behind it.
  static constexpr std::uint64_t kMaxInFlight = 512;

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
  /// One connection, request side and response side; only the loop touches
  /// it. Id 0 is stdin, answered on stdout.
  struct Conn {
    int id = -1;
    int fd = -1;
    std::uint64_t conn_seq = 0;  ///< next request's per-connection index
    std::string buf;             ///< lines not yet dispatched
    std::size_t scanned = 0;     ///< leading bytes of buf known '\n'-free
    bool overlong = false;       ///< dropping a rejected line up to its '\n'
    bool paused = false;   ///< not reading: past a cap above
    bool hung_up = false;  ///< read EOF: only responses are left to send
    std::uint32_t events = 0;  ///< the epoll interest registered for fd
    std::uint64_t next = 0;    ///< conn_seq of the next response to emit
    /// Responses owed in all; set when the client hangs up.
    std::uint64_t due = std::numeric_limits<std::uint64_t>::max();
    std::map<std::uint64_t, std::string> held;  ///< ahead of their turn
    std::string unsent;   ///< emitted, not yet taken by the socket
    bool broken = false;  ///< the socket failed; output is dropped
    bool dirty = false;   ///< listed in dirty_: responses filed this turn
    bool done() const { return broken || (next == due && unsent.empty()); }
    /// Requests dispatched and not yet answered in order. stdin's count as
    /// none: the operator's own pipe keeps the shard queues' blocking
    /// backpressure and is never paused, since a pipe at EOF reports
    /// EPOLLHUP even to an empty interest.
    std::uint64_t in_flight() const { return id == 0 ? 0 : conn_seq - next; }
  };

  /// A finished response on its way from a drain to the loop.
  struct Posted {
    int conn;
    std::uint64_t conn_seq;
    std::string line;  ///< no trailing newline
  };

  bool open_listener();
  void accept_clients();
  /// The event loop itself; returns once the daemon stops.
  void serve();
  /// The Service's callback: on the loop a response is filed and sent at
  /// once; a pool worker queues it in posted_.
  void post(int conn, std::uint64_t conn_seq, std::string line);
  /// File a response into its connection's reorder buffer. Null when the
  /// connection is gone.
  Conn* file(int conn, std::uint64_t conn_seq, std::string line);
  /// File every queued response.
  void take_in();
  /// take_in(), then send and settle the connections that got responses.
  /// Returns whether it resumed one, which may have staged lines to flush.
  bool deliver();
  /// Read once from c.fd (retrying EINTR) and append to c.buf. Returns
  /// false on EOF or a hard error.
  bool read_chunk(Conn& c);
  /// Dispatch c.buf's complete lines and enforce kMaxLineBytes. Stops,
  /// leaving lines in buf, when the daemon stops or c reaches
  /// kMaxUnsentBytes or kMaxInFlight; returns false then.
  bool dispatch_lines(Conn& c);
  /// Handle one epoll event on a connection. Returns false once the
  /// connection is done and to be closed.
  bool on_event(Conn& c, std::uint32_t events);
  /// dispatch_lines() while c's backlog allows, pausing c when it does not.
  bool serve_lines(Conn& c);
  /// Send c's unsent responses as far as the socket takes them, and resume
  /// its held lines if that lifts its pause.
  bool send_pending(Conn& c);
  /// Send as much of c.unsent as the socket takes without blocking.
  void send_some(Conn& c);
  /// Pause c past a cap and fit its epoll interest (EPOLLOUT while bytes
  /// are unsent, EPOLLIN unless paused). False once c is done.
  bool settle(Conn& c);
  std::map<int, Conn>::iterator close_conn(std::map<int, Conn>::iterator it);
  /// On stop: send the clients their unread responses for up to
  /// kShutdownGrace, then close every connection.
  void close_connections();
  void flush_partial(Conn& c);
  void dispatch(std::string line, Conn& c);
  /// Answer an over-long line with an error envelope in its conn_seq slot.
  void reject_overlong(Conn& c);
  void wake();

  DaemonOptions opt_;
  int wake_rd_ = -1;  ///< the loop's wake pipe, made with the Daemon
  int wake_wr_ = -1;
  std::thread::id loop_thread_;  ///< run()'s thread: files its own posts

  /// Guards posted_: pool workers' finished responses the loop has not
  /// taken in yet.
  std::mutex posted_mu_;
  std::vector<Posted> posted_;
  std::vector<Posted> taking_;  ///< the loop's side of the swap

  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<Service> svc_;

  int ep_ = -1;  ///< the loop's epoll set
  std::map<int, Conn> conns_;  ///< id -> connection
  std::vector<int> dirty_;     ///< connections with responses filed
  int next_id_ = 1;
  std::uint64_t seq_ = 0;
  std::atomic<bool> stop_{false};

  std::mutex port_mu_;
  std::condition_variable port_cv_;
  int bound_port_ = -2;  ///< -2 = not yet known, -1 = none/failed
  int listen_fd_ = -1;
};

}  // namespace sdem::service
