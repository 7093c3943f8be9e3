// Live daemon for the online scheduling service (docs/service.md §4–5).
//
// Extracted from tools/sdem_service.cpp so the network frontend is
// testable in-process (tests/test_daemon.cpp starts one on an ephemeral
// port, fragments requests across TCP writes, and checks response order).
//
// Threading: `acceptors` poll loops, each an ingest *producer* of the
// Service pipeline (service.hpp). Acceptor 0 owns stdin and the TCP
// listener; accepted connections are handed out round-robin over wake
// pipes and then belong to exactly one acceptor for life — which is what
// keeps each (producer, shard) ring single-producer and each connection's
// request stream in arrival order. An acceptor that finds a shard's drain
// short runs it itself (read, parse, commit, dump and write on one thread);
// longer drains go to the `shards`-thread pool.
//
// Per-connection response order is restored by a reorder buffer keyed on
// Request::conn_seq (shards complete out of order; two connections'
// responses may interleave, one connection's never do). Connections are
// addressed by monotone ids, not fds, so a recycled fd can never receive
// another connection's responses; the fd is invalidated under the writer
// lock before ::close.
//
// STATS, METRICS and SHUTDOWN are service-wide barriers: the dispatching
// acceptor stops the other acceptors at a shared/exclusive gate, flushes
// its own staging, and drains every shard, so the obs snapshot (and the
// windowed METRICS cells) read quiesced state.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
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
  std::size_t queue_capacity = 1024;
  /// When > 0 and metrics_path is set, a background thread writes the
  /// Prometheus exposition (Service::metrics_text()) to metrics_path every
  /// interval, truncating — the file always holds the latest snapshot.
  /// Each tick takes the exclusive barrier, so scrapes see quiesced cells.
  double metrics_interval_s = 0.0;
  std::string metrics_path;
};

class Daemon {
 public:
  /// Longest request line a connection may send, newline excluded. A longer
  /// line gets one error envelope in its conn_seq slot; its bytes up to the
  /// next '\n' are dropped unbuffered and the connection keeps serving.
  static constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

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
  /// Per-connection reorder buffer; emits each connection's responses in
  /// conn_seq order. Connection id 0 is stdout.
  class ResponseWriter {
   public:
    /// Register a connection; returns its id (0 = the stdout pseudo-conn
    /// registered by the constructor with fd -1).
    int add_conn(int fd);
    /// Invalidate the fd under the lock, close it, and drop undelivered
    /// responses. After this, deposits for `id` are discarded.
    void close_conn(int id);
    /// Queue `line` (no trailing newline) as response `conn_seq` and write
    /// every response that is now next in order.
    void deposit(int conn_id, std::uint64_t conn_seq, std::string line);

    ResponseWriter();

   private:
    struct ConnState {
      int fd = -1;
      std::uint64_t next = 0;
      std::map<std::uint64_t, std::string> held;
    };
    /// Write one newline-terminated line to fd (-1 = stdout).
    static void write_line(int fd, const std::string& line);

    std::mutex mu_;
    std::map<int, ConnState> conns_;
    int next_id_ = 1;
  };

  struct Conn {
    int id = -1;
    int fd = -1;
    std::uint64_t conn_seq = 0;  ///< next request's per-connection index
    std::string buf;             ///< partial (unterminated) line
    std::size_t scanned = 0;     ///< leading bytes of buf known '\n'-free
    bool overlong = false;       ///< dropping a rejected line up to its '\n'
  };

  struct Acceptor {
    int index = 0;
    int wake_rd = -1;
    int wake_wr = -1;
    std::mutex inbox_mu;
    std::vector<Conn> inbox;  ///< connections handed over by acceptor 0
    std::map<int, Conn> conns;  ///< fd -> connection (owned by this loop)
  };

  bool open_listener();
  void accept_clients();
  void acceptor_loop(Acceptor& a);
  /// Read once from fd (retrying EINTR), dispatch complete lines, and
  /// enforce kMaxLineBytes. Returns false on EOF or a hard error — the
  /// caller flushes the partial line and closes.
  bool read_chunk(Acceptor& a, int fd, Conn& c);
  void flush_partial(Acceptor& a, Conn& c);
  void dispatch(Acceptor& a, const std::string& line, Conn& c);
  /// Answer an over-long line with an error envelope in its conn_seq slot.
  void reject_overlong(Conn& c);
  void wake(Acceptor& a);
  /// Body of the periodic metrics-snapshot thread (--metrics-interval).
  void metrics_loop();

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

  /// Wakes the metrics thread early on shutdown (it otherwise sleeps a
  /// full interval between snapshots).
  std::mutex metrics_mu_;
  std::condition_variable metrics_cv_;
  std::thread metrics_thread_;

  std::mutex port_mu_;
  std::condition_variable port_cv_;
  int bound_port_ = -2;  ///< -2 = not yet known, -1 = none/failed
  int listen_fd_ = -1;
};

}  // namespace sdem::service
