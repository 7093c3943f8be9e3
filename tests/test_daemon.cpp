// In-process daemon tests (src/service/daemon.hpp): ephemeral-port TCP,
// requests fragmented across writes (the poll-loop partial-read
// regression), per-connection response ordering across two pipelined
// connections, a two-connection closed loop drained on the event loop,
// pipelined pairs answered without a delayed-ACK stall, a client that stops
// reading or disconnects mid-line without holding up another connection,
// the backlog cap checked per line, every response delivered before a close
// on SHUTDOWN or on the client's hang-up, malformed, peek-miss and
// over-long lines answered in order, and clean SHUTDOWN.
#include "service/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "support/json.hpp"

namespace sdem::service {
namespace {

// The daemon writes to sockets the peer may have closed; EPIPE is handled,
// the signal must not kill the test binary.
const struct IgnoreSigpipe {
  IgnoreSigpipe() { std::signal(SIGPIPE, SIG_IGN); }
} g_ignore_sigpipe;

/// run() on a background thread; port() blocks until the listener is up.
struct DaemonHarness {
  explicit DaemonHarness(DaemonOptions opt) {
    opt.port = 0;
    opt.use_stdin = false;
    daemon = std::make_unique<Daemon>(std::move(opt));
    thread = std::thread([this] { rc = daemon->run(); });
    port = daemon->port();
  }
  ~DaemonHarness() {
    daemon->request_stop();
    if (thread.joinable()) thread.join();
  }

  std::unique_ptr<Daemon> daemon;
  std::thread thread;
  int port = -1;
  int rc = -1;
};

/// Blocking line-oriented TCP client with a 10 s receive timeout so a
/// daemon bug fails the test instead of hanging CI. `socket_buffer` > 0
/// shrinks both kernel socket buffers before connecting.
struct LineClient {
  explicit LineClient(int port, int socket_buffer = 0) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    timeval tv{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    if (socket_buffer > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &socket_buffer,
                   sizeof(socket_buffer));
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &socket_buffer,
                   sizeof(socket_buffer));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0)
        << std::strerror(errno);
  }
  ~LineClient() {
    if (fd >= 0) ::close(fd);
  }

  void send(const std::string& bytes) const {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  /// One response line (without the newline); fails the test on timeout.
  std::string recv_line() {
    for (;;) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      EXPECT_GT(n, 0) << "recv timed out or connection closed";
      if (n <= 0) return {};
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }

  int fd = -1;
  std::string buf;
};

std::string submit_line(int island, int id, double release) {
  Json task = Json::object();
  task.set("id", id);
  task.set("release", release);
  task.set("deadline", release + 1.0);
  task.set("work", 0.05);
  Json req = Json::object();
  req.set("op", "SUBMIT");
  req.set("island", island);
  req.set("task", std::move(task));
  return req.dump(0);
}

/// One sdem_shard_drains_total sample from a METRICS body; -1 if absent.
double shard_drains(const std::string& body, int shard,
                    const std::string& where) {
  const std::string key = "sdem_shard_drains_total{shard=\"" +
                          std::to_string(shard) + "\",where=\"" + where +
                          "\"} ";
  const std::size_t at = body.find(key);
  return at == std::string::npos ? -1.0
                                 : std::stod(body.substr(at + key.size()));
}

TEST(Daemon, FragmentedSubmitAcrossTwoTcpWrites) {
  // Regression: a SUBMIT split mid-line across two TCP writes must be
  // reassembled by the poll loop, not dispatched per read().
  DaemonOptions opt;
  opt.shards = 2;
  DaemonHarness h(opt);
  ASSERT_GT(h.port, 0);
  LineClient c(h.port);

  const std::string line = submit_line(0, 1, 0.0) + "\n";
  const std::size_t cut = line.size() / 2;
  c.send(line.substr(0, cut));
  // Let the daemon's poll loop observe (and buffer) the first fragment.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  c.send(line.substr(cut));

  const Json resp = Json::parse(c.recv_line());
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump(0);
  EXPECT_EQ(resp.at("op").as_string(), "SUBMIT");
  EXPECT_EQ(resp.at("id").as_number(), 1.0);
}

TEST(Daemon, ManyFragmentsOneByteAtATime) {
  DaemonOptions opt;
  opt.shards = 1;
  DaemonHarness h(opt);
  LineClient c(h.port);
  const std::string line = submit_line(3, 7, 0.0) + "\n";
  for (char ch : line) c.send(std::string(1, ch));
  const Json resp = Json::parse(c.recv_line());
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump(0);
  EXPECT_EQ(resp.at("id").as_number(), 7.0);
}

TEST(Daemon, DisconnectMidLineLeavesTheOtherConnectionsServed) {
  // A client sends half a SUBMIT line and closes. The daemon answers the
  // fragment (a final line without its newline still counts), finds the
  // client gone, closes its connection, and serves the next one as usual.
  DaemonOptions opt;
  opt.shards = 2;
  DaemonHarness h(opt);
  {
    LineClient a(h.port);
    const std::string line = submit_line(0, 1, 0.0);
    a.send(line.substr(0, line.size() / 2));
  }
  LineClient b(h.port);
  b.send(submit_line(0, 2, 0.0) + "\n{\"op\":\"QUERY\",\"island\":0}\n");
  const Json submitted = Json::parse(b.recv_line());
  ASSERT_TRUE(submitted.at("ok").as_bool()) << submitted.dump(0);
  EXPECT_EQ(submitted.at("op").as_string(), "SUBMIT");
  EXPECT_EQ(submitted.at("id").as_number(), 2.0);
  const Json queried = Json::parse(b.recv_line());
  ASSERT_TRUE(queried.at("ok").as_bool()) << queried.dump(0);
  EXPECT_EQ(queried.at("op").as_string(), "QUERY");
  b.send("{\"op\":\"SHUTDOWN\"}\n");
  EXPECT_EQ(Json::parse(b.recv_line()).at("op").as_string(), "SHUTDOWN");
  h.thread.join();
  EXPECT_EQ(h.rc, 0);
}

TEST(Daemon, MalformedLineAnsweredInOrder) {
  // good / malformed / good in one write: three responses, per-connection
  // order preserved, the middle one an error envelope.
  DaemonOptions opt;
  opt.shards = 2;
  DaemonHarness h(opt);
  LineClient c(h.port);
  c.send(submit_line(0, 1, 0.0) + "\n" +
         "{\"op\":\"SUBMIT\",\"island\":0,\"task\":{\"id\":2}}\n" +
         submit_line(0, 3, 0.0) + "\n");
  const Json r1 = Json::parse(c.recv_line());
  const Json r2 = Json::parse(c.recv_line());
  const Json r3 = Json::parse(c.recv_line());
  EXPECT_TRUE(r1.at("ok").as_bool());
  EXPECT_EQ(r1.at("id").as_number(), 1.0);
  EXPECT_FALSE(r2.at("ok").as_bool());
  EXPECT_NE(r2.find("error"), nullptr);
  EXPECT_TRUE(r3.at("ok").as_bool());
  EXPECT_EQ(r3.at("id").as_number(), 3.0);
}

TEST(Daemon, PerConnectionOrderWithTwoPipelinedConnections) {
  // Two pipelined connections, each submitting to its own island: every
  // connection must see its own responses in its own request order,
  // whatever the shards do.
  DaemonOptions opt;
  opt.shards = 4;
  DaemonHarness h(opt);
  LineClient a(h.port);
  LineClient b(h.port);

  constexpr int kN = 50;
  std::string batch_a;
  std::string batch_b;
  for (int i = 0; i < kN; ++i) {
    batch_a += submit_line(0, i, 0.001 * i) + "\n";
    batch_b += submit_line(1, 1000 + i, 0.001 * i) + "\n";
  }
  a.send(batch_a);
  b.send(batch_b);
  for (int i = 0; i < kN; ++i) {
    const Json ra = Json::parse(a.recv_line());
    ASSERT_TRUE(ra.at("ok").as_bool()) << ra.dump(0);
    EXPECT_EQ(ra.at("island").as_number(), 0.0);
    EXPECT_EQ(ra.at("id").as_number(), static_cast<double>(i))
        << "connection A responses out of order";
  }
  for (int i = 0; i < kN; ++i) {
    const Json rb = Json::parse(b.recv_line());
    ASSERT_TRUE(rb.at("ok").as_bool()) << rb.dump(0);
    EXPECT_EQ(rb.at("island").as_number(), 1.0);
    EXPECT_EQ(rb.at("id").as_number(), static_cast<double>(1000 + i))
        << "connection B responses out of order";
  }
}

TEST(Daemon, ClosedLoopOnTwoConnectionsDrainsInline) {
  // The benchmark's serve shape: two shards and two connections that each
  // keep one SUBMIT in flight, islands split by parity so each connection
  // feeds its own shard. Every reply must arrive within 1 s and in request
  // order, and the event loop must have drained both shards itself: light
  // requests never wait on a pool wake-up.
  DaemonOptions opt;
  opt.shards = 2;
  DaemonHarness h(opt);
  LineClient a(h.port);
  LineClient b(h.port);
  LineClient* conns[2] = {&a, &b};

  constexpr int kPerConn = 200;
  using Clock = std::chrono::steady_clock;
  Clock::time_point sent[2];
  const auto send = [&](int c, int i) {
    // Islands 2k + c: this connection's shard. A task every 2 s against a
    // 1 s window keeps each island's pending set tiny.
    conns[c]->send(submit_line(2 * (i % 4) + c, i, 2.0 * i) + "\n");
    sent[c] = Clock::now();
  };
  send(0, 0);
  send(1, 0);
  for (int i = 0; i < kPerConn; ++i) {
    for (int c = 0; c < 2; ++c) {
      const Json r = Json::parse(conns[c]->recv_line());
      const auto waited = Clock::now() - sent[c];
      ASSERT_TRUE(r.at("ok").as_bool()) << r.dump(0);
      ASSERT_EQ(r.at("id").as_number(), static_cast<double>(i))
          << "connection " << c << " answered out of order";
      ASSERT_LT(waited, std::chrono::seconds(1))
          << "connection " << c << " request " << i;
      if (i + 1 < kPerConn) send(c, i + 1);
    }
  }

  a.send("{\"op\":\"METRICS\"}\n");
  const Json m = Json::parse(a.recv_line());
  ASSERT_TRUE(m.at("ok").as_bool()) << m.dump(0);
  const std::string& body = m.at("body").as_string();
  for (int shard = 0; shard < 2; ++shard) {
    EXPECT_GT(shard_drains(body, shard, "inline"), 0.0) << body;
    EXPECT_EQ(shard_drains(body, shard, "pool"), 0.0) << body;
  }
}

TEST(Daemon, PipelinedPairIsNotHeldForTheDelayedAck) {
  // Two requests in one write: the daemon sends their responses one after
  // the other. With Nagle's algorithm on the accepted socket, the second
  // would wait for the client's delayed ACK of the first (~40 ms).
  DaemonHarness h(DaemonOptions{});
  LineClient c(h.port);
  using Clock = std::chrono::steady_clock;
  std::vector<double> round_trip_ms;
  for (int b = 0; b < 5; ++b) {
    const auto t0 = Clock::now();
    c.send(submit_line(0, b, 2.0 * b) + "\n{\"op\":\"QUERY\",\"island\":0}\n");
    for (int k = 0; k < 2; ++k) {
      const Json r = Json::parse(c.recv_line());
      ASSERT_TRUE(r.at("ok").as_bool()) << r.dump(0);
    }
    round_trip_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  std::sort(round_trip_ms.begin(), round_trip_ms.end());
  EXPECT_LT(round_trip_ms[2], 20.0) << "median pipelined burst round trip";
}

TEST(Daemon, ClientThatStopsReadingHoldsUpNoOtherConnection) {
  // One client pipelines QUERYs and never reads its answers. The daemon
  // stops reading it once kMaxUnsentBytes of answers wait, but keeps
  // serving everyone else, and hands the first client every answer, whole
  // and in order, once it reads. The second connection feeds another
  // shard, and the first has at most kMaxInFlight requests in the shards,
  // so the event loop never waits on a full queue behind it.
  DaemonOptions opt;
  opt.shards = 2;
  DaemonHarness h(opt);
  // Small buffers keep the kernel's share of the backlog small, so the
  // daemon's own cap is what stops the sending.
  LineClient slow(h.port, 16 << 10);
  slow.send(submit_line(0, 0, 0.0) + "\n");
  ASSERT_TRUE(Json::parse(slow.recv_line()).at("ok").as_bool());
  LineClient other(h.port);
  other.send(submit_line(1, 0, 0.0) + "\n");
  ASSERT_TRUE(Json::parse(other.recv_line()).at("ok").as_bool());

  // Send until the daemon has taken nothing for 300 ms (or 3 s pass).
  ASSERT_EQ(
      ::fcntl(slow.fd, F_SETFL, ::fcntl(slow.fd, F_GETFL, 0) | O_NONBLOCK), 0);
  const std::string query = "{\"op\":\"QUERY\",\"island\":0}\n";
  std::string batch;
  for (int i = 0; i < 1000; ++i) batch += query;
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  auto progress = start;
  std::size_t sent = 0;  // bytes, counted from the first QUERY
  while (Clock::now() - progress < std::chrono::milliseconds(300) &&
         Clock::now() - start < std::chrono::seconds(3)) {
    const std::size_t off = sent % batch.size();
    const ssize_t n = ::send(slow.fd, batch.data() + off, batch.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      progress = Clock::now();
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
          << std::strerror(errno);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  const std::size_t queries = sent / query.size();
  ASSERT_GT(queries, 0u);

  timeval tv{2, 0};  // fail fast, not after the default 10 s
  ::setsockopt(other.fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  const auto t0 = Clock::now();
  other.send(submit_line(1, 1, 2.0) + "\n");
  const std::string answer = other.recv_line();
  ASSERT_LT(Clock::now() - t0, std::chrono::seconds(1))
      << "after " << queries << " unread QUERYs";
  ASSERT_TRUE(Json::parse(answer).at("ok").as_bool()) << answer;

  ASSERT_EQ(::fcntl(slow.fd, F_SETFL,
                    ::fcntl(slow.fd, F_GETFL, 0) & ~O_NONBLOCK),
            0);
  double last_seq = -1.0;
  for (std::size_t i = 0; i < queries; ++i) {
    const std::string line = slow.recv_line();
    const Json r = Json::parse(line);
    ASSERT_TRUE(r.at("ok").as_bool()) << line;
    ASSERT_EQ(r.at("op").as_string(), "QUERY") << line;
    ASSERT_GT(r.at("seq").as_number(), last_seq) << "answer " << i;
    last_seq = r.at("seq").as_number();
  }
}

/// `n` copies of a QUERY for `island`, one per line.
std::string queries(int island, int n) {
  const std::string q =
      "{\"op\":\"QUERY\",\"island\":" + std::to_string(island) + "}\n";
  std::string out;
  for (int i = 0; i < n; ++i) out += q;
  return out;
}

/// Whether `line` is a whole QUERY answer, and its "seq", told without a
/// full parse: these tests read thousands of large answers, under TSan too.
bool is_query_answer(const std::string& line) {
  return !line.empty() && line.back() == '}' &&
         line.find("\"QUERY\"") != std::string::npos;
}
double seq_of(const std::string& line) {
  const std::size_t at = line.find("\"seq\":");
  return at == std::string::npos ? -1.0
                                 : std::strtod(line.c_str() + at + 6, nullptr);
}

/// SUBMITs tasks 0..n-1 to `island`, all released at 0, and reads the
/// answers, so that the island's plan (and every QUERY answer) lists n
/// tasks.
void fill_plan(LineClient& c, int island, int n) {
  std::string submits;
  for (int id = 0; id < n; ++id) submits += submit_line(island, id, 0.0) + "\n";
  c.send(submits);
  for (int id = 0; id < n; ++id) {
    const std::string line = c.recv_line();
    ASSERT_TRUE(Json::parse(line).at("ok").as_bool()) << line;
  }
}

TEST(Daemon, ShutdownDeliversTheResponsesAClientHasNotReadYet) {
  // A client pipelines QUERYs and SHUTDOWN, and reads slower than the
  // daemon answers: more is owed than the kernel's socket buffers hold
  // (a 50-task plan makes each answer ~5 KB), so when the daemon reaches
  // SHUTDOWN, answers still wait in its own buffer. They are sent all the
  // same, in order, and the SHUTDOWN line comes last and whole.
  DaemonHarness h(DaemonOptions{});
  LineClient c(h.port, 16 << 10);
  fill_plan(c, 0, 50);
  constexpr int kQueries = 2000;
  c.send(queries(0, kQueries) + "{\"op\":\"SHUTDOWN\"}\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int i = 0; i < kQueries; ++i) {
    const std::string line = c.recv_line();
    ASSERT_TRUE(is_query_answer(line)) << "answer " << i << ": "
                                       << line.substr(0, 200);
  }
  const std::string last = c.recv_line();
  const Json bye = Json::parse(last);
  EXPECT_EQ(bye.at("op").as_string(), "SHUTDOWN") << last.substr(0, 200);
  h.thread.join();
  EXPECT_EQ(h.rc, 0);
}

TEST(Daemon, ClientThatHangsUpIsSentEveryResponseBeforeTheClose) {
  // A client pipelines QUERYs, shuts down its sending side, and only then
  // reads. The daemon sees the end of its requests long before the client
  // has read the answers (some are not even computed yet: a 20-task plan
  // puts the QUERY drains on the pool), and closes the connection only
  // once every answer is sent.
  DaemonOptions opt;
  opt.shards = 2;
  DaemonHarness h(opt);
  LineClient c(h.port, 16 << 10);
  fill_plan(c, 0, 20);
  constexpr int kQueries = 2000;
  c.send(queries(0, kQueries));
  ASSERT_EQ(::shutdown(c.fd, SHUT_WR), 0) << std::strerror(errno);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  for (int i = 0; i < kQueries; ++i) {
    const std::string line = c.recv_line();
    ASSERT_TRUE(is_query_answer(line)) << "answer " << i << ": "
                                       << line.substr(0, 200);
  }
  char byte = 0;
  EXPECT_EQ(::read(c.fd, &byte, 1), 0) << "the daemon closes after the last";
}

TEST(Daemon, BacklogCapIsCheckedBeforeEveryLine) {
  // QUERY answers with the island's whole plan, so one read of pipelined
  // QUERYs (a 64 KiB read holds over 2,000) can ask for far more than
  // kMaxUnsentBytes. The daemon checks the backlog before it dispatches
  // each line, so a client that does not read gets its answers computed
  // only until the backlog passes the cap, plus the requests already
  // handed to the shard, plus what the kernel's socket buffers take.
  DaemonHarness h(DaemonOptions{});
  LineClient c(h.port, 16 << 10);
  constexpr int kTasks = 200;
  fill_plan(c, 0, kTasks);
  c.send(queries(0, 1));
  const std::size_t answer_bytes = c.recv_line().size() + 1;
  ASSERT_GT(answer_bytes, std::size_t{16} << 10);

  // 600 QUERYs in one write, without blocking: the daemon may stop
  // reading before it has them all.
  ASSERT_EQ(::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) | O_NONBLOCK),
            0);
  constexpr int kQueries = 600;
  const std::string batch = queries(0, kQueries);
  using Clock = std::chrono::steady_clock;
  const auto start = Clock::now();
  std::size_t sent = 0;
  while (sent < batch.size() &&
         Clock::now() - start < std::chrono::seconds(2)) {
    const ssize_t n = ::send(c.fd, batch.data() + sent, batch.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
    } else {
      ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK)
          << std::strerror(errno);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  const std::size_t sent_queries = sent / (batch.size() / kQueries);
  // Wait until the daemon has answered all it will: its first answers,
  // then 500 ms without another.
  const std::uint64_t before = kTasks + 1;
  std::uint64_t answered = 0;
  auto progress = Clock::now();
  while (Clock::now() - progress < std::chrono::milliseconds(500) ||
         (answered == 0 && Clock::now() - start < std::chrono::seconds(10))) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const std::uint64_t now = h.daemon->requests_processed() - before;
    if (now != answered) {
      answered = now;
      progress = Clock::now();
    }
  }
  // The backlog passes the cap within one staged batch (64 lines), and
  // the kernel's socket buffers take the rest: on loopback, up to 4 MiB
  // (tcp_wmem) on the daemon's side.
  const std::size_t kernel = std::size_t{6} << 20;
  EXPECT_LT(answered * answer_bytes,
            Daemon::kMaxUnsentBytes + 64 * answer_bytes + kernel)
      << answered << " of " << sent_queries << " QUERYs answered, "
      << answer_bytes << " bytes each";

  // Reading resumes the connection: every QUERY is answered, in order.
  ASSERT_EQ(::fcntl(c.fd, F_SETFL, ::fcntl(c.fd, F_GETFL, 0) & ~O_NONBLOCK),
            0);
  double last_seq = -1.0;
  for (std::size_t i = 0; i < sent_queries; ++i) {
    const std::string line = c.recv_line();
    ASSERT_TRUE(is_query_answer(line)) << "answer " << i << ": "
                                       << line.substr(0, 200);
    ASSERT_GT(seq_of(line), last_seq) << "answer " << i;
    last_seq = seq_of(line);
  }
}

TEST(Daemon, StatsBarrierCountsEarlierSubmits) {
  DaemonOptions opt;
  opt.shards = 2;
  DaemonHarness h(opt);
  LineClient c(h.port);
  constexpr int kN = 20;
  std::string batch;
  for (int i = 0; i < kN; ++i) batch += submit_line(i % 3, i, 0.0) + "\n";
  batch += "{\"op\":\"STATS\"}\n";
  c.send(batch);
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(Json::parse(c.recv_line()).at("ok").as_bool());
  }
  const Json stats = Json::parse(c.recv_line());
  ASSERT_TRUE(stats.at("ok").as_bool());
  EXPECT_EQ(stats.at("op").as_string(), "STATS");
  // The barrier drains every shard before answering.
  EXPECT_GE(stats.at("requests").as_number(), static_cast<double>(kN));
}

TEST(Daemon, ShutdownStopsRunAndReportsCount) {
  DaemonOptions opt;
  opt.shards = 2;
  DaemonHarness h(opt);
  LineClient c(h.port);
  c.send(submit_line(0, 1, 0.0) + "\n" + submit_line(1, 2, 0.0) + "\n" +
         "{\"op\":\"SHUTDOWN\"}\n");
  ASSERT_TRUE(Json::parse(c.recv_line()).at("ok").as_bool());
  ASSERT_TRUE(Json::parse(c.recv_line()).at("ok").as_bool());
  const Json bye = Json::parse(c.recv_line());
  ASSERT_TRUE(bye.at("ok").as_bool());
  EXPECT_EQ(bye.at("op").as_string(), "SHUTDOWN");
  EXPECT_GE(bye.at("requests").as_number(), 2.0);
  h.thread.join();
  EXPECT_EQ(h.rc, 0);
}

TEST(Daemon, PeekMissSubmitRoutedUnderItsParsedKey) {
  // "island":2.0 is a valid island id the allocation-free peek will not
  // route, so the event loop parses the line to learn its key and routes
  // the line under it. Its answer matches that of the same task spelled
  // "island":2, sent to a daemon of its own.
  const std::string task =
      "\"task\":{\"id\":1,\"release\":0,\"deadline\":1,\"work\":0.05}}\n";
  DaemonOptions opt;
  opt.shards = 2;
  DaemonHarness h(opt);
  LineClient c(h.port);
  c.send("{\"op\":\"SUBMIT\",\"island\":2.0," + task + submit_line(2, 2, 0.0) +
         "\n");
  const Json r1 = Json::parse(c.recv_line());
  ASSERT_TRUE(r1.at("ok").as_bool()) << r1.dump(0);
  EXPECT_EQ(r1.at("island").as_number(), 2.0);
  EXPECT_EQ(r1.at("id").as_number(), 1.0);
  const Json r2 = Json::parse(c.recv_line());
  ASSERT_TRUE(r2.at("ok").as_bool()) << r2.dump(0);
  EXPECT_EQ(r2.at("id").as_number(), 2.0);

  DaemonHarness peekable(opt);
  LineClient p(peekable.port);
  p.send("{\"op\":\"SUBMIT\",\"island\":2," + task);
  const Json want = Json::parse(p.recv_line());
  ASSERT_TRUE(want.at("ok").as_bool()) << want.dump(0);
  for (const char* field : {"island", "id", "admitted"}) {
    EXPECT_EQ(r1.at(field).dump(0), want.at(field).dump(0)) << field;
  }
}

TEST(Daemon, OverlongLineGetsOneErrorThenServes) {
  // 2 MiB with no newline: the daemon answers once the line passes
  // kMaxLineBytes, drops the rest up to its newline without buffering it,
  // and serves the next SUBMIT on the same connection.
  DaemonOptions opt;
  opt.shards = 2;
  DaemonHarness h(opt);
  LineClient c(h.port);
  const std::string piece(64 * 1024, 'x');
  for (int i = 0; i < 32; ++i) c.send(piece);
  std::string tail = "\n";
  tail += submit_line(0, 9, 0.0);
  tail += "\n";
  c.send(tail);
  const Json err = Json::parse(c.recv_line());
  EXPECT_FALSE(err.at("ok").as_bool()) << err.dump(0);
  EXPECT_NE(err.at("error").as_string().find("exceeds"), std::string::npos)
      << err.dump(0);
  const Json resp = Json::parse(c.recv_line());
  ASSERT_TRUE(resp.at("ok").as_bool()) << resp.dump(0);
  EXPECT_EQ(resp.at("op").as_string(), "SUBMIT");
  EXPECT_EQ(resp.at("id").as_number(), 9.0);
}

TEST(Daemon, LineAtTheCapIsServed) {
  // The cap counts the line without its newline: a SUBMIT padded with
  // spaces to exactly kMaxLineBytes is parsed, one byte more is rejected.
  DaemonOptions opt;
  opt.shards = 1;
  DaemonHarness h(opt);
  LineClient c(h.port);
  const std::string line = submit_line(0, 1, 0.0);
  const std::size_t pad = Daemon::kMaxLineBytes - line.size();
  c.send(std::string(pad, ' ') + line + "\n");
  c.send(std::string(pad + 1, ' ') + submit_line(0, 2, 0.0) + "\n");
  const Json ok = Json::parse(c.recv_line());
  ASSERT_TRUE(ok.at("ok").as_bool()) << ok.dump(0);
  EXPECT_EQ(ok.at("id").as_number(), 1.0);
  EXPECT_FALSE(Json::parse(c.recv_line()).at("ok").as_bool());
}

}  // namespace
}  // namespace sdem::service
