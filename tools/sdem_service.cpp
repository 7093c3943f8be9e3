// sdem_service — long-running online scheduling daemon (docs/service.md).
//
// Ingests task arrivals as newline-delimited JSON over stdin/stdout and,
// with --port, over a localhost TCP socket, answers admission + schedule
// queries online, and shards independent memory islands across the thread
// pool. Four modes:
//
//   sdem_service [--policy P] [--shards N] [--port PORT]
//       live daemon (src/service/daemon.hpp): one event loop serves every
//       connection — raw lines are routed by a peek and parsed in the
//       shard's drain, which runs on the loop when short (a closed-loop
//       client) and, with N > 1, on one of N pool threads otherwise
//   sdem_service --replay file.ndjson [--verify-batch]      deterministic
//       batch replay: prints per-island schedules byte-identical to the
//       batch simulator on the same stream (any --shards value)
//   sdem_service --gen-stream N [--islands K] [--seed S]    emit a canned
//       arrival stream (the CI smoke input) to stdout
//   sdem_service --load-gen N --connect PORT [--conns C]    drive a running
//       daemon over TCP and report end-to-end events/sec
//
// Responses are emitted in request order per connection (a per-connection
// reorder buffer; shards complete out of order). STATS/METRICS are
// service-wide barriers: they drain every shard, then report per-shard
// throughput and replan latency (cumulative in STATS, windowed Prometheus
// exposition in METRICS) from the obs runtime domain.
//
// SIGINT/SIGTERM stop the daemon cleanly (the handler calls request_stop),
// so an interrupted --trace run still flushes a valid chrome://tracing JSON.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "int_flag.hpp"
#include "model/task.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sched/trace_io.hpp"
#include "service/daemon.hpp"
#include "service/service.hpp"
#include "support/json.hpp"
#include "support/thread_pool.hpp"
#include "workload/generator.hpp"

namespace {

using namespace sdem;
using namespace sdem::service;
using sdem::tools::int_flag;

int usage(int code) {
  std::fprintf(
      code == 0 ? stdout : stderr,
      "usage: sdem_service [options]\n"
      "  --policy NAME     sdem-on|sdem-on-eager|mbkp|race|stretch|critical\n"
      "                    (default sdem-on)\n"
      "  --shards N        island shards, 1..4096 (default 1); N > 1 adds\n"
      "                    N pool threads for long drains, short ones run\n"
      "                    inline\n"
      "  --acceptors 1     accepted for compatibility; one event loop\n"
      "                    serves every connection\n"
      "  --port PORT       also serve ndjson on 127.0.0.1:PORT, 0..65535 (0 =\n"
      "                    pick a free port; the chosen port is printed to\n"
      "                    stderr)\n"
      "  --replay FILE     replay an ndjson arrival stream deterministically\n"
      "                    and print per-island schedules to stdout\n"
      "  --verify-batch    with --replay: re-run the batch simulator per\n"
      "                    island and fail unless byte-identical\n"
      "  --gen-stream N    emit an N-arrival SUBMIT stream to stdout (N >= 1)\n"
      "  --islands K       islands for --gen-stream/--load-gen, 1..4096\n"
      "                    (default 4)\n"
      "  --seed S          seed for --gen-stream/--load-gen, 0..2^64-1\n"
      "                    (default 1)\n"
      "  --load-gen N      connect to a daemon and push N SUBMITs (N >= 1),\n"
      "                    timing end-to-end events/sec (needs --connect)\n"
      "  --connect PORT    daemon port for --load-gen, 0..65535\n"
      "  --conns C         concurrent load-gen connections, 1..1024\n"
      "                    (default 1)\n"
      "  --trace PATH      record a chrome://tracing JSON of the run\n"
      "  --help            this message\n");
  return code;
}

struct Options {
  std::string policy = "sdem-on";
  int shards = 1;
  int port = -1;  ///< -1 = no TCP
  std::string replay;
  bool verify_batch = false;
  int gen_stream = 0;
  int islands = 4;
  std::uint64_t seed = 1;
  int load_gen = 0;
  int connect_port = -1;
  int conns = 1;
  std::string trace;
};

/// The daemon whose run() is serving. SIGINT/SIGTERM call its
/// request_stop() directly: an atomic store and a write(2) to its wake
/// pipe, both async-signal-safe. The daemon then unwinds normally, so
/// end-of-run work (the --trace flush in main) still happens. A handler
/// that runs on a pool thread finishes before ~Daemon's pool join returns,
/// and so before the wake pipe closes.
std::atomic<Daemon*> g_serving{nullptr};

extern "C" void on_terminate_signal(int) {
  const int saved = errno;
  if (Daemon* d = g_serving.load()) d->request_stop();
  errno = saved;
}

/// The canned per-island synthetic streams (paper §8.1.2 generator), merged
/// into one globally release-sorted line list — per island the order is
/// non-decreasing by construction, which is all the replay contract needs.
struct StreamLine {
  double release;
  int island;
  std::string text;  ///< one SUBMIT request, no trailing newline
};

std::vector<StreamLine> make_stream_lines(int n, int islands,
                                          std::uint64_t seed) {
  struct Raw {
    double release;
    int island;
    Task task;
  };
  std::vector<Raw> raws;
  raws.reserve(static_cast<std::size_t>(n));
  const int per = n / islands;
  const int extra = n % islands;
  for (int isl = 0; isl < islands; ++isl) {
    SyntheticParams p;
    p.num_tasks = per + (isl < extra ? 1 : 0);
    p.max_interarrival = 0.050;
    if (p.num_tasks == 0) continue;
    const TaskSet ts = make_synthetic(p, seed * 1000003 + isl);
    for (const Task& t : ts.tasks()) raws.push_back({t.release, isl, t});
  }
  std::stable_sort(raws.begin(), raws.end(), [](const Raw& a, const Raw& b) {
    if (a.release != b.release) return a.release < b.release;
    if (a.island != b.island) return a.island < b.island;
    return a.task.id < b.task.id;
  });
  std::vector<StreamLine> lines;
  lines.reserve(raws.size());
  for (const Raw& r : raws) {
    Json task = Json::object();
    task.set("id", r.task.id);
    task.set("release", r.task.release);
    task.set("deadline", r.task.deadline);
    task.set("work", r.task.work);
    Json req = Json::object();
    req.set("op", "SUBMIT");
    req.set("island", r.island);
    req.set("task", std::move(task));
    lines.push_back({r.release, r.island, req.dump(0)});
  }
  return lines;
}

int run_gen_stream(const Options& o) {
  std::string out;
  for (const StreamLine& l :
       make_stream_lines(o.gen_stream, o.islands, o.seed)) {
    out += l.text;
    out.push_back('\n');
  }
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

/// Per-island replay report: a stable header line plus the schedule CSV,
/// ascending island id. This is the byte surface the determinism and
/// verify contracts are defined over. `res` is the island's own result, or
/// the batch simulator's on the same arrivals (--verify-batch).
std::string island_report(const Service::IslandResult& isl,
                          const SimResult& res) {
  char head[160];
  std::snprintf(head, sizeof(head),
                "island %d policy=%s tasks=%llu replans=%d misses=%d "
                "unfinished=%d\n",
                isl.island, isl.policy.c_str(),
                static_cast<unsigned long long>(isl.tasks.size()),
                res.replans, res.deadline_misses, res.unfinished);
  return std::string(head) + schedule_to_csv(res.schedule);
}

int run_replay(const Options& o) {
  std::ifstream in(o.replay);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", o.replay.c_str());
    return 1;
  }
  ServiceOptions sopt;
  sopt.policy = o.policy;
  sopt.shards = o.shards;
  sopt.eager = false;  // batch same-instant arrivals exactly like simulate()
  std::unique_ptr<ThreadPool> pool;
  if (o.shards > 1) pool = std::make_unique<ThreadPool>(o.shards);

  std::mutex err_mu;
  std::vector<std::pair<std::uint64_t, std::string>> errors;
  Service svc(sopt, pool.get(), [&](const Request& r, Json resp) {
    const Json* ok = resp.find("ok");
    if (ok != nullptr && ok->is_bool() && !ok->as_bool()) {
      std::lock_guard<std::mutex> lock(err_mu);
      errors.emplace_back(r.seq, resp.at("error").as_string());
    }
  });

  std::string line;
  std::uint64_t seq = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // Route by key, parse on the shard. Parse failures surface through
    // the error callback, sequence-tagged.
    const RouteKey key = route_key(line);
    if (!key.ok || key.op != Op::kSubmit) {
      std::fprintf(stderr, "replay line %llu: %s\n",
                   static_cast<unsigned long long>(seq + 1),
                   key.ok ? "only SUBMIT is replayable" : key.error.c_str());
      return 1;
    }
    const std::uint64_t s = seq++;
    svc.route_raw(key.island, Op::kSubmit, std::move(line), s, 0, s);
  }
  const std::vector<Service::IslandResult> islands = svc.finalize_all();
  if (!errors.empty()) {
    std::sort(errors.begin(), errors.end());
    for (const auto& [s, e] : errors) {
      std::fprintf(stderr, "replay error: seq %llu: %s\n",
                   static_cast<unsigned long long>(s), e.c_str());
    }
    return 1;
  }
  std::string report;
  for (const auto& isl : islands) report += island_report(isl, isl.result);
  std::fwrite(report.data(), 1, report.size(), stdout);
  std::fprintf(stderr, "replay: %zu island(s), %llu task(s), shards=%d\n",
               islands.size(), static_cast<unsigned long long>(seq),
               o.shards);

  if (!o.verify_batch) return 0;
  // Re-run every island through the batch simulator on the same arrivals
  // and require the identical byte surface (schedule CSV + counters).
  int rc = 0;
  for (const auto& isl : islands) {
    const auto policy = make_policy(o.policy);
    const SimResult batch =
        simulate(TaskSet(isl.tasks), Service::config(), *policy);
    const std::string got = island_report(isl, isl.result);
    const std::string expect = island_report(isl, batch);
    if (got != expect || isl.result.horizon_lo != batch.horizon_lo ||
        isl.result.horizon_hi != batch.horizon_hi) {
      std::fprintf(stderr,
                   "verify FAILED: island %d differs from batch simulate() "
                   "(replayed %zu bytes, batch %zu bytes)\n",
                   isl.island, got.size(), expect.size());
      rc = 1;
    }
  }
  if (rc == 0) {
    std::fprintf(stderr,
                 "verify: %zu island(s) byte-identical to batch simulate()\n",
                 islands.size());
  }
  return rc;
}

/// Load generator: open --conns connections to a running daemon, partition
/// the canned stream by island (island % conns, preserving per-island
/// arrival order), pump every line, and time until the last response.
int run_load_gen(const Options& o) {
  if (o.connect_port < 0) {
    std::fprintf(stderr, "--load-gen needs --connect PORT\n");
    return 2;
  }
  const std::vector<StreamLine> stream =
      make_stream_lines(o.load_gen, o.islands, o.seed);
  std::vector<std::string> payload(static_cast<std::size_t>(o.conns));
  std::vector<int> expect(static_cast<std::size_t>(o.conns), 0);
  for (const StreamLine& l : stream) {
    const std::size_t c = static_cast<std::size_t>(l.island % o.conns);
    payload[c] += l.text;
    payload[c].push_back('\n');
    ++expect[c];
  }

  std::vector<int> fds;
  for (int c = 0; c < o.conns; ++c) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(o.connect_port));
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      std::fprintf(stderr, "cannot connect to 127.0.0.1:%d: %s\n",
                   o.connect_port, std::strerror(errno));
      for (const int f : fds) ::close(f);
      if (fd >= 0) ::close(fd);
      return 1;
    }
    fds.push_back(fd);
  }

  std::atomic<bool> failed{false};
  const std::uint64_t t0 = obs::now_ns();
  std::vector<std::thread> threads;
  for (int c = 0; c < o.conns; ++c) {
    // Writer and reader per connection: the daemon answers every line, so
    // a client that only writes would deadlock both socket buffers. The
    // writer hangs up after its last line, like any client that is done
    // sending; the daemon still sends every response it owes before it
    // closes, and the reader knows how many lines to expect.
    threads.emplace_back([fd = fds[static_cast<std::size_t>(c)],
                          &data = payload[static_cast<std::size_t>(c)],
                          &failed] {
      std::size_t off = 0;
      while (off < data.size()) {
        const ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          failed.store(true);
          return;
        }
        off += static_cast<std::size_t>(n);
      }
      ::shutdown(fd, SHUT_WR);
    });
    threads.emplace_back([fd = fds[static_cast<std::size_t>(c)],
                          want = expect[static_cast<std::size_t>(c)],
                          &failed] {
      char chunk[65536];
      int got = 0;
      while (got < want) {
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) {
          failed.store(true);
          return;
        }
        for (ssize_t i = 0; i < n; ++i) {
          if (chunk[i] == '\n') ++got;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double secs = static_cast<double>(obs::now_ns() - t0) / 1e9;
  for (const int fd : fds) ::close(fd);
  if (failed.load()) {
    std::fprintf(stderr, "load-gen: connection failed mid-run\n");
    return 1;
  }
  std::fprintf(stderr,
               "load-gen: %d events, %d conn(s), %.3f s, %.0f events/s\n",
               o.load_gen, o.conns, secs,
               secs > 0.0 ? static_cast<double>(o.load_gen) / secs : 0.0);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options o;
  const auto bad = [] { return usage(2); };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(usage(2));
      }
      return argv[++i];
    };
    if (arg == "--policy") {
      o.policy = value("--policy");
    } else if (arg == "--shards") {
      o.shards = int_flag("--shards", value("--shards"), 1, kMaxIslands, bad);
    } else if (arg == "--acceptors") {
      if (std::string(value("--acceptors")) != "1") {
        std::fprintf(stderr,
                     "--acceptors takes only 1: the daemon serves every "
                     "connection from one event loop\n");
        return usage(2);
      }
    } else if (arg == "--port") {
      o.port = int_flag("--port", value("--port"), 0, 65535, bad);
    } else if (arg == "--replay") {
      o.replay = value("--replay");
    } else if (arg == "--verify-batch") {
      o.verify_batch = true;
    } else if (arg == "--gen-stream") {
      o.gen_stream =
          int_flag("--gen-stream", value("--gen-stream"), 1, INT_MAX, bad);
    } else if (arg == "--islands") {
      o.islands =
          int_flag("--islands", value("--islands"), 1, kMaxIslands, bad);
    } else if (arg == "--seed") {
      o.seed = int_flag<std::uint64_t>(
          "--seed", value("--seed"), 0,
          std::numeric_limits<std::uint64_t>::max(), bad);
    } else if (arg == "--load-gen") {
      o.load_gen =
          int_flag("--load-gen", value("--load-gen"), 1, INT_MAX, bad);
    } else if (arg == "--connect") {
      o.connect_port =
          int_flag("--connect", value("--connect"), 0, 65535, bad);
    } else if (arg == "--conns") {
      o.conns = int_flag("--conns", value("--conns"), 1, 1024, bad);
    } else if (arg == "--trace") {
      o.trace = value("--trace");
    } else if (arg == "--help" || arg == "-h") {
      return usage(0);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage(2);
    }
  }

  if (!o.trace.empty()) sdem::obs::trace::start();
  int rc = 1;
  try {
    if (o.gen_stream > 0) {
      rc = run_gen_stream(o);
    } else if (o.load_gen > 0) {
      rc = run_load_gen(o);
    } else if (!o.replay.empty()) {
      rc = run_replay(o);
    } else {
      DaemonOptions dopt;
      dopt.policy = o.policy;
      dopt.shards = o.shards;
      dopt.port = o.port;
      dopt.use_stdin = true;
      Daemon daemon(dopt);
      g_serving.store(&daemon);
      std::signal(SIGINT, on_terminate_signal);
      std::signal(SIGTERM, on_terminate_signal);
      rc = daemon.run();
      std::signal(SIGINT, SIG_DFL);
      std::signal(SIGTERM, SIG_DFL);
      g_serving.store(nullptr);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (!o.trace.empty()) {
    if (!sdem::obs::trace::write_file(o.trace)) {
      std::fprintf(stderr, "cannot write trace %s\n", o.trace.c_str());
      return 1;
    }
    std::fprintf(stderr, "trace -> %s (open in chrome://tracing)\n",
                 o.trace.c_str());
  }
  return rc;
}
