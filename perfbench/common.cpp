#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include <dirent.h>
#include <unistd.h>

#include "workload/generator.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

Shape shape_named(const std::string& name) {
  Shape s;
  s.name = name;
  if (name == "paper") {
    s.islands = 64;
    s.per_island = 1250;
    s.warm_until = 0.25;
  } else if (name == "backlog") {
    s.islands = 64;
    s.per_island = 250;
    s.region_lo = 1.0;
    s.region_hi = 4.0;
    s.warm_until = 2.0;
  } else if (name == "smoke") {
    s.islands = 4;
    s.per_island = 40;
    s.warm_until = 0.1;
  } else {
    throw std::invalid_argument("unknown shape " + name);
  }
  return s;
}

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void fnv1a(std::uint64_t& h, const std::string& s) {
  for (const unsigned char ch : s) {
    h ^= ch;
    h *= 0x100000001b3ull;
  }
  h ^= '\n';
  h *= 0x100000001b3ull;
}

}  // namespace

Stream make_stream(const Shape& shape, std::uint64_t seed) {
  struct Raw {
    double release;
    int island;
    sdem::Task task;
  };
  Stream st;
  st.island_tasks.resize(static_cast<std::size_t>(shape.islands));
  std::vector<Raw> raws;
  for (int isl = 0; isl < shape.islands; ++isl) {
    sdem::SyntheticParams p;
    p.num_tasks = shape.per_island;
    p.max_interarrival = 0.050;
    p.region_lo = shape.region_lo;
    p.region_hi = shape.region_hi;
    // The island seeds of `sdem_service --gen-stream --seed`.
    const sdem::TaskSet ts = sdem::make_synthetic(p, seed * 1000003 + isl);
    for (const sdem::Task& t : ts.tasks()) raws.push_back({t.release, isl, t});
  }
  std::stable_sort(raws.begin(), raws.end(), [](const Raw& a, const Raw& b) {
    if (a.release != b.release) return a.release < b.release;
    if (a.island != b.island) return a.island < b.island;
    return a.task.id < b.task.id;
  });

  std::uint64_t rng = seed ^ 0x5bd1e995u;
  std::vector<int> fed[Stream::kConns];
  std::vector<char> seen(static_cast<std::size_t>(shape.islands), 0);
  std::size_t since_query[Stream::kConns] = {0, 0};
  for (int c = 0; c < Stream::kConns; ++c) st.digest[c] = 0xcbf29ce484222325ull;
  const auto emit = [&](int c, StreamRequest r, double release) {
    if (release < shape.warm_until) st.warm[c] = st.conn[c].size() + 1;
    fnv1a(st.digest[c], r.line);
    (r.query ? st.queries : st.submits)[c] += 1;
    st.conn[c].push_back(std::move(r));
  };
  for (const Raw& raw : raws) {
    const int c = raw.island % Stream::kConns;
    st.island_tasks[static_cast<std::size_t>(raw.island)].push_back(raw.task);
    if (!seen[static_cast<std::size_t>(raw.island)]) {
      seen[static_cast<std::size_t>(raw.island)] = 1;
      fed[c].push_back(raw.island);
    }
    sdem::Json task = sdem::Json::object();
    task.set("id", raw.task.id);
    task.set("release", raw.task.release);
    task.set("deadline", raw.task.deadline);
    task.set("work", raw.task.work);
    sdem::Json req = sdem::Json::object();
    req.set("op", "SUBMIT");
    req.set("island", raw.island);
    req.set("task", std::move(task));
    emit(c, StreamRequest{false, raw.island, raw.task.id, req.dump(0)},
         raw.release);
    // Every 10th request on a connection is a QUERY of an island it fed.
    if (++since_query[c] == 9) {
      since_query[c] = 0;
      const int q = fed[c][splitmix64(rng) % fed[c].size()];
      sdem::Json query = sdem::Json::object();
      query.set("op", "QUERY");
      query.set("island", q);
      emit(c, StreamRequest{true, q, -1, query.dump(0)}, raw.release);
    }
  }
  return st;
}

std::uint64_t process_cpu_ns(int pid, int skip_tid) {
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0;
  std::uint64_t total = 0;
  while (const dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    if (skip_tid >= 0 && std::atoi(e->d_name) == skip_tid) continue;
    std::ifstream f(dir + "/" + e->d_name + "/schedstat");
    std::uint64_t on_cpu = 0;
    if (f >> on_cpu) total += on_cpu;
  }
  ::closedir(d);
  return total;
}

double host_steal_s() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  double v[8] = {};
  f >> cpu;
  for (double& x : v) f >> x;
  return v[7] / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double peak_rss_mb(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0.0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return -1.0;
}

std::int64_t SpanLog::add(const char* name, std::uint64_t start,
                          std::uint64_t end, std::int64_t parent,
                          std::int64_t request) {
  spans_.push_back({name, start, end, parent, request});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanLog::close(std::int64_t index, std::uint64_t end) {
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

void SpanLog::append(const std::vector<Span>& more) {
  const std::int64_t base = static_cast<std::int64_t>(spans_.size());
  for (Span s : more) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(s);
  }
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s[\"%s\", %llu, %llu, %lld, %lld]", i ? ",\n" : "",
                 s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
