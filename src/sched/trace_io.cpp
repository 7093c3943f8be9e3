#include "sched/trace_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <sstream>
#include <stdexcept>

namespace sdem {
namespace {

/// A parsed row is whole when sscanf's trailing %n reached the end of the
/// line (`used`), and its numbers are finite.
bool whole_finite_row(const std::string& line, int used,
                      std::initializer_list<double> values) {
  return used == static_cast<int>(line.size()) &&
         std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}

}  // namespace

std::string schedule_to_csv(const Schedule& sched) {
  std::ostringstream os;
  os << "task,core,start,end,speed\n";
  char buf[160];
  for (const auto& s : sched.segments()) {
    std::snprintf(buf, sizeof(buf), "%d,%d,%.17g,%.17g,%.17g\n", s.task_id,
                  s.core, s.start, s.end, s.speed);
    os << buf;
  }
  return os.str();
}

std::string task_set_to_csv(const TaskSet& tasks) {
  std::ostringstream os;
  os << "id,release,deadline,work\n";
  char buf[128];
  for (const auto& t : tasks.tasks()) {
    std::snprintf(buf, sizeof(buf), "%d,%.17g,%.17g,%.17g\n", t.id, t.release,
                  t.deadline, t.work);
    os << buf;
  }
  return os.str();
}

TaskSet task_set_from_csv(const std::string& csv) {
  TaskSet out;
  std::istringstream is(csv);
  std::string line;
  if (!std::getline(is, line) || line.rfind("id,release,deadline,work", 0) != 0) {
    throw std::invalid_argument("task_set_from_csv: missing header");
  }
  int lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF files
    if (line.empty()) continue;
    Task t;
    int used = 0;
    // The row's syntax only; TaskSet::validate() below judges its values.
    if (std::sscanf(line.c_str(), "%d,%lf,%lf,%lf%n", &t.id, &t.release,
                    &t.deadline, &t.work, &used) != 4 ||
        used != static_cast<int>(line.size())) {
      throw std::invalid_argument("task_set_from_csv: bad row at line " +
                                  std::to_string(lineno));
    }
    out.add(t);
  }
  if (const std::string err = out.validate(); !err.empty()) {
    throw std::invalid_argument("task_set_from_csv: " + err);
  }
  return out;
}

Schedule schedule_from_csv(const std::string& csv) {
  Schedule out;
  std::istringstream is(csv);
  std::string line;
  if (!std::getline(is, line) || line.rfind("task,core,start,end,speed", 0) != 0) {
    throw std::invalid_argument("schedule_from_csv: missing header");
  }
  int lineno = 1;
  while (std::getline(is, line)) {
    ++lineno;
    if (!line.empty() && line.back() == '\r') line.pop_back();  // CRLF files
    if (line.empty()) continue;
    Segment s;
    int used = 0;
    if (std::sscanf(line.c_str(), "%d,%d,%lf,%lf,%lf%n", &s.task_id, &s.core,
                    &s.start, &s.end, &s.speed, &used) != 5 ||
        !whole_finite_row(line, used, {s.start, s.end, s.speed})) {
      throw std::invalid_argument("schedule_from_csv: bad row at line " +
                                  std::to_string(lineno));
    }
    out.add(s);
  }
  return out;
}

std::string render_gantt(const Schedule& sched, const GanttOptions& opts) {
  std::ostringstream os;
  if (sched.empty()) return "(empty schedule)\n";
  const double t0 = sched.start_time();
  const double t1 = sched.end_time();
  const double span = std::max(t1 - t0, 1e-12);
  const int w = std::max(opts.width, 8);
  auto col = [&](double t) {
    const int c = static_cast<int>((t - t0) / span * w);
    return std::clamp(c, 0, w - 1);
  };

  const int cores = sched.cores_used();
  for (int c = 0; c < cores; ++c) {
    std::string lane(w, '.');
    for (const auto& seg : sched.core_segments(c)) {
      const int a = col(seg.start);
      const int b = std::max(col(seg.end), a);
      for (int i = a; i <= b; ++i) lane[i] = '#';
      // Label with the task id where there is room.
      const std::string id = std::to_string(seg.task_id);
      if (b - a + 1 > static_cast<int>(id.size())) {
        for (std::size_t k = 0; k < id.size(); ++k) {
          lane[a + 1 + static_cast<int>(k)] = id[k];
        }
      }
    }
    char head[24];
    std::snprintf(head, sizeof(head), "core %2d |", c);
    os << head << lane << "|\n";
  }
  std::string mem(w, ' ');
  for (const auto& b : sched.memory_busy()) {
    const int a = col(b.lo);
    const int z = std::max(col(b.hi), a);
    for (int i = a; i <= z; ++i) mem[i] = '=';
  }
  os << "MEM     |" << mem << "|\n";
  char foot[96];
  std::snprintf(foot, sizeof(foot),
                "        %.*s  t = [%.4f s, %.4f s]\n", 0, "", t0, t1);
  os << foot;
  return os.str();
}

}  // namespace sdem
