#include "bench_registry.hpp"

#include <cstdarg>
#include <cstdio>

namespace sdem::bench {

// Defined in bench_experiments.cpp; appends every experiment in paper order.
void register_all_experiments(std::vector<Experiment>& out);

const std::vector<Experiment>& all_experiments() {
  static const std::vector<Experiment> experiments = [] {
    std::vector<Experiment> out;
    register_all_experiments(out);
    return out;
  }();
  return experiments;
}

const Experiment* find_experiment(const std::string& name) {
  for (const Experiment& e : all_experiments())
    if (e.name == name) return &e;
  return nullptr;
}

std::vector<const Experiment*> match_experiments(const std::string& filter) {
  std::vector<const Experiment*> out;
  if (filter.empty() || filter == "all") {
    for (const Experiment& e : all_experiments()) out.push_back(&e);
    return out;
  }
  std::vector<std::string> needles;
  std::size_t start = 0;
  while (start <= filter.size()) {
    const std::size_t comma = filter.find(',', start);
    const std::size_t end = comma == std::string::npos ? filter.size() : comma;
    if (end > start) needles.push_back(filter.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  for (const Experiment& e : all_experiments()) {
    for (const std::string& n : needles) {
      if (e.name.find(n) != std::string::npos) {
        out.push_back(&e);
        break;
      }
    }
  }
  return out;
}

void print_result(const ExperimentResult& r) {
  print_header(r.header_title, r.header_what);
  for (const Table& t : r.tables) print_table(t);
  for (const std::string& f : r.footers) std::printf("%s\n", f.c_str());
}

std::string strf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace sdem::bench
