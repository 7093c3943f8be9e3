#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string_view>

#include "obs/trace.hpp"

namespace sdem::obs {

void DistCell::add(double v) {
  if (count == 0 || v < min) min = v;
  if (count == 0 || v > max) max = v;
  ++count;
  sum_fx += static_cast<std::int64_t>(std::llround(v * kDistFxScale));
  int idx = 0;
  if (v > 0.0 && std::isfinite(v)) {
    idx = std::clamp(std::ilogb(v), -63, 62) + 64;  // [1, 126]
  } else if (v > 0.0) {
    idx = kDistBuckets - 1;  // +inf overflow bucket
  }
  ++buckets[idx];
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

namespace {

// One mutex guards shard registration, per-shard cell creation, reset and
// snapshot. Cell increments and a thread's lookups of its own existing
// cells never touch it.
std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

}  // namespace

struct Registry::Shard {
  // Node-stable storage: returned cell pointers survive later insertions.
  std::deque<std::uint64_t> counter_storage;
  std::deque<DistCell> dist_storage;
  std::deque<TimerCell> timer_storage;
  // Transparent comparators: a lookup by name builds no std::string.
  std::map<std::string, std::pair<Domain, std::uint64_t*>, std::less<>>
      counters;
  std::map<std::string, std::pair<Domain, DistCell*>, std::less<>> dists;
  std::map<std::string, TimerCell*, std::less<>> timers;
};

namespace {

/// The cell `name` in `map`, one of the calling thread's shard maps;
/// `make()` creates its storage on first use. Only the owning thread
/// inserts into its shard's maps, and reset() never touches them, so the
/// owner looks up without the lock; the lock orders an insertion against
/// snapshot() reading the same map from another thread.
template <typename Map, typename Make>
typename Map::mapped_type find_or_insert(Map& map, const char* name,
                                         Make make) {
  const std::string_view key(name);
  auto it = map.find(key);
  if (it == map.end()) {
    std::lock_guard<std::mutex> lock(registry_mutex());
    it = map.emplace(key, make()).first;
  }
  return it->second;
}

}  // namespace

Registry& Registry::instance() {
  // Leaked singleton: worker threads may flush cells during static
  // destruction of other objects; the registry must outlive them all.
  static Registry* r = new Registry();
  return *r;
}

Registry::Shard& Registry::local_shard() {
  // One shard per (thread, registry) pair, registered on first use and
  // owned by the registry so it survives thread exit (snapshot after a
  // transient pool is torn down still sees its counts).
  static thread_local Shard* shard = nullptr;
  if (shard == nullptr) {
    auto owned = std::make_unique<Shard>();
    shard = owned.get();
    std::lock_guard<std::mutex> lock(registry_mutex());
    shards_.push_back(owned.release());
  }
  return *shard;
}

std::uint64_t* Registry::counter_cell(const char* name, Domain domain) {
  Shard& shard = local_shard();
  return find_or_insert(shard.counters, name, [&] {
           shard.counter_storage.push_back(0);
           return std::make_pair(domain, &shard.counter_storage.back());
         }).second;
}

DistCell* Registry::dist_cell(const char* name, Domain domain) {
  Shard& shard = local_shard();
  return find_or_insert(shard.dists, name, [&] {
           shard.dist_storage.emplace_back();
           return std::make_pair(domain, &shard.dist_storage.back());
         }).second;
}

TimerCell* Registry::timer_cell(const char* name) {
  Shard& shard = local_shard();
  return find_or_insert(shard.timers, name, [&] {
    shard.timer_storage.emplace_back();
    return &shard.timer_storage.back();
  });
}

std::vector<std::pair<std::string, std::uint64_t>> Registry::local_counters() {
  Shard& shard = local_shard();
  std::vector<std::pair<std::string, std::uint64_t>> out;
  std::lock_guard<std::mutex> lock(registry_mutex());
  out.reserve(shard.counters.size());
  for (const auto& [name, dc] : shard.counters) {
    if (dc.first == Domain::kDeterministic) out.emplace_back(name, *dc.second);
  }
  return out;  // std::map iteration: already name-sorted
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  for (void* p : shards_) {
    Shard& s = *static_cast<Shard*>(p);
    for (auto& c : s.counter_storage) c = 0;
    for (auto& d : s.dist_storage) d = DistCell{};
    for (auto& t : s.timer_storage) t = TimerCell{};
  }
}

void DistValue::merge(const DistCell& cell) {
  if (cell.count == 0) return;
  if (count == 0 || cell.min < min) min = cell.min;
  if (count == 0 || cell.max > max) max = cell.max;
  count += cell.count;
  sum_fx += cell.sum_fx;
  // Merge sparse-vs-dense buckets: rebuild the sparse list in order.
  std::map<int, std::uint64_t> merged;
  for (const auto& [e, c] : buckets) merged[e] += c;
  for (int i = 0; i < kDistBuckets; ++i) {
    if (cell.buckets[i] > 0) merged[i == 0 ? -9999 : i - 64] += cell.buckets[i];
  }
  buckets.assign(merged.begin(), merged.end());
}

namespace {

Json dist_json(const DistValue& d) {
  Json j = Json::object();
  j.set("count", Json(static_cast<double>(d.count)));
  j.set("min", Json(d.min));
  j.set("max", Json(d.max));
  j.set("mean", Json(d.mean()));
  j.set("sum", Json(d.sum()));
  Json hist = Json::object();
  for (const auto& [e, c] : d.buckets) {
    hist.set(e == -9999 ? std::string("nonpos") : "2^" + std::to_string(e),
             Json(static_cast<double>(c)));
  }
  j.set("log2_hist", hist);
  return j;
}

}  // namespace

Snapshot Registry::snapshot() const {
  std::lock_guard<std::mutex> lock(registry_mutex());
  std::map<std::string, std::pair<Domain, std::uint64_t>> counters;
  std::map<std::string, std::pair<Domain, DistValue>> dists;
  std::map<std::string, TimerCell> timers;
  for (void* p : shards_) {
    const Shard& s = *static_cast<const Shard*>(p);
    for (const auto& [name, dc] : s.counters) {
      auto& slot = counters[name];
      slot.first = dc.first;
      slot.second += *dc.second;
    }
    for (const auto& [name, dc] : s.dists) {
      auto& slot = dists[name];
      slot.first = dc.first;
      slot.second.merge(*dc.second);
    }
    for (const auto& [name, tc] : s.timers) {
      auto& slot = timers[name];
      slot.count += tc->count;
      slot.total_ns += tc->total_ns;
      if (tc->max_ns > slot.max_ns) slot.max_ns = tc->max_ns;
    }
  }
  Snapshot snap;
  for (const auto& [name, dc] : counters) {
    (dc.first == Domain::kDeterministic ? snap.counters
                                        : snap.runtime_counters)
        .emplace_back(name, dc.second);
  }
  for (const auto& [name, dc] : dists) {
    (dc.first == Domain::kDeterministic ? snap.dists : snap.runtime_dists)
        .emplace_back(name, dc.second);
  }
  for (const auto& [name, tc] : timers) snap.timers.emplace_back(name, tc);
  return snap;
}

Json Snapshot::counters_json() const {
  Json j = Json::object();
  // Counters and dists interleave in one lexicographically ordered object
  // so the section's bytes are a pure function of the merged values.
  auto ci = counters.begin();
  auto di = dists.begin();
  while (ci != counters.end() || di != dists.end()) {
    const bool take_counter =
        di == dists.end() ||
        (ci != counters.end() && ci->first < di->first);
    if (take_counter) {
      j.set(ci->first, Json(static_cast<double>(ci->second)));
      ++ci;
    } else {
      j.set(di->first, dist_json(di->second));
      ++di;
    }
  }
  return j;
}

Json Snapshot::runtime_json() const {
  Json j = Json::object();
  Json cj = Json::object();
  for (const auto& [name, v] : runtime_counters) {
    cj.set(name, Json(static_cast<double>(v)));
  }
  j.set("counters", cj);
  Json dj = Json::object();
  for (const auto& [name, d] : runtime_dists) dj.set(name, dist_json(d));
  j.set("dists", dj);
  Json tj = Json::object();
  for (const auto& [name, t] : timers) {
    if (name.find(kTimerEdgeSep) != std::string::npos) continue;
    Json entry = Json::object();
    entry.set("count", Json(static_cast<double>(t.count)));
    entry.set("total_ms", Json(static_cast<double>(t.total_ns) * 1e-6));
    entry.set("max_ms", Json(static_cast<double>(t.max_ns) * 1e-6));
    tj.set(name, entry);
  }
  j.set("timers", tj);
  return j;
}

double DistValue::percentile(double q) const {
  if (count == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (const auto& [e, c] : buckets) {
    seen += c;
    if (seen >= target) {
      if (e == -9999) return 0.0;  // nonpositive-sample bucket
      return std::min(max, std::ldexp(1.0, e + 1));
    }
  }
  return max;
}

const std::uint64_t* Snapshot::counter(const std::string& name) const {
  for (const auto& [n, v] : counters) {
    if (n == name) return &v;
  }
  for (const auto& [n, v] : runtime_counters) {
    if (n == name) return &v;
  }
  return nullptr;
}

const DistValue* Snapshot::dist(const std::string& name) const {
  for (const auto& [n, v] : dists) {
    if (n == name) return &v;
  }
  for (const auto& [n, v] : runtime_dists) {
    if (n == name) return &v;
  }
  return nullptr;
}

namespace {

// Per-thread stack of live ScopedTimer names. Timers are strictly nested
// RAII scopes, so the element below the top is always the closing timer's
// parent *on this thread* — pool workers start fresh stacks, so a timer
// whose parent scope lives on another thread is a root of its own subtree
// (the rollup documents this).
thread_local std::vector<const char*> t_timer_stack;

// Resolve the parent→child edge cell, cached per (parent, child) name
// pointer so the composed "parent\x1echild" registry name is built once
// per pair per thread. \x1e (ASCII record separator) cannot appear in a
// timer name literal, so edge names never collide with plain timers;
// runtime_json filters them out and --timer-rollup rebuilds the tree from
// them. Name literals are pointer-stable (string literals / the static
// experiment registry), so pointer keys are safe.
TimerCell* edge_cell(const char* parent, const char* child) {
  static thread_local std::map<std::pair<const void*, const void*>,
                               TimerCell*>
      cache;
  const auto key = std::make_pair(static_cast<const void*>(parent),
                                  static_cast<const void*>(child));
  auto it = cache.find(key);
  if (it == cache.end()) {
    const std::string name = std::string(parent) + kTimerEdgeSep + child;
    it = cache.emplace(key, Registry::instance().timer_cell(name.c_str()))
             .first;
  }
  return it->second;
}

}  // namespace

void ScopedTimer::open() {
  t0_ = now_ns();
  traced_ = trace::enabled();
  if (traced_) trace::begin(name_, t0_);
  t_timer_stack.push_back(name_);
}

ScopedTimer::ScopedTimer(const char* name)
    : ScopedTimer(name, Registry::instance().timer_cell(name)) {}

void ScopedTimer::close() {
  const std::uint64_t t1 = now_ns();
  cell_->add(t1 - t0_);
  t_timer_stack.pop_back();
  if (!t_timer_stack.empty()) {
    edge_cell(t_timer_stack.back(), name_)->add(t1 - t0_);
  }
  if (traced_) trace::end(name_, t1);
}

}  // namespace sdem::obs
