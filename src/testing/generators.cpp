#include "testing/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "support/rng.hpp"
#include "workload/generator.hpp"

namespace sdem::testing {
namespace {

/// Pick one of `n` weighted branches; weights need not normalize.
int pick(Xoshiro256& rng, std::initializer_list<double> weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = rng.uniform(0.0, total);
  int i = 0;
  for (double w : weights) {
    if (x < w) return i;
    x -= w;
    ++i;
  }
  return static_cast<int>(weights.size()) - 1;
}

bool chance(Xoshiro256& rng, double p) { return rng.uniform() < p; }

SystemConfig random_config(Xoshiro256& rng, ModelClass model) {
  SystemConfig cfg;
  cfg.core.beta = 2.53e-10;
  switch (pick(rng, {2, 1, 1})) {
    case 0:
      cfg.core.lambda = 3.0;
      break;
    case 1:
      cfg.core.lambda = 2.0;
      break;
    default:
      cfg.core.lambda = 2.5;
      break;
  }
  // Half the cases run the alpha = 0 variant (§4.1 / §5.1), half a static
  // power spanning well below to well above the paper's 0.31 W.
  switch (pick(rng, {4, 1, 2, 1})) {
    case 0:
      cfg.core.alpha = 0.0;
      break;
    case 1:
      cfg.core.alpha = 0.05;
      break;
    case 2:
      cfg.core.alpha = 0.31;
      break;
    default:
      cfg.core.alpha = 1.2;
      break;
  }
  cfg.memory.alpha_m = (rng.uniform() < 0.2) ? rng.uniform(0.3, 1.0)
                                             : rng.uniform(2.0, 9.0);
  switch (pick(rng, {1, 3, 1})) {
    case 0:
      cfg.core.s_up = 1400.0;
      break;
    case 1:
      cfg.core.s_up = 1900.0;
      break;
    default:
      cfg.core.s_up = 2600.0;
      break;
  }
  cfg.core.s_min = 0.0;
  cfg.num_cores = 0;  // unbounded; the general class overrides below

  // Transition overheads: off half the time; when on, spread xi_m across
  // the break-even boundary of typical idle gaps (regions are 10..120 ms)
  // so both "sleep pays" and "idle pays" sides get sampled. Core break-even
  // xi applies only to the common-release §7 solver and the simulator.
  if (chance(rng, 0.5)) {
    cfg.memory.xi_m = chance(rng, 0.3) ? rng.uniform(0.001, 0.012)
                                       : rng.uniform(0.012, 0.200);
  }
  if (model != ModelClass::kAgreeable && chance(rng, 0.3)) {
    cfg.core.xi = rng.uniform(0.0005, 0.020);
  }
  if (model == ModelClass::kGeneral && chance(rng, 0.3)) {
    cfg.num_cores = static_cast<int>(rng.uniform_int(1, 8));
  }
  return cfg;
}

/// Rescale workloads so every filled speed stays within s_up. Most tasks
/// land comfortably inside; a few are pushed to the boundary (filled speed
/// == s_up within rounding) to stress deadline-exact completion.
TaskSet clamp_feasible(const TaskSet& in, const SystemConfig& cfg,
                       Xoshiro256& rng) {
  TaskSet out;
  out.reserve(in.size());
  for (Task t : in.tasks()) {
    const double cap = cfg.core.s_up * t.region();
    if (t.work > cap || chance(rng, 0.03)) {
      const double u = chance(rng, 0.25) ? 1.0 : rng.uniform(0.4, 0.98);
      t.work = cap * u;
    }
    if (t.work <= 0.0) t.work = cap * 0.5;
    out.add(t);
  }
  return out;
}

TaskSet gen_common_release(Xoshiro256& rng, const SystemConfig& cfg) {
  const int branch = pick(rng, {1, 6, 2});
  const int n = branch == 0 ? 1
              : branch == 1 ? static_cast<int>(rng.uniform_int(2, 12))
                            : static_cast<int>(rng.uniform_int(13, 24));
  const double release = chance(rng, 0.5) ? 0.0 : rng.uniform(0.0, 0.5);
  // Region spans: mostly the paper's 10..120 ms, sometimes shrunk toward
  // the break-even scale so the sleep-vs-idle decision is genuinely tight.
  double region_lo = 0.010, region_hi = 0.120;
  if (chance(rng, 0.25)) {
    region_lo = 0.002;
    region_hi = std::max(0.004, cfg.memory.xi_m * rng.uniform(0.5, 3.0));
    if (region_hi <= region_lo) region_hi = region_lo * 4.0;
  }
  TaskSet ts = make_common_release(n, release, rng(), 2.0, 5.0, region_lo,
                                   region_hi);
  // Duplicate-deadline edge: the case analysis has a boundary wherever two
  // deadlines coincide.
  if (n >= 2 && chance(rng, 0.3)) {
    std::vector<Task> v = ts.tasks();
    const std::size_t a = rng.uniform_int(0, v.size() - 1);
    const std::size_t b = rng.uniform_int(0, v.size() - 1);
    v[a].deadline = v[b].deadline;
    ts = TaskSet(v);
  }
  return clamp_feasible(ts, cfg, rng);
}

TaskSet gen_agreeable(Xoshiro256& rng, const SystemConfig& cfg) {
  const int branch = pick(rng, {1, 6, 2});
  const int n = branch == 0 ? 1
              : branch == 1 ? static_cast<int>(rng.uniform_int(2, 8))
                            : static_cast<int>(rng.uniform_int(9, 14));
  // Spread selects the block structure: tight spacing produces one busy
  // interval, loose spacing produces one block per task; the interesting
  // bugs sit between, where the DP's partition choice flips.
  const double spread = chance(rng, 0.3) ? rng.uniform(0.001, 0.020)
                                         : rng.uniform(0.020, 0.300);
  double region_lo = 0.010, region_hi = 0.120;
  if (chance(rng, 0.25)) {
    region_lo = 0.003;
    region_hi = 0.030;
  }
  TaskSet ts =
      make_agreeable(n, rng(), spread, 2.0, 5.0, region_lo, region_hi);
  // Simultaneous-release edge (still agreeable): collapse a neighboring
  // pair's releases.
  if (n >= 2 && chance(rng, 0.25)) {
    std::vector<Task> v = ts.tasks();
    const std::size_t i = rng.uniform_int(1, v.size() - 1);
    v[i].release = v[i - 1].release;
    if (v[i].deadline < v[i - 1].deadline) {
      v[i].deadline = v[i - 1].deadline;
    }
    TaskSet merged(v);
    if (merged.is_agreeable()) ts = merged;
  }
  return clamp_feasible(ts, cfg, rng);
}

TaskSet gen_general(Xoshiro256& rng, const SystemConfig& cfg) {
  TaskSet ts;
  if (chance(rng, 0.35)) {
    BurstyParams p;
    p.num_tasks = static_cast<int>(rng.uniform_int(2, 24));
    p.burst_size = static_cast<int>(rng.uniform_int(2, 8));
    p.intra_spacing = chance(rng, 0.3) ? 0.0 : rng.uniform(0.0005, 0.004);
    p.burst_gap = rng.uniform(0.050, 0.600);
    ts = make_bursty(p, rng());
  } else {
    SyntheticParams p;
    p.num_tasks = static_cast<int>(rng.uniform_int(1, 28));
    p.max_interarrival = chance(rng, 0.3) ? rng.uniform(0.005, 0.060)
                                          : rng.uniform(0.060, 0.800);
    if (chance(rng, 0.2)) {
      p.region_lo = 0.003;
      p.region_hi = 0.040;
    }
    ts = make_synthetic(p, rng());
  }
  return clamp_feasible(ts, cfg, rng);
}

/// A random well-formed sleep ladder against cfg.memory.alpha_m. Half the
/// cases take the geometric family (deepest rung == the paper state); the
/// rest draw free-form rungs with power strictly decreasing, xi strictly
/// increasing and latency non-decreasing — valid by construction, so any
/// ladder:validity violation points at the model code, not the generator.
SleepLadder random_sleep_ladder(Xoshiro256& rng, const SystemConfig& cfg) {
  const double alpha_m = cfg.memory.alpha_m;
  const double xi_m = cfg.memory.xi_m;
  const int depth = static_cast<int>(rng.uniform_int(1, 4));
  if (chance(rng, 0.5)) {
    return SleepLadder::geometric(alpha_m, xi_m, depth,
                                  rng.uniform(0.0, 0.15));
  }
  SleepLadder ladder;
  double power = alpha_m * rng.uniform(0.3, 0.8);
  double xi = xi_m * rng.uniform(0.05, 0.4);
  double latency = 0.0;
  for (int k = 0; k < depth; ++k) {
    const double lat = std::max(latency, xi * rng.uniform(0.0, 0.25));
    std::string name = "s";
    name += std::to_string(k);
    ladder.add_state(std::move(name), power, (alpha_m - power) * xi, lat,
                     alpha_m);
    latency = lat;
    power *= rng.uniform(0.15, 0.7);
    if (k + 2 == depth && chance(rng, 0.5)) power = 0.0;  // deep rung off
    xi *= rng.uniform(1.6, 4.0);
  }
  return ladder;
}

TaskSet gen_sleep_ladder(Xoshiro256& rng, const SystemConfig& cfg) {
  // Mostly bursty with wide intra-burst spacing: that is the gap regime
  // where shallow vs deep states genuinely compete (and where the governor
  // has something to predict). The rest reuse the general-class shapes.
  if (chance(rng, 0.6)) {
    BurstyParams p;
    p.num_tasks = static_cast<int>(rng.uniform_int(2, 24));
    p.burst_size = static_cast<int>(rng.uniform_int(2, 8));
    p.intra_spacing = chance(rng, 0.5) ? rng.uniform(0.004, 0.020)
                                       : rng.uniform(0.0005, 0.004);
    p.burst_gap = rng.uniform(0.050, 0.600);
    return clamp_feasible(make_bursty(p, rng()), cfg, rng);
  }
  return gen_general(rng, cfg);
}

std::vector<double> maybe_ladder(Xoshiro256& rng, const SystemConfig& cfg) {
  if (!chance(rng, 0.25)) return {};
  const int levels = static_cast<int>(rng.uniform_int(2, 8));
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(levels));
  // Top level == s_up keeps every generated case ladder-feasible.
  const double lo = cfg.core.s_up * rng.uniform(0.25, 0.6);
  for (int i = 0; i < levels; ++i) {
    const double f = levels == 1 ? 1.0
                                 : static_cast<double>(i) /
                                       static_cast<double>(levels - 1);
    out.push_back(lo + (cfg.core.s_up - lo) * f);
  }
  return out;
}

}  // namespace

std::string to_string(ModelClass m) {
  switch (m) {
    case ModelClass::kCommonRelease:
      return "common_release";
    case ModelClass::kAgreeable:
      return "agreeable";
    case ModelClass::kGeneral:
      return "general";
    case ModelClass::kSleepLadder:
      return "sleep_ladder";
  }
  return "unknown";
}

ModelClass model_class_from_string(const std::string& s) {
  if (s == "common_release") return ModelClass::kCommonRelease;
  if (s == "agreeable") return ModelClass::kAgreeable;
  if (s == "general") return ModelClass::kGeneral;
  if (s == "sleep_ladder") return ModelClass::kSleepLadder;
  throw std::invalid_argument("unknown model class: " + s);
}

FuzzCase generate_case(ModelClass model, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  FuzzCase c;
  c.model = model;
  c.seed = seed;
  c.cfg = random_config(rng, model);
  switch (model) {
    case ModelClass::kCommonRelease:
      c.tasks = gen_common_release(rng, c.cfg);
      c.ladder = maybe_ladder(rng, c.cfg);
      break;
    case ModelClass::kAgreeable:
      c.tasks = gen_agreeable(rng, c.cfg);
      break;
    case ModelClass::kGeneral:
      c.tasks = gen_general(rng, c.cfg);
      break;
    case ModelClass::kSleepLadder:
      // The depth-1 differential needs a live single-state model to diff
      // against, so xi_m is always positive in this class.
      if (c.cfg.memory.xi_m <= 0.0) {
        c.cfg.memory.xi_m = chance(rng, 0.3) ? rng.uniform(0.001, 0.012)
                                             : rng.uniform(0.012, 0.200);
      }
      c.cfg.memory.ladder = random_sleep_ladder(rng, c.cfg);
      c.tasks = gen_sleep_ladder(rng, c.cfg);
      break;
  }
  return c;
}

}  // namespace sdem::testing
