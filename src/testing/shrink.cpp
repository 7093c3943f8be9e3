#include "testing/shrink.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

namespace sdem::testing {
namespace {

std::set<std::string> signature(const std::vector<Violation>& v) {
  std::set<std::string> out;
  for (const auto& viol : v) out.insert(viol.invariant);
  return out;
}

/// Cheap structural pre-filter: a candidate must still be a valid instance
/// of the case's model class before it is worth running the solvers.
bool structurally_valid(const FuzzCase& c) {
  if (c.tasks.empty()) return false;
  if (!c.tasks.validate().empty()) return false;
  switch (c.model) {
    case ModelClass::kCommonRelease:
      if (!c.tasks.is_common_release()) return false;
      break;
    case ModelClass::kAgreeable:
      if (!c.tasks.is_agreeable()) return false;
      break;
    case ModelClass::kGeneral:
      break;
    case ModelClass::kSleepLadder:
      if (c.cfg.memory.ladder.empty()) return false;
      break;
  }
  return c.cfg.core.admits(c.tasks.max_filled_speed());
}

double round_digits(double v, int digits) {
  const double scale = std::pow(10.0, digits);
  return std::round(v * scale) / scale;
}

class Shrinker {
 public:
  Shrinker(const FuzzCase& failing, const CheckOptions& opts, int max_attempts)
      : opts_(opts), budget_(max_attempts) {
    result_.reduced = failing;
    result_.violations = check_case(failing, opts_);
    target_ = signature(result_.violations);
  }

  ShrinkResult run() {
    if (target_.empty()) return result_;  // not failing: nothing to do
    bool progress = true;
    while (progress && budget_ > 0) {
      progress = false;
      progress |= shrink_tasks();
      progress |= shrink_config();
      progress |= shrink_values();
    }
    return result_;
  }

 private:
  /// Accept `candidate` if it preserves (part of) the failure signature.
  bool try_accept(FuzzCase candidate) {
    if (budget_ <= 0) return false;
    if (!structurally_valid(candidate)) return false;
    --budget_;
    ++result_.attempts;
    const auto violations = check_case(candidate, opts_);
    const auto sig = signature(violations);
    bool overlaps = false;
    for (const auto& name : sig) {
      if (target_.count(name)) {
        overlaps = true;
        break;
      }
    }
    if (!overlaps) return false;
    result_.reduced = std::move(candidate);
    result_.violations = violations;
    ++result_.accepted;
    return true;
  }

  /// ddmin-style chunk removal over the task vector.
  bool shrink_tasks() {
    bool any = false;
    std::size_t chunk = std::max<std::size_t>(1, result_.reduced.tasks.size() / 2);
    while (chunk >= 1 && budget_ > 0) {
      bool removed = false;
      for (std::size_t lo = 0; lo < result_.reduced.tasks.size();) {
        const auto& cur = result_.reduced.tasks.tasks();
        if (cur.size() <= 1) break;
        const std::size_t hi = std::min(cur.size(), lo + chunk);
        std::vector<Task> kept;
        kept.reserve(cur.size() - (hi - lo));
        for (std::size_t i = 0; i < cur.size(); ++i) {
          if (i < lo || i >= hi) kept.push_back(cur[i]);
        }
        FuzzCase cand = result_.reduced;
        cand.tasks = TaskSet(std::move(kept));
        if (try_accept(std::move(cand))) {
          any = removed = true;
          // indices shifted: retry the same lo against the smaller set
        } else {
          lo += chunk;
        }
      }
      if (!removed && chunk == 1) break;
      if (!removed) chunk /= 2;
    }
    return any;
  }

  bool shrink_config() {
    bool any = false;
    const auto try_edit = [&](auto edit) {
      FuzzCase cand = result_.reduced;
      edit(cand);
      if (try_accept(std::move(cand))) any = true;
    };
    if (!result_.reduced.ladder.empty())
      try_edit([](FuzzCase& c) { c.ladder.clear(); });
    // Sleep-ladder cases: a shallower prefix is a much easier read, and
    // most ladder bugs survive with one or two rungs.
    for (int d = 1; d < result_.reduced.cfg.memory.ladder.depth(); ++d) {
      const int keep = d;
      try_edit([keep](FuzzCase& c) {
        c.cfg.memory.ladder = c.cfg.memory.ladder.prefix(keep);
      });
      if (result_.reduced.cfg.memory.ladder.depth() <= keep) break;
    }
    if (result_.reduced.cfg.core.xi > 0.0)
      try_edit([](FuzzCase& c) { c.cfg.core.xi = 0.0; });
    if (result_.reduced.cfg.memory.xi_m > 0.0)
      try_edit([](FuzzCase& c) { c.cfg.memory.xi_m = 0.0; });
    if (result_.reduced.cfg.core.alpha > 0.0)
      try_edit([](FuzzCase& c) { c.cfg.core.alpha = 0.0; });
    if (result_.reduced.cfg.num_cores > 0)
      try_edit([](FuzzCase& c) { c.cfg.num_cores = 0; });
    if (result_.reduced.cfg.core.lambda != 3.0)
      try_edit([](FuzzCase& c) { c.cfg.core.lambda = 3.0; });
    return any;
  }

  bool shrink_values() {
    bool any = false;
    // Translate the trace to start at t = 0 (ids stay as-is: they matter
    // for the round-robin core assignment in the general class).
    const double lo = result_.reduced.tasks.min_release();
    if (lo != 0.0) {
      FuzzCase cand = result_.reduced;
      std::vector<Task> v = cand.tasks.tasks();
      for (auto& t : v) {
        t.release -= lo;
        t.deadline -= lo;
      }
      cand.tasks = TaskSet(std::move(v));
      if (try_accept(std::move(cand))) any = true;
    }
    // Coarse first: a 3-digit reproducer is far easier to read than a
    // 6-digit one, and rounding often breaks the failure, so try both.
    for (int digits : {3, 4, 6}) {
      FuzzCase cand = result_.reduced;
      std::vector<Task> v = cand.tasks.tasks();
      bool changed = false;
      for (auto& t : v) {
        const Task before = t;
        t.release = round_digits(t.release, digits);
        t.deadline = round_digits(t.deadline, digits);
        t.work = round_digits(t.work, digits);
        changed |= t.release != before.release ||
                   t.deadline != before.deadline || t.work != before.work;
      }
      if (!changed) break;
      cand.tasks = TaskSet(std::move(v));
      if (try_accept(std::move(cand))) {
        any = true;
        break;
      }
    }
    return any;
  }

  const CheckOptions& opts_;
  int budget_;
  std::set<std::string> target_;
  ShrinkResult result_;
};

}  // namespace

ShrinkResult shrink_case(const FuzzCase& failing, const CheckOptions& opts,
                         int max_attempts) {
  return Shrinker(failing, opts, max_attempts).run();
}

}  // namespace sdem::testing
