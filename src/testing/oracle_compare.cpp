#include "testing/oracle_compare.hpp"

#include <algorithm>
#include <cmath>

#include "support/json.hpp"

namespace sdem::testing {
namespace {

/// The first difference between two plans under the contract of the
/// header, or "" when they match.
std::string plan_difference(const std::vector<Segment>& fast,
                            const std::vector<Segment>& ref) {
  const auto num = [](double v) { return Json::number_to_string(v); };
  if (fast.size() != ref.size()) {
    return "segments " + std::to_string(fast.size()) + " vs " +
           std::to_string(ref.size());
  }
  for (std::size_t i = 0; i < fast.size(); ++i) {
    const Segment& f = fast[i];
    const Segment& r = ref[i];
    const auto seg = [i] { return "segment " + std::to_string(i); };
    if (f.task_id != r.task_id || f.core != r.core) {
      return seg() + " runs task " + std::to_string(f.task_id) + " on core " +
             std::to_string(f.core) + " vs task " + std::to_string(r.task_id) +
             " on core " + std::to_string(r.core);
    }
    if (std::abs(f.start - r.start) > kS7TimeTol ||
        std::abs(f.end - r.end) > kS7TimeTol) {
      return seg() + " [" + num(f.start) + ", " + num(f.end) + "] vs [" +
             num(r.start) + ", " + num(r.end) + "]";
    }
    const double length = std::min(f.end - f.start, r.end - r.start);
    if (std::abs(f.speed - r.speed) * length > kS7TimeTol * r.speed) {
      return seg() + " speed " + num(f.speed) + " vs " + num(r.speed);
    }
  }
  return "";
}

}  // namespace

void TwinPolicy::reset() {
  fast_.reset();
  ref_.reset();
}

std::vector<Segment> TwinPolicy::replan(
    double now, const std::vector<PendingTask>& pending,
    const SystemConfig& cfg) {
  auto plan = fast_.replan(now, pending, cfg);
  compare(plan, ref_.replan(now, pending, cfg), now, /*completion=*/false);
  return plan;
}

std::vector<Segment> TwinPolicy::replan_completion(
    double now, const std::vector<PendingTask>& pending,
    const SystemConfig& cfg) {
  auto plan = fast_.replan_completion(now, pending, cfg);
  compare(plan, ref_.replan_completion(now, pending, cfg), now,
          /*completion=*/true);
  return plan;
}

void TwinPolicy::compare(const std::vector<Segment>& fast,
                         const std::vector<Segment>& ref, double now,
                         bool completion) {
  ++replans_;
  if (!mismatch_.empty()) return;
  const std::string why = plan_difference(fast, ref);
  if (why.empty()) return;
  mismatch_ = "replan " + std::to_string(replans_) + " (" +
              (completion ? "completion" : "arrival") + ") at " +
              Json::number_to_string(now) + ": " + why;
}

}  // namespace sdem::testing
