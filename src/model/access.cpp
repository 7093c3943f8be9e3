#include "model/access.hpp"

#include <algorithm>

namespace sdem {

std::vector<Interval> memory_busy_with_access(
    const Schedule& sched, const std::map<int, TaskAccess>& access) {
  std::vector<Interval> v;
  for (const auto& seg : sched.segments()) {
    TaskAccess a;  // default kWhole
    if (auto it = access.find(seg.task_id); it != access.end()) {
      a = it->second;
    }
    const double f = std::clamp(a.fraction, 0.0, 1.0);
    if (f <= 0.0) continue;
    const double len = seg.duration() * f;
    switch (a.pattern) {
      case AccessPattern::kWhole:
        v.push_back({seg.start, seg.end});
        break;
      case AccessPattern::kPrefix:
        v.push_back({seg.start, seg.start + len});
        break;
      case AccessPattern::kSuffix:
        v.push_back({seg.end - len, seg.end});
        break;
    }
  }
  return merge_intervals(std::move(v));
}

}  // namespace sdem
