// Tests for the schedule validator: one test per failure mode.
#include <gtest/gtest.h>

#include <algorithm>

#include "sched/validate.hpp"
#include "test_util.hpp"

namespace sdem {
namespace {

using test::make_cfg;
using test::task;

TaskSet one_task() {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 100.0));
  return ts;
}

TEST(Validate, AcceptsCorrectSchedule) {
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 100.0});
  const auto v = validate_schedule(s, one_task(), make_cfg(0.0, 4.0));
  EXPECT_TRUE(v.ok) << v.error;
}

TEST(Validate, UnknownTask) {
  Schedule s;
  s.add(Segment{7, 0, 0.0, 1.0, 100.0});
  const auto v = validate_schedule(s, one_task(), make_cfg(0.0, 4.0));
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("unknown task"), std::string::npos);
}

TEST(Validate, StartBeforeRelease) {
  TaskSet ts;
  ts.add(task(0, 0.5, 1.5, 100.0));
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 100.0});
  const auto v = validate_schedule(s, ts, make_cfg(0.0, 4.0));
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("before release"), std::string::npos);
}

TEST(Validate, EndAfterDeadline) {
  Schedule s;
  s.add(Segment{0, 0, 0.5, 1.5, 100.0});
  const auto v = validate_schedule(s, one_task(), make_cfg(0.0, 4.0));
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("after deadline"), std::string::npos);
}

TEST(Validate, WorkloadMismatch) {
  Schedule s;
  s.add(Segment{0, 0, 0.0, 0.5, 100.0});  // only half the work
  const auto v = validate_schedule(s, one_task(), make_cfg(0.0, 4.0));
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("executed"), std::string::npos);
}

TEST(Validate, SpeedAboveCap) {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 2000.0));
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 2000.0});
  const auto v = validate_schedule(s, ts, make_cfg(0.0, 4.0, 1900.0));
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("exceeds s_up"), std::string::npos);
}

TEST(Validate, CoreOverlap) {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 50.0));
  ts.add(task(1, 0.0, 1.0, 50.0));
  Schedule s;
  s.add(Segment{0, 0, 0.0, 0.5, 100.0});
  s.add(Segment{1, 0, 0.4, 0.9, 100.0});
  const auto v = validate_schedule(s, ts, make_cfg(0.0, 4.0));
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("overlap"), std::string::npos);
}

TEST(Validate, Migration) {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 100.0));
  Schedule s;
  s.add(Segment{0, 0, 0.0, 0.5, 100.0});
  s.add(Segment{0, 1, 0.5, 1.0, 100.0});
  ValidateOptions opts;
  opts.require_non_migrating = true;
  const auto v = validate_schedule(s, ts, make_cfg(0.0, 4.0), opts);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("migrates"), std::string::npos);
  opts.require_non_migrating = false;
  EXPECT_TRUE(validate_schedule(s, ts, make_cfg(0.0, 4.0), opts).ok);
}

TEST(Validate, Preemption) {
  TaskSet ts;
  ts.add(task(0, 0.0, 2.0, 100.0));
  Schedule s;
  s.add(Segment{0, 0, 0.0, 0.5, 100.0});
  s.add(Segment{0, 0, 1.0, 1.5, 100.0});
  ValidateOptions opts;
  opts.require_non_preemptive = true;
  const auto v = validate_schedule(s, ts, make_cfg(0.0, 4.0), opts);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("preempted"), std::string::npos);
}

TEST(Validate, BoundedCoreCount) {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 50.0));
  ts.add(task(1, 0.0, 1.0, 50.0));
  Schedule s;
  s.add(Segment{0, 0, 0.0, 1.0, 50.0});
  s.add(Segment{1, 5, 0.0, 1.0, 50.0});  // core index 5
  auto cfg = make_cfg(0.0, 4.0);
  cfg.num_cores = 2;
  const auto v = validate_schedule(s, ts, cfg);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.error.find("cores"), std::string::npos);
}

TEST(Validate, EmptySegmentAndBadSpeed) {
  Schedule s1;
  s1.add(Segment{0, 0, 1.0, 1.0, 100.0});
  EXPECT_FALSE(validate_schedule(s1, one_task(), make_cfg(0.0, 4.0)).ok);
  Schedule s2;
  s2.add(Segment{0, 0, 0.0, 1.0, 0.0});
  EXPECT_FALSE(validate_schedule(s2, one_task(), make_cfg(0.0, 4.0)).ok);
}

TEST(Validate, DeadlineExactCompletionIsFeasible) {
  // Ending exactly at d_i (and starting exactly at r_i) is feasible: the
  // window checks allow 1e-9 s slack, and an exact boundary needs none.
  TaskSet ts;
  ts.add(task(0, 0.25, 1.25, 100.0));
  Schedule s;
  s.add(Segment{0, 0, 0.25, 1.25, 100.0});
  const auto v = validate_schedule(s, ts, make_cfg(0.0, 4.0));
  EXPECT_TRUE(v.ok) << v.describe();
  EXPECT_TRUE(v.violations.empty());
}

TEST(Validate, ZeroLengthPieceIsStructured) {
  Schedule s;
  s.add(Segment{0, 0, 0.5, 0.5, 100.0});
  const auto v = validate_schedule(s, one_task(), make_cfg(0.0, 4.0));
  ASSERT_FALSE(v.ok);
  ASSERT_FALSE(v.violations.empty());
  const auto& viol = v.violations.front();
  EXPECT_EQ(viol.kind, ScheduleViolation::Kind::kEmptySegment);
  EXPECT_EQ(viol.task_id, 0);
  EXPECT_DOUBLE_EQ(viol.at, 0.5);
  EXPECT_EQ(v.error, viol.message);
}

TEST(Validate, CollectsEveryViolationNotJustTheFirst) {
  // One schedule, three independent problems: an unknown task, a window
  // violation, and a work mismatch on the known task.
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 100.0));
  Schedule s;
  s.add(Segment{9, 0, 0.0, 0.5, 10.0});   // unknown task id
  s.add(Segment{0, 1, 0.5, 2.0, 100.0});  // ends after deadline, wrong work
  const auto v = validate_schedule(s, ts, make_cfg(0.0, 4.0));
  ASSERT_FALSE(v.ok);
  EXPECT_GE(v.violations.size(), 3u);
  bool saw_unknown = false, saw_deadline = false, saw_work = false;
  for (const auto& viol : v.violations) {
    saw_unknown |= viol.kind == ScheduleViolation::Kind::kUnknownTask;
    saw_deadline |= viol.kind == ScheduleViolation::Kind::kAfterDeadline;
    saw_work |= viol.kind == ScheduleViolation::Kind::kWorkMismatch;
  }
  EXPECT_TRUE(saw_unknown);
  EXPECT_TRUE(saw_deadline);
  EXPECT_TRUE(saw_work);
  EXPECT_EQ(v.error, v.violations.front().message);
  // describe() renders one "kind: message" line per violation.
  const std::string text = v.describe();
  EXPECT_EQ(static_cast<std::size_t>(std::count(text.begin(), text.end(),
                                                '\n')),
            v.violations.size() - 1);
}

TEST(Validate, MaxViolationsCapsCollection) {
  Schedule s;
  for (int i = 0; i < 10; ++i) {
    s.add(Segment{100 + i, 0, 0.1 * i, 0.1 * i + 0.05, 10.0});
  }
  ValidateOptions opts;
  opts.max_violations = 4;
  const auto v = validate_schedule(s, one_task(), make_cfg(0.0, 4.0), opts);
  ASSERT_FALSE(v.ok);
  EXPECT_EQ(v.violations.size(), 4u);
}

TEST(Validate, KindNamesAreStable) {
  // The shrinker keys on these names; renames would silently break
  // signature-preserving reduction.
  EXPECT_EQ(to_string(ScheduleViolation::Kind::kOverlap), "overlap");
  EXPECT_EQ(to_string(ScheduleViolation::Kind::kWorkMismatch),
            "work-mismatch");
  EXPECT_EQ(to_string(ScheduleViolation::Kind::kAfterDeadline),
            "after-deadline");
  EXPECT_EQ(to_string(ScheduleViolation::Kind::kEmptySegment),
            "empty-segment");
}

}  // namespace
}  // namespace sdem
