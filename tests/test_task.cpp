// Tests for the task model and task-set classification.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "core/common_release_alpha.hpp"
#include "core/common_release_alpha0.hpp"
#include "core/transition.hpp"
#include "model/task.hpp"
#include "sched/trace_io.hpp"
#include "service/protocol.hpp"
#include "test_util.hpp"

namespace sdem {
namespace {

using test::task;

TEST(Task, FilledSpeed) {
  EXPECT_DOUBLE_EQ(task(0, 0.0, 2.0, 10.0).filled_speed(), 5.0);
  EXPECT_DOUBLE_EQ(task(0, 1.0, 3.0, 1.0).filled_speed(), 0.5);
  EXPECT_TRUE(std::isinf(task(0, 1.0, 1.0, 1.0).filled_speed()));
}

TEST(TaskSet, ClassifyCommonReleaseDeadline) {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 1.0));
  ts.add(task(1, 0.0, 1.0, 2.0));
  EXPECT_EQ(ts.classify(), TaskModel::kCommonReleaseDeadline);
  EXPECT_TRUE(ts.is_common_release());
  EXPECT_TRUE(ts.is_agreeable());
}

TEST(TaskSet, ClassifyCommonRelease) {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 1.0));
  ts.add(task(1, 0.0, 2.0, 2.0));
  EXPECT_EQ(ts.classify(), TaskModel::kCommonRelease);
}

TEST(TaskSet, ClassifyAgreeable) {
  TaskSet ts;
  ts.add(task(0, 0.0, 1.0, 1.0));
  ts.add(task(1, 0.5, 1.5, 2.0));
  EXPECT_EQ(ts.classify(), TaskModel::kAgreeable);
  EXPECT_FALSE(ts.is_common_release());
}

TEST(TaskSet, ClassifyGeneral) {
  TaskSet ts;
  ts.add(task(0, 0.0, 2.0, 1.0));
  ts.add(task(1, 0.5, 1.0, 2.0));  // nested
  EXPECT_EQ(ts.classify(), TaskModel::kGeneral);
  EXPECT_FALSE(ts.is_agreeable());
}

TEST(TaskSet, EqualReleasesAnyDeadlineOrderIsAgreeable) {
  TaskSet ts;
  ts.add(task(0, 0.0, 2.0, 1.0));
  ts.add(task(1, 0.0, 1.0, 1.0));  // same release, earlier deadline: fine
  EXPECT_TRUE(ts.is_agreeable());
}

TEST(TaskSet, EmptySetProperties) {
  TaskSet ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_TRUE(ts.is_common_release());
  EXPECT_TRUE(ts.is_agreeable());
  EXPECT_EQ(ts.total_work(), 0.0);
  EXPECT_TRUE(ts.validate().empty());
}

TEST(TaskSet, SortedByDeadlineStable) {
  TaskSet ts;
  ts.add(task(2, 0.0, 3.0, 1.0));
  ts.add(task(0, 0.0, 1.0, 1.0));
  ts.add(task(1, 0.0, 2.0, 1.0));
  const auto sorted = ts.sorted_by_deadline();
  EXPECT_EQ(sorted[0].id, 0);
  EXPECT_EQ(sorted[1].id, 1);
  EXPECT_EQ(sorted[2].id, 2);
}

TEST(TaskSet, SortedByRelease) {
  TaskSet ts;
  ts.add(task(1, 2.0, 3.0, 1.0));
  ts.add(task(0, 1.0, 4.0, 1.0));
  const auto sorted = ts.sorted_by_release();
  EXPECT_EQ(sorted[0].id, 0);
}

TEST(TaskSet, ValidateCatchesBadTasks) {
  {
    TaskSet ts;
    ts.add(task(0, 0.0, 1.0, -1.0));
    EXPECT_NE(ts.validate().find("task field \"work\" must be >= 0"),
              std::string::npos);
  }
  {
    TaskSet ts;
    ts.add(task(0, 1.0, 1.0, 1.0));
    EXPECT_NE(ts.validate().find("task \"deadline\" must be > \"release\""),
              std::string::npos);
  }
  {
    TaskSet ts;
    ts.add(task(0, 0.0, 1.0, 1.0));
    ts.add(task(0, 0.0, 2.0, 1.0));
    EXPECT_NE(ts.validate().find("duplicate"), std::string::npos);
  }
}

TEST(TaskSet, Aggregates) {
  TaskSet ts;
  ts.add(task(0, 1.0, 2.0, 3.0));
  ts.add(task(1, 0.5, 4.0, 7.0));
  EXPECT_DOUBLE_EQ(ts.min_release(), 0.5);
  EXPECT_DOUBLE_EQ(ts.max_deadline(), 4.0);
  EXPECT_DOUBLE_EQ(ts.total_work(), 10.0);
  EXPECT_DOUBLE_EQ(ts.max_filled_speed(), 3.0);  // 3/1 vs 2
}

// The task rule holds alike wherever a task enters: a programmatic TaskSet
// (validate), a wire SUBMIT (parse_request) and a CSV task file
// (task_set_from_csv) refuse each invalid class with the same reason, and
// accept the boundary cases, which the §4 and §7 solvers then plan.
TEST(TaskRule, EveryEntryPointAppliesTheSameRule) {
  const char* const kRelease = "task field \"release\" must be a finite number";
  const char* const kDeadline =
      "task field \"deadline\" must be a finite number";
  const char* const kWork = "task field \"work\" must be a finite number";
  const char* const kNegative = "task field \"work\" must be >= 0";
  const char* const kOrder = "task \"deadline\" must be > \"release\"";
  const char* const kWindow = "task \"deadline\" - \"release\" must be finite";
  const char* const kSpeed =
      "task \"work\" / (\"deadline\" - \"release\") must be finite";
  // The paper default's s_up is 1900 MHz; the solvers admit a filled speed
  // up to s_up (1 + 1e-12).
  char at_slack[32];
  std::snprintf(at_slack, sizeof(at_slack), "%.17g", 1900.0 * (1.0 + 1e-12));
  struct Row {
    const char* release;
    const char* deadline;
    const char* work;
    const char* reason;  ///< "" for a valid task
  };
  const Row rows[] = {
      {"NaN", "1", "5", kRelease},       {"inf", "1", "5", kRelease},
      {"-inf", "1", "5", kRelease},      {"0", "NaN", "5", kDeadline},
      {"0", "inf", "5", kDeadline},      {"0", "-inf", "5", kDeadline},
      {"0", "1", "NaN", kWork},          {"0", "1", "inf", kWork},
      {"0", "1", "-inf", kWork},         {"0", "1", "-1", kNegative},
      {"1", "1", "5", kOrder},           {"2", "1", "5", kOrder},
      {"-1e308", "1e308", "5", kWindow}, {"0", "0.5", "1e308", kSpeed},
      {"0", "1", "0", ""},               {"0", "1", "1900", ""},
      {"0", "1", at_slack, ""},
  };
  for (const Row& r : rows) {
    const std::string what = std::string(r.release) + ", " + r.deadline +
                             ", " + r.work;
    const bool valid = *r.reason == '\0';
    const Task t = task(1, std::strtod(r.release, nullptr),
                        std::strtod(r.deadline, nullptr),
                        std::strtod(r.work, nullptr));
    TaskSet ts;
    ts.add(t);
    ts.add(task(2, 0.0, 2.0, 100.0));
    const std::string err = ts.validate();
    EXPECT_EQ(err.empty(), valid) << what << ": " << err;
    EXPECT_NE(err.find(r.reason), std::string::npos) << what << ": " << err;

    const service::Parsed p = service::parse_request(
        std::string("{\"op\":\"SUBMIT\",\"island\":0,\"task\":{\"id\":1,") +
        "\"release\":" + r.release + ",\"deadline\":" + r.deadline +
        ",\"work\":" + r.work + "}}");
    EXPECT_EQ(p.ok, valid) << what;
    EXPECT_EQ(p.error, r.reason) << what;

    std::string csv_err;
    try {
      task_set_from_csv(std::string("id,release,deadline,work\n1,") +
                        r.release + "," + r.deadline + "," + r.work +
                        "\n2,0,2,100\n");
    } catch (const std::invalid_argument& e) {
      csv_err = e.what();
    }
    EXPECT_EQ(csv_err.empty(), valid) << what << ": " << csv_err;
    EXPECT_NE(csv_err.find(r.reason), std::string::npos)
        << what << ": " << csv_err;

    if (!valid) continue;
    const SystemConfig cfg = SystemConfig::paper_default();
    EXPECT_TRUE(solve_common_release_alpha(ts, cfg).feasible) << what;
    EXPECT_TRUE(solve_common_release_alpha0(
                    ts, SystemConfig::paper_default_alpha0())
                    .feasible)
        << what;
    EXPECT_TRUE(solve_common_release_transition(ts, cfg).feasible) << what;
  }
}

TEST(TaskModel, ToString) {
  EXPECT_EQ(to_string(TaskModel::kAgreeable), "agreeable");
  EXPECT_EQ(to_string(TaskModel::kGeneral), "general");
}

}  // namespace
}  // namespace sdem
