// Tests for the differential-fuzzing subsystem (src/testing/): generator
// determinism and class validity, the invariant checker on known-good and
// known-bad cases, signature-preserving shrinking, and the .repro.json
// round trip. The fuzzer itself runs as the fuzz_smoke / fuzz_corpus_replay
// ctest targets and in CI; these tests pin the machinery it stands on.
#include <gtest/gtest.h>

#include <sstream>

#include "testing/fuzz_driver.hpp"
#include "testing/generators.hpp"
#include "testing/invariants.hpp"
#include "testing/repro_io.hpp"
#include "testing/shrink.hpp"
#include "test_util.hpp"

namespace sdem {
namespace {

// Keep the unit tests fast: the grid-reference oracles are the fuzzer's
// job, not this binary's.
sdem::testing::CheckOptions fast_opts() {
  sdem::testing::CheckOptions opts;
  opts.run_reference = false;
  return opts;
}

TEST(FuzzCase, ModelClassNamesRoundTrip) {
  using sdem::testing::ModelClass;
  for (ModelClass m : {ModelClass::kCommonRelease, ModelClass::kAgreeable,
                       ModelClass::kGeneral}) {
    EXPECT_EQ(sdem::testing::model_class_from_string(
                  sdem::testing::to_string(m)),
              m);
  }
  EXPECT_THROW(sdem::testing::model_class_from_string("bogus"),
               std::invalid_argument);
}

TEST(FuzzGenerators, SameSeedSameCase) {
  using sdem::testing::ModelClass;
  for (ModelClass m : {ModelClass::kCommonRelease, ModelClass::kAgreeable,
                       ModelClass::kGeneral}) {
    const auto a = sdem::testing::generate_case(m, 42);
    const auto b = sdem::testing::generate_case(m, 42);
    EXPECT_EQ(sdem::testing::repro_to_json(a),
              sdem::testing::repro_to_json(b));
    const auto c = sdem::testing::generate_case(m, 43);
    EXPECT_NE(sdem::testing::repro_to_json(a),
              sdem::testing::repro_to_json(c));
  }
}

TEST(FuzzGenerators, CasesAreStructurallyValid) {
  using sdem::testing::ModelClass;
  for (ModelClass m : {ModelClass::kCommonRelease, ModelClass::kAgreeable,
                       ModelClass::kGeneral}) {
    for (std::uint64_t seed = 1; seed <= 25; ++seed) {
      const auto c = sdem::testing::generate_case(m, seed);
      ASSERT_FALSE(c.tasks.empty());
      EXPECT_TRUE(c.tasks.validate().empty()) << c.tasks.validate();
      if (m == ModelClass::kCommonRelease) {
        EXPECT_TRUE(c.tasks.is_common_release());
      }
      if (m == ModelClass::kAgreeable) {
        EXPECT_TRUE(c.tasks.is_agreeable());
      }
      if (c.cfg.core.s_up > 0.0) {
        EXPECT_LE(c.tasks.max_filled_speed(),
                  c.cfg.core.s_up * (1.0 + 1e-12));
      }
    }
  }
}

TEST(FuzzInvariants, SmallSeedsAreClean) {
  using sdem::testing::ModelClass;
  const auto opts = fast_opts();
  for (ModelClass m : {ModelClass::kCommonRelease, ModelClass::kAgreeable,
                       ModelClass::kGeneral}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto c = sdem::testing::generate_case(m, seed);
      const auto violations = sdem::testing::check_case(c, opts);
      EXPECT_TRUE(violations.empty())
          << sdem::testing::to_string(m) << " seed " << seed << ": "
          << sdem::testing::summarize(violations);
    }
  }
}

TEST(FuzzInvariants, FlagsOutOfClassCases) {
  // A case tagged agreeable whose windows cross must fail class checking
  // without running any solver.
  sdem::testing::FuzzCase c;
  c.model = sdem::testing::ModelClass::kAgreeable;
  c.cfg = test::make_cfg(0.0, 4.0);
  TaskSet ts;
  ts.add(test::task(0, 0.0, 5.0, 10.0));
  ts.add(test::task(1, 1.0, 2.0, 10.0));  // earlier deadline, later release
  c.tasks = ts;
  const auto violations = sdem::testing::check_case(c, fast_opts());
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().invariant, "class:model");
}

TEST(FuzzShrink, ReducesToMinimalFailingCase) {
  // A negative ordering tolerance makes the lower-bound comparison fail for
  // every structurally valid case, so the shrinker should drive any case
  // down to a single task while the signature keeps overlapping.
  auto opts = fast_opts();
  opts.order_tol = -1.0;
  const auto c = sdem::testing::generate_case(
      sdem::testing::ModelClass::kCommonRelease, 11);
  ASSERT_GE(c.tasks.size(), 2u);
  ASSERT_FALSE(sdem::testing::check_case(c, opts).empty());

  const auto r = sdem::testing::shrink_case(c, opts, 300);
  EXPECT_EQ(r.reduced.tasks.size(), 1u);
  EXPECT_GT(r.attempts, 0);
  EXPECT_GT(r.accepted, 0);
  ASSERT_FALSE(r.violations.empty());
  bool kept_signature = false;
  for (const auto& v : r.violations) {
    kept_signature |= v.invariant.rfind("order:", 0) == 0;
  }
  EXPECT_TRUE(kept_signature);
}

TEST(FuzzShrink, AcceptsAReductionInsideTheAdmissionSlack) {
  // The shrinker keeps exactly the cases the solvers admit: a filled speed
  // up to s_up (1 + 1e-12). Under a negative ordering tolerance every valid
  // case fails, so the first reduction, which drops task 0 and keeps task 1
  // at the slack's edge, is accepted.
  auto opts = fast_opts();
  opts.order_tol = -1.0;
  sdem::testing::FuzzCase c;
  c.model = sdem::testing::ModelClass::kCommonRelease;
  c.cfg = test::make_cfg(0.31, 4.0);
  TaskSet ts;
  ts.add(test::task(0, 0.0, 2.0, 100.0));
  ts.add(test::task(1, 0.0, 1.0, 1900.0 * (1.0 + 1e-12)));
  c.tasks = ts;
  ASSERT_FALSE(sdem::testing::check_case(c, opts).empty());

  const auto r = sdem::testing::shrink_case(c, opts, 50);
  ASSERT_EQ(r.reduced.tasks.size(), 1u);
  EXPECT_EQ(r.reduced.tasks[0].id, 1);
}

TEST(FuzzShrink, CleanCaseIsUntouched) {
  const auto c = sdem::testing::generate_case(
      sdem::testing::ModelClass::kCommonRelease, 3);
  const auto r = sdem::testing::shrink_case(c, fast_opts(), 100);
  EXPECT_TRUE(r.violations.empty());
  EXPECT_EQ(r.reduced.tasks.size(), c.tasks.size());
  EXPECT_EQ(r.accepted, 0);
}

TEST(FuzzRepro, JsonRoundTripIsExact) {
  using sdem::testing::ModelClass;
  for (ModelClass m : {ModelClass::kCommonRelease, ModelClass::kAgreeable,
                       ModelClass::kGeneral}) {
    const auto c = sdem::testing::generate_case(m, 99);
    const std::string text = sdem::testing::repro_to_json(c);
    const auto back = sdem::testing::repro_from_json(text);
    // Bit-exact doubles: re-serialization reproduces the same bytes.
    EXPECT_EQ(sdem::testing::repro_to_json(back), text);
    EXPECT_EQ(back.model, c.model);
    EXPECT_EQ(back.seed, c.seed);
    EXPECT_EQ(back.tasks.size(), c.tasks.size());
    EXPECT_EQ(back.ladder, c.ladder);
  }
}

TEST(FuzzRepro, RejectsMalformedDocuments) {
  EXPECT_THROW(sdem::testing::repro_from_json("not json"),
               std::invalid_argument);
  EXPECT_THROW(sdem::testing::repro_from_json("{}"), std::invalid_argument);
  EXPECT_THROW(
      sdem::testing::repro_from_json(
          R"({"sdem_repro": 1, "model": "common_release", "tasks": 3})"),
      std::invalid_argument);
}

TEST(FuzzRepro, RefusesBadIdsAndInvalidTasks) {
  // Task ids follow the wire's rule, and the task set TaskSet::validate().
  const auto doc = [](const std::string& tasks) {
    return R"({"sdem_repro": 1, "model": "general", "config": {"core": )"
           R"({"alpha": 0.31, "beta": 2.53e-10, "lambda": 3, "s_up": 1900},)"
           R"( "memory": {"alpha_m": 4}}, "tasks": [)" +
           tasks + "]}";
  };
  EXPECT_NO_THROW(sdem::testing::repro_from_json(
      doc(R"({"id": 3, "release": 0, "deadline": 1, "work": 5})")));
  for (const char* bad : {
           R"({"id": 1e20, "release": 0, "deadline": 1, "work": 5})",
           R"({"id": 1.5, "release": 0, "deadline": 1, "work": 5})",
           R"({"id": 1, "release": 1, "deadline": 0.5, "work": 5})",
           R"({"id": 1, "release": 0, "deadline": 1, "work": -5})",
           R"({"id": 1, "release": 0, "deadline": 1, "work": 5},)"
           R"({"id": 1, "release": 0, "deadline": 2, "work": 5})",
       }) {
    EXPECT_THROW(sdem::testing::repro_from_json(doc(bad)),
                 std::invalid_argument)
        << bad;
  }
}

TEST(FuzzRepro, TestBodyNamesTheCase) {
  const auto c = sdem::testing::generate_case(
      sdem::testing::ModelClass::kAgreeable, 5);
  const std::string body =
      sdem::testing::repro_test_body(c, "AgreeableSeed5");
  EXPECT_NE(body.find("TEST(FuzzRegression, AgreeableSeed5)"),
            std::string::npos);
  EXPECT_NE(body.find("sdem::testing::ModelClass::kAgreeable"),
            std::string::npos);
  EXPECT_NE(body.find("sdem::testing::check_case"), std::string::npos);
  // One ts.add per task.
  std::size_t adds = 0;
  for (std::size_t pos = body.find("ts.add("); pos != std::string::npos;
       pos = body.find("ts.add(", pos + 1)) {
    ++adds;
  }
  EXPECT_EQ(adds, c.tasks.size());
}

TEST(FuzzDriver, RunIsDeterministicAndBudgeted) {
  sdem::testing::FuzzOptions opts;
  opts.seed = 7;
  opts.cases = 3;
  opts.quiet = true;
  opts.check = fast_opts();
  std::ostringstream log1, log2;
  const auto r1 = sdem::testing::run_fuzz(opts, log1);
  const auto r2 = sdem::testing::run_fuzz(opts, log2);
  EXPECT_EQ(r1.cases_run, 12);  // 3 per model class
  EXPECT_EQ(r1.cases_per_model[0], 3);
  EXPECT_EQ(r1.cases_per_model[1], 3);
  EXPECT_EQ(r1.cases_per_model[2], 3);
  EXPECT_EQ(r1.cases_per_model[3], 3);
  EXPECT_TRUE(r1.clean()) << log1.str();
  EXPECT_EQ(r1.cases_run, r2.cases_run);
  EXPECT_EQ(log1.str(), log2.str());
}

TEST(FuzzDriver, ReplayCatchesMissingFile) {
  std::ostringstream log;
  EXPECT_FALSE(sdem::testing::replay_repro("/nonexistent/x.repro.json",
                                           fast_opts(), log));
  EXPECT_NE(log.str().find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace sdem
