// Tests for schedule CSV round-trip and the ASCII Gantt renderer.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "sched/trace_io.hpp"

namespace sdem {
namespace {

Schedule sample() {
  Schedule s;
  s.add(Segment{0, 0, 0.0, 0.5, 849.123456789});
  s.add(Segment{1, 1, 0.25, 1.0, 1900.0});
  s.add(Segment{2, 0, 2.0, 2.5, 700.0});
  return s;
}

TEST(TraceIo, CsvRoundTripExact) {
  const auto s = sample();
  const auto csv = schedule_to_csv(s);
  const auto back = schedule_from_csv(csv);
  ASSERT_EQ(back.size(), s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_EQ(back.segments()[i].task_id, s.segments()[i].task_id);
    EXPECT_EQ(back.segments()[i].core, s.segments()[i].core);
    EXPECT_EQ(back.segments()[i].start, s.segments()[i].start);
    EXPECT_EQ(back.segments()[i].end, s.segments()[i].end);
    EXPECT_EQ(back.segments()[i].speed, s.segments()[i].speed);
  }
}

TEST(TraceIo, CsvHeaderRequired) {
  EXPECT_THROW(schedule_from_csv("nope\n1,2,3,4,5\n"), std::invalid_argument);
}

TEST(TraceIo, CsvBadRowRejected) {
  // Rows are whole finite numbers: a number followed by other bytes is not
  // that number, and NaN or inf is no time or speed.
  for (const char* row :
       {"1,2,oops", "1,0,0,0.5,849x", "1,0,nan,0.5,849", "1,0,0,inf,849",
        "1,0,0,0.5,849,", "1,0.5,0,0.5,849"}) {
    EXPECT_THROW(
        schedule_from_csv(std::string("task,core,start,end,speed\n") + row),
        std::invalid_argument)
        << row;
  }
}

TEST(TraceIo, CsvEmptySchedule) {
  const auto back = schedule_from_csv(schedule_to_csv(Schedule{}));
  EXPECT_TRUE(back.empty());
}

TEST(TraceIo, TaskSetCsvRoundTrip) {
  TaskSet ts;
  ts.add(Task{3, 0.25, 1.5, 4.125});
  ts.add(Task{7, 1.0, 2.0, 0.5});
  const auto back = task_set_from_csv(task_set_to_csv(ts));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].id, 3);
  EXPECT_EQ(back[0].release, 0.25);
  EXPECT_EQ(back[1].work, 0.5);
  // A CRLF line end is no trailing byte of the row.
  const auto crlf =
      task_set_from_csv("id,release,deadline,work\r\n3,0.25,1.5,4.125\r\n");
  ASSERT_EQ(crlf.size(), 1u);
  EXPECT_EQ(crlf[0].work, 4.125);
}

TEST(TraceIo, TaskSetCsvRejectsGarbage) {
  EXPECT_THROW(task_set_from_csv("bogus"), std::invalid_argument);
  for (const char* row :
       {"x", "0,0,0.1,3junk", "0,0,nan,3", "0,0,inf,3", "0,-inf,0.1,3",
        "0,0,0.1,nan", "0x1,0,0.1,3", "0,0,0.1,3,", "0,0,0.1"}) {
    EXPECT_THROW(
        task_set_from_csv(std::string("id,release,deadline,work\n") + row),
        std::invalid_argument)
        << row;
  }
}

TEST(Gantt, ShowsLanesAndMemory) {
  const auto g = render_gantt(sample());
  EXPECT_NE(g.find("core  0"), std::string::npos);
  EXPECT_NE(g.find("core  1"), std::string::npos);
  EXPECT_NE(g.find("MEM"), std::string::npos);
  EXPECT_NE(g.find('#'), std::string::npos);
  EXPECT_NE(g.find('='), std::string::npos);
  // The gap between 1.0 and 2.0 must appear as memory idle (spaces between
  // '=' runs on the MEM lane).
  const auto mem_line = g.substr(g.find("MEM"));
  EXPECT_NE(mem_line.find("= "), std::string::npos);
}

TEST(Gantt, EmptySchedule) {
  EXPECT_EQ(render_gantt(Schedule{}), "(empty schedule)\n");
}

TEST(Gantt, WidthRespected) {
  GanttOptions opts;
  opts.width = 40;
  const auto g = render_gantt(sample(), opts);
  // Each lane line: "core NN |" + width + "|".
  const auto first_line = g.substr(0, g.find('\n'));
  EXPECT_EQ(first_line.size(), std::string("core  0 |").size() + 40 + 1);
}

}  // namespace
}  // namespace sdem
