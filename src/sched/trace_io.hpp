// Schedule export and visualization.
//
// * CSV round-trip of segment schedules (task, core, start, end, speed) —
//   lets benches and examples dump traces for external plotting;
// * an ASCII Gantt chart (one lane per core plus a memory lane) used by the
//   examples to make the "common idle time" visible at a glance.
#pragma once

#include <string>

#include "model/task.hpp"
#include "sched/schedule.hpp"

namespace sdem {

/// CSV with header "task,core,start,end,speed" (times in seconds, speeds in
/// MHz; full double precision).
std::string schedule_to_csv(const Schedule& sched);

/// Task-set CSV with header "id,release,deadline,work" (seconds /
/// megacycles, full precision) and its parser. The parser throws
/// std::invalid_argument on a malformed row and on any set that
/// TaskSet::validate() refuses, with its reason.
std::string task_set_to_csv(const TaskSet& tasks);
TaskSet task_set_from_csv(const std::string& csv);

/// Parse the schedule_to_csv format. Throws std::invalid_argument on
/// malformed input.
Schedule schedule_from_csv(const std::string& csv);

struct GanttOptions {
  int width = 72;          ///< characters across the time axis
};

/// ASCII Gantt: one row per core; '#'-blocks for executions labelled with
/// task ids where they fit, '.' for idle. A last MEM lane shows '=' while
/// any core is busy and ' ' while the memory could sleep.
std::string render_gantt(const Schedule& sched, const GanttOptions& opts = {});

}  // namespace sdem
