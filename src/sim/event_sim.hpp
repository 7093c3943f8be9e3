// Discrete-event online simulator (paper §6, §8).
//
// Drives an OnlinePolicy over an arrival trace:
//   * tasks are assigned to cores round-robin in arrival order (the paper's
//     "9th task goes back to core 1" rule);
//   * at every distinct arrival instant the policy replans the pending set;
//   * the plan executes until the next arrival, work is accounted, and the
//     executed pieces become schedule segments.
//
// The simulator never edits a plan: if a policy emits overlapping segments
// on one core or misses a deadline, that surfaces in the result counters —
// policies own feasibility, the simulator owns bookkeeping.
//
// Two driving modes share one event loop:
//   * simulate() — the batch harness: one task set in, one SimResult out;
//   * StreamSim — the resumable loop behind tools/sdem_service: arrivals
//     are injected one at a time as they reach the server, each instant's
//     batch commits into one replan, and the run is finalized on demand.
// simulate() is a thin driver over StreamSim, so a streamed run replayed
// from the same arrival sequence is byte-identical to the batch run by
// construction (pinned by tests/test_service.cpp and the service-smoke CI
// job against the frozen sim_reference oracle). simulate_with_actuals() is
// the completion-driven loop of slack reclamation.
#pragma once

#include <map>
#include <vector>

#include "sim/policy.hpp"
#include "support/id_slots.hpp"

namespace sdem {

struct SimResult {
  Schedule schedule;
  int deadline_misses = 0;   ///< tasks not finished by their deadline
  int unfinished = 0;        ///< tasks with remaining work at simulation end
  int replans = 0;           ///< number of policy invocations
  double horizon_lo = 0.0;   ///< first release
  double horizon_hi = 0.0;   ///< max(last deadline, last segment end)
};

/// The event loop decoupled from batch runs: a resumable simulation that an
/// external arrival stream drives. One StreamSim owns one memory island's
/// timeline and task record; tools/sdem_service keeps one per island and
/// feeds it SUBMIT requests as they arrive.
///
/// Protocol:
///   * inject_arrival(t) buffers a task; tasks sharing one release instant
///     form one admission batch (the batch loop admits all simultaneous
///     releases before the single replan);
///   * a batch commits — account the running plan up to the instant, admit
///     the batch in (deadline, id) order, replan once — when an arrival
///     with a later release lands, on commit(), or at finalize();
///   * finalize() runs the last plan out and produces the SimResult.
///
/// Equivalence contract: injecting a task set in non-decreasing release
/// order and finalizing produces byte-identical SimResult (schedule
/// segments, replans, misses, horizons) to simulate() on that set — the
/// batch function is implemented as exactly that loop. Committing a batch
/// early (the live service answers every SUBMIT immediately, so it commits
/// per request) adds replans at the same instant but cannot change the
/// schedule: the superseded same-instant plan is clipped to the empty
/// window [t, t), contributing no segments, and the final replan at t sees
/// the same pending set the batched commit would have seen.
///
/// Accounting is lazy: a plan's segments are recorded whole at the next
/// commit or finalize, never split at query points (splitting would break
/// byte-equality with the batch loop).
class StreamSim {
 public:
  /// `cores` is the round-robin width. Pass cfg.num_cores for bounded
  /// systems; the batch driver passes the task-set size when cfg is
  /// unbounded (an online stream has no task count to default to).
  StreamSim(const SystemConfig& cfg, OnlinePolicy& policy, int cores);

  /// Buffer a task arriving at t.release. Throws std::invalid_argument if
  /// the release precedes the last committed instant (the stream must be
  /// non-decreasing in release time; the service rejects late arrivals at
  /// the protocol layer).
  void inject_arrival(const Task& t);

  /// Commit the buffered admission batch (account + admit + one replan).
  /// No-op when nothing is buffered.
  void commit();

  /// Latest committed instant.
  double now() const { return now_; }

  /// The active plan (segments from the last replan) and its start.
  const std::vector<Segment>& current_plan() const { return plan_; }
  double plan_from() const { return plan_from_; }

  /// Pending tasks as of the last commit (admitted, unfinished work).
  const std::vector<PendingTask>& pending() const { return pending_; }

  /// Number of tasks injected so far (admitted or still buffered).
  std::size_t arrivals() const { return tasks_seen_.size(); }
  int replans() const { return res_.replans; }

  /// Whether a task with this id was injected in this run, zero-work and
  /// still-buffered tasks included (the service's duplicate check).
  bool holds(int id) const { return slots_.slot_of(id) >= 0; }

  /// Whether finalize() has ended the run.
  bool finalized() const { return finalized_; }

  /// Every injected task, in injection order (the replay verifier rebuilds
  /// the batch TaskSet from this).
  const std::vector<Task>& injected() const { return tasks_seen_; }

  /// Commit the final batch, run the plan to completion, and account the
  /// run: deadline misses over every injected task, unfinished count,
  /// horizons. The StreamSim stays readable afterwards and takes no more
  /// arrivals.
  const SimResult& finalize();

 private:
  void account(double upto);

  SystemConfig cfg_;
  OnlinePolicy* policy_;
  int cores_;

  // The task record: ids interned into dense slots as they arrive, so
  // completion times and the pending-position index live in flat per-slot
  // columns. Positions are epoch-stamped, so rebuilding them is a write
  // pass with no clearing.
  IdSlots slots_;
  std::vector<double> finished_at_;  ///< completion time, +inf until then
  std::vector<int> pos_val_;         ///< first index in pending_
  std::vector<int> pos_gen_;         ///< stamp for pos_val_
  int gen_ = 0;                      ///< current stamp

  std::vector<PendingTask> pending_;
  std::vector<Segment> plan_;
  std::vector<Task> batch_;       ///< arrivals buffered at batch_time_
  std::vector<Task> tasks_seen_;  ///< every injected task, for the miss scan
  double batch_time_ = 0.0;
  double plan_from_ = 0.0;
  double now_ = 0.0;
  int rr_ = 0;  ///< round-robin core cursor
  bool finalized_ = false;
  SimResult res_;
};

SimResult simulate(const TaskSet& arrivals, const SystemConfig& cfg,
                   OnlinePolicy& policy);

/// Slack-reclamation variant (the online setting of Zhuo & Chakrabarti's
/// slack distribution, §2): tasks declare their WCET but actually execute
/// `actual_fraction[id] * work` megacycles (default 1.0). Policies plan
/// against the declared remaining work; when a task completes early the
/// simulator frees its core immediately and — when `replan_on_completion`
/// is set — re-invokes the policy so the freed slack is redistributed
/// (slower speeds, longer memory sleep). Deadline accounting is against the
/// actual work.
SimResult simulate_with_actuals(const TaskSet& arrivals,
                                const SystemConfig& cfg, OnlinePolicy& policy,
                                const std::map<int, double>& actual_fraction,
                                bool replan_on_completion = true);

}  // namespace sdem
