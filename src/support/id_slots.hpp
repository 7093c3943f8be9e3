// Task-id indexing for the online hot path.
//
// The simulator and the online policies key per-task state by task id.
// IdSlots interns each id into a dense slot once: it is the set of ids an
// island has been sent. PositionIndex maps the ids of one short-lived
// sequence, a replan's pending set, to their positions, so per-task state
// lives in flat vectors indexed by pending position and is dropped with the
// task. A table's memory follows the number of ids it holds, never an id's
// value: the daemon interns whatever ids its clients send.
#pragma once

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>
#include <vector>

namespace sdem {

/// Grow-on-first-sight task-id -> dense-slot index. Slots are assigned in
/// first-seen order and never change. A new id resolves through a flat
/// vector when it is nonnegative and below kDenseFloor plus twice the ids
/// held (the generators number tasks 0..n-1, so all of theirs do), and
/// through an ordered map otherwise. An id the map took
/// may later fall under the grown bound, so slot_of() looks in both.
class IdSlots {
 public:
  /// Ids below this always take the flat vector.
  static constexpr std::size_t kDenseFloor = 1024;

  int intern(int id) {
    if (const int s = slot_of(id); s >= 0) return s;
    const auto i = static_cast<std::size_t>(id);
    if (id >= 0 && i < kDenseFloor + 2 * static_cast<std::size_t>(next_)) {
      if (i >= dense_.size()) dense_.resize(i + 1, -1);
      dense_[i] = next_;
    } else {
      other_.emplace(id, next_);
    }
    return next_++;
  }

  /// -1 when the id has not been interned.
  int slot_of(int id) const {
    const auto i = static_cast<std::size_t>(id);
    if (id >= 0 && i < dense_.size() && dense_[i] >= 0) return dense_[i];
    const auto it = other_.find(id);
    return it == other_.end() ? -1 : it->second;
  }

 private:
  std::vector<int> dense_;  ///< id -> slot, -1 where not interned here
  std::map<int, int> other_;
  int next_ = 0;
};

/// Task id -> position in a sequence of tasks, rebuilt for each new
/// sequence into one reused buffer of (id, position) pairs sorted for
/// binary search. It holds the current sequence only, and allocates
/// nothing once its buffer has held the longest one.
class PositionIndex {
 public:
  /// Index positions 0..n-1; `id_at(i)` is the task id at position i.
  template <class IdAt>
  void rebuild(std::size_t n, IdAt id_at) {
    by_id_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      by_id_.emplace_back(id_at(i), static_cast<int>(i));
    }
    std::sort(by_id_.begin(), by_id_.end());
  }

  /// The first position carrying `id`, or -1.
  int find(int id) const {
    const auto it = std::lower_bound(
        by_id_.begin(), by_id_.end(), id,
        [](const std::pair<int, int>& e, int v) { return e.first < v; });
    return it != by_id_.end() && it->first == id ? it->second : -1;
  }

  /// Whether two positions carry one id.
  bool has_duplicate() const {
    return std::adjacent_find(by_id_.begin(), by_id_.end(),
                              [](const std::pair<int, int>& a,
                                 const std::pair<int, int>& b) {
                                return a.first == b.first;
                              }) != by_id_.end();
  }

  void clear() { by_id_.clear(); }

 private:
  std::vector<std::pair<int, int>> by_id_;  ///< (id, position), sorted
};

}  // namespace sdem
