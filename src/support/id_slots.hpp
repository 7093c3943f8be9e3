// Task-id indexing for the online hot path.
//
// The simulator and the online policies key per-task state by task id.
// IdSet is the set of ids an island has been sent. PositionIndex maps the
// ids of one short-lived sequence, a replan's pending set, to their
// positions, so per-task state lives in flat vectors indexed by pending
// position and is dropped with the task. A table's memory follows the
// number of ids it holds, never an id's value: the daemon keeps whatever
// ids its clients send.
#pragma once

#include <algorithm>
#include <cstddef>
#include <set>
#include <utility>
#include <vector>

namespace sdem {

/// Grow-only set of task ids. A new id takes one bit of a flat vector when
/// it is nonnegative and below kDenseFloor plus twice the ids held (the
/// generators number tasks 0..n-1, so all of theirs do), and a node of an
/// ordered set otherwise. An id the ordered set took may later fall under
/// the grown bound, so contains() looks in both.
class IdSet {
 public:
  /// Ids below this always take the flat vector.
  static constexpr std::size_t kDenseFloor = 1024;

  void insert(int id) {
    if (contains(id)) return;
    const auto i = static_cast<std::size_t>(id);
    if (id >= 0 && i < kDenseFloor + 2 * size_) {
      if (i >= dense_.size()) dense_.resize(i + 1, false);
      dense_[i] = true;
    } else {
      other_.insert(id);
    }
    ++size_;
  }

  bool contains(int id) const {
    const auto i = static_cast<std::size_t>(id);
    if (id >= 0 && i < dense_.size() && dense_[i]) return true;
    return other_.count(id) != 0;
  }

 private:
  std::vector<bool> dense_;  ///< id -> held, for ids the vector took
  std::set<int> other_;
  std::size_t size_ = 0;     ///< ids held
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
