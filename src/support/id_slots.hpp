// Dense task-id indexing for the online hot path.
//
// The simulator and the online policies key per-task state by task id.
// IdSlots interns each id into a dense slot once, so that state lives in
// flat vectors indexed in O(1) instead of a std::map lookup per segment,
// per event. A table's memory follows the number of ids it holds, never an
// id's value: the daemon interns whatever ids its clients send.
#pragma once

#include <cstddef>
#include <map>
#include <vector>

namespace sdem {

/// Grow-on-first-sight task-id -> dense-slot index. Slots are assigned in
/// first-seen order and stay stable until clear(). A new id resolves
/// through a flat vector when it is nonnegative and below kDenseFloor plus
/// twice the ids held (the generators number tasks 0..n-1, so all of
/// theirs do), and through an ordered map otherwise. An id the map took
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

  /// Number of slots handed out so far.
  int size() const { return next_; }

  void clear() {
    dense_.clear();
    other_.clear();
    next_ = 0;
  }

 private:
  std::vector<int> dense_;  ///< id -> slot, -1 where not interned here
  std::map<int, int> other_;
  int next_ = 0;
};

}  // namespace sdem
