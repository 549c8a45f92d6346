#pragma once
// Index-based d-ary min-heap over pooled payloads, with cached keys.
//
// The heap array holds (key, handle) entries: the ordering key is extracted
// from the pooled payload once at push and cached next to the 4-byte
// handle.  Sifting therefore moves small contiguous entries and compares
// locally — no pointer chase into the pool per comparison, and no copying
// of full payloads per level, which is what makes push/pop cheaper than a
// std::priority_queue of whole event records.  Requires that the key fields
// of a payload never change while its handle is queued, except for the
// top entry's, re-read by replace_top.
//
// A 4-ary layout trades slightly more comparisons per level for half the
// tree depth and a cache-friendlier sift-down than the classic binary heap.

#include <cstddef>
#include <type_traits>
#include <vector>

#include "engine/event_pool.h"

namespace wlsync::engine {

template <typename Pool, typename KeyOf, std::size_t Arity = 4>
class IndexedQueue {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  using Handle = typename Pool::Handle;
  using Key =
      std::invoke_result_t<KeyOf, const typename Pool::value_type&>;

  explicit IndexedQueue(const Pool& pool, KeyOf key_of = KeyOf{})
      : pool_(&pool), key_of_(key_of) {}

  void push(Handle handle) {
    heap_.push_back(Entry{key_of_((*pool_)[handle]), handle});
    sift_up(heap_.size() - 1);
  }

  [[nodiscard]] Handle top() const noexcept { return heap_.front().handle; }

  Handle pop() {
    const Handle result = heap_.front().handle;
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);
    return result;
  }

  /// Re-keys the top entry in place after its payload's key fields changed
  /// (a batched fan-out moving on to its next delivery): re-reads the key
  /// and sifts it top-down, stopping as soon as no child precedes it.
  /// Replaces a pop plus a later push of the same handle.  Returns whether
  /// the entry is still the minimum.
  bool replace_top() {
    const Entry moving{key_of_((*pool_)[heap_.front().handle]),
                       heap_.front().handle};
    const std::size_t count = heap_.size();
    std::size_t pos = 0;
    for (;;) {
      const std::size_t first_child = pos * Arity + 1;
      if (first_child >= count) break;
      const std::size_t last_child =
          first_child + Arity <= count ? first_child + Arity : count;
      std::size_t best = first_child;
      for (std::size_t child = first_child + 1; child < last_child; ++child) {
        if (heap_[child].key < heap_[best].key) best = child;
      }
      if (!(heap_[best].key < moving.key)) break;
      heap_[pos] = heap_[best];
      pos = best;
    }
    heap_[pos] = moving;
    return pos == 0;
  }

  /// The cached key of the minimum (the queue must be non-empty): lets
  /// callers gate on the head without touching the pool.
  [[nodiscard]] const Key& top_key() const noexcept { return heap_.front().key; }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }
  void reserve(std::size_t n) { heap_.reserve(n); }

 private:
  struct Entry {
    Key key;
    Handle handle;
  };

  void sift_up(std::size_t pos) {
    const Entry moving = heap_[pos];
    while (pos > 0) {
      const std::size_t parent = (pos - 1) / Arity;
      if (!(moving.key < heap_[parent].key)) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = moving;
  }

  void sift_down(std::size_t pos) {
    // Floyd's bottom-up variant: descend along min-children to the bottom
    // without comparing against `moving`, then bubble `moving` back up.
    // Event queues overwhelmingly sift a just-popped *leaf* (a late event),
    // which belongs near the bottom anyway — the descent's comparisons per
    // level drop from Arity to Arity - 1 and the bubble-up is ~O(1).
    const Entry moving = heap_[pos];
    const std::size_t top = pos;
    const std::size_t count = heap_.size();
    for (;;) {
      const std::size_t first_child = pos * Arity + 1;
      if (first_child >= count) break;
      const std::size_t last_child =
          first_child + Arity <= count ? first_child + Arity : count;
      std::size_t best = first_child;
      for (std::size_t child = first_child + 1; child < last_child; ++child) {
        if (heap_[child].key < heap_[best].key) best = child;
      }
      heap_[pos] = heap_[best];
      pos = best;
    }
    while (pos > top) {
      const std::size_t parent = (pos - 1) / Arity;
      if (!(moving.key < heap_[parent].key)) break;
      heap_[pos] = heap_[parent];
      pos = parent;
    }
    heap_[pos] = moving;
  }

  const Pool* pool_;
  std::vector<Entry> heap_;
  KeyOf key_of_;
};

}  // namespace wlsync::engine
