// Dense, insertion-ordered map keyed by small dense indices.
//
// Every server's holder table (proto::ServerNode::Holders): the volume
// server's and the Lease, Callback and Best Effort baseline's. It
// replaced per-object std hash maps keyed by node id. Four pieces:
//
//   * a slab of nodes with stable slots and an intrusive free list
//     (erase never moves surviving nodes, so no index fixups);
//   * a per-key slot index (`slotOf_`) giving O(1) find/insert/erase
//     with zero hashing and zero rehash;
//   * an intrusive doubly-linked list threading the live nodes in
//     most-recently-inserted-first (LIFO) order -- the iteration order;
//   * a second intrusive doubly-linked list, the grant order: an insert
//     appends to its newest end and touch(key) moves a node there, so
//     oldest() is the node least recently inserted or touched. It never
//     affects iteration: forEach is LIFO whatever touch() has done.
//
// The LIFO iteration order is a compatibility contract, not an
// accident: the simulator's per-send loss draws make the server's
// invalidation fan-out order observable in the chaos goldens, and the
// pre-refactor unordered_map iterated exactly LIFO in the regimes those
// goldens exercise (libstdc++ prepends each insert that lands in an
// empty bucket to its global element list; the golden runs stay under
// the first rehash threshold, 13 keys, with collision-free keys; above
// it the hash map's order was its own). Encoding the order in the
// structure itself makes it platform-independent, and the same for
// every server family at any holder count. Erase preserves the relative
// order of survivors; re-inserting an erased key moves it to the front,
// both matching the hash map's observable behavior.
//
// The grant order serves the volume server's expiry sweep: every grant
// touches its record and sets expire = now + a fixed term, so a table's
// grant order is its expiry order and the sweep pops expired records
// from the oldest end, stopping at the first live one. Its two links
// cost 8 bytes per node.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.h"

namespace vlease::util {

inline constexpr std::uint32_t kNilIdx = 0xffffffffu;

template <typename V>
class LifoIndexMap {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  V* find(std::uint32_t key) {
    if (key >= slotOf_.size() || slotOf_[key] == kNilIdx) return nullptr;
    return &slab_[slotOf_[key]].value;
  }
  const V* find(std::uint32_t key) const {
    return const_cast<LifoIndexMap*>(this)->find(key);
  }
  bool contains(std::uint32_t key) const { return find(key) != nullptr; }

  /// Insert a value for `key` at the FRONT of the iteration order (and
  /// the newest end of the grant order) if absent; returns the value and
  /// whether it was inserted. An existing key keeps both positions
  /// (try_emplace semantics).
  std::pair<V*, bool> tryEmplace(std::uint32_t key) {
    if (key >= slotOf_.size()) slotOf_.resize(key + 1, kNilIdx);
    std::uint32_t slot = slotOf_[key];
    if (slot != kNilIdx) return {&slab_[slot].value, false};
    if (freeHead_ != kNilIdx) {
      slot = freeHead_;
      freeHead_ = slab_[slot].next;
      slab_[slot].value = V{};  // reused slot: reset to a fresh value
    } else {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back();
    }
    Node& node = slab_[slot];
    node.key = key;
    node.prev = kNilIdx;
    node.next = head_;
    if (head_ != kNilIdx) slab_[head_].prev = slot;
    head_ = slot;
    linkNewest(slot);
    slotOf_[key] = slot;
    ++size_;
    return {&node.value, true};
  }

  /// Move `key` to the newest end of the grant order; the iteration
  /// order is untouched. `key` must be present.
  void touch(std::uint32_t key) {
    VL_DCHECK(contains(key));
    const std::uint32_t slot = slotOf_[key];
    if (slot == newest_) return;
    unlinkGrant(slot);
    linkNewest(slot);
  }

  /// The entry least / most recently inserted or touched, or
  /// {kNilIdx, nullptr} when empty.
  struct Entry {
    std::uint32_t key;
    V* value;
  };
  Entry oldest() { return entryAt(oldest_); }
  Entry newest() { return entryAt(newest_); }

  bool erase(std::uint32_t key) {
    if (key >= slotOf_.size() || slotOf_[key] == kNilIdx) return false;
    const std::uint32_t slot = slotOf_[key];
    Node& node = slab_[slot];
    if (node.prev != kNilIdx) slab_[node.prev].next = node.next;
    if (node.next != kNilIdx) slab_[node.next].prev = node.prev;
    if (head_ == slot) head_ = node.next;
    unlinkGrant(slot);
    slotOf_[key] = kNilIdx;
    node.next = freeHead_;  // free list reuses the link field
    freeHead_ = slot;
    --size_;
    return true;
  }

  /// Visit (key, value) pairs newest-insertion-first. The visited
  /// node may be erased by `fn`; other mutations of the map during
  /// iteration are not supported.
  template <typename Fn>
  void forEach(Fn&& fn) {
    std::uint32_t i = head_;
    while (i != kNilIdx) {
      const std::uint32_t next = slab_[i].next;
      fn(slab_[i].key, slab_[i].value);
      i = next;
    }
  }
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::uint32_t i = head_; i != kNilIdx; i = slab_[i].next) {
      fn(slab_[i].key, slab_[i].value);
    }
  }

  /// Drop every entry; keeps slab and index capacity (no frees of the
  /// backbone, though entry values release their own resources).
  void clear() {
    for (std::uint32_t i = head_; i != kNilIdx;) {
      const std::uint32_t next = slab_[i].next;
      slotOf_[slab_[i].key] = kNilIdx;
      slab_[i].value = V{};
      slab_[i].next = freeHead_;
      freeHead_ = i;
      i = next;
    }
    head_ = kNilIdx;
    oldest_ = kNilIdx;
    newest_ = kNilIdx;
    size_ = 0;
  }

 private:
  struct Node {
    V value{};
    std::uint32_t key = 0;
    std::uint32_t prev = kNilIdx;  // iteration (LIFO) order
    std::uint32_t next = kNilIdx;
    std::uint32_t older = kNilIdx;  // grant order
    std::uint32_t newer = kNilIdx;
  };

  Entry entryAt(std::uint32_t slot) {
    if (slot == kNilIdx) return {kNilIdx, nullptr};
    return {slab_[slot].key, &slab_[slot].value};
  }
  void linkNewest(std::uint32_t slot) {
    Node& node = slab_[slot];
    node.older = newest_;
    node.newer = kNilIdx;
    if (newest_ != kNilIdx) {
      slab_[newest_].newer = slot;
    } else {
      oldest_ = slot;
    }
    newest_ = slot;
  }
  void unlinkGrant(std::uint32_t slot) {
    const Node& node = slab_[slot];
    if (node.older != kNilIdx) {
      slab_[node.older].newer = node.newer;
    } else {
      oldest_ = node.newer;
    }
    if (node.newer != kNilIdx) {
      slab_[node.newer].older = node.older;
    } else {
      newest_ = node.older;
    }
  }

  std::vector<Node> slab_;
  std::vector<std::uint32_t> slotOf_;
  std::uint32_t head_ = kNilIdx;
  std::uint32_t oldest_ = kNilIdx;
  std::uint32_t newest_ = kNilIdx;
  std::uint32_t freeHead_ = kNilIdx;
  std::size_t size_ = 0;
};

}  // namespace vlease::util
