// Client-side state shared by every algorithm: the object cache
// (LeaseCache) and the pending-read table that matches asynchronous
// replies (and timeouts) back to outstanding read() calls.
//
// The paper assumes infinitely large client caches (§4.1); capacity 0
// does the same -- entries are only removed by dropCache(). A nonzero
// capacity bounds the entry count with LRU eviction: entry() and touch()
// refresh recency, and inserting beyond capacity evicts the least
// recently used entry (its lease is simply forgotten; the server's
// record expires or is acked away on the next invalidation).
//
// Catalog object ids are small dense integers, but a client holds only
// a slice of the catalog, so the cache is paged: a directory with one
// page index per kPageSize ids (kNil = no page) points into a slab of
// kPageSize-entry pages, and a page is allocated on the first insert of
// one of its ids. find() is two array loads -- no hashing, no probing --
// and a client pays for the pages it touches, not for the catalog.
// Entries are 16 bytes. The LRU links live in a side table parallel to
// the slab that is only allocated for bounded caches, so the
// capacity == 0 fleet (every large-scale config) never pays for them.
//
// Iteration-order contract: forEach visits entries newest-first in
// insertion order, read backwards off `held_`, the vector of held ids
// (appended on insert, erased in place on eviction, emptied by
// clear()). The volume client's reconnection exchange (-> RenewObjLeases
// message order -> loss-roll consumption) makes that order observable,
// so it must not change. The oracle sorts what servable() reports, so
// no other caller observes it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "proto/protocol.h"
#include "sim/scheduler.h"
#include "util/check.h"
#include "util/ids.h"
#include "util/time.h"

namespace vlease::proto {

/// Per-client object cache: one copy plus its lease or validity horizon
/// per object (see the file comment).
class LeaseCache {
 public:
  static constexpr std::uint32_t kNil = 0xffffffffu;
  /// Object ids per page (a power of two).
  static constexpr std::uint32_t kPageSize = 16;

  /// 16 bytes: object versions are write counters that fit 32 bits
  /// with room to spare (checked on store).
  struct Entry {
    SimTime validUntil = kSimTimeMin;
    std::int32_t version32 = static_cast<std::int32_t>(kNoVersion);
    bool present = false;
    bool hasData = false;
    /// Whether the most recent object-lease grant for this entry carried
    /// data (vs. a version-check-only renewal). The volume client clears
    /// it when a read starts missing and reports it in the read result.
    /// invalidate() leaves it alone: it describes the last grant, not
    /// the current copy.
    bool lastGrantCarriedData = false;

    Version version() const { return version32; }
    void setVersion(Version v) {
      VL_DCHECK(v >= INT32_MIN && v <= INT32_MAX);
      version32 = static_cast<std::int32_t>(v);
    }
    bool valid(SimTime now) const { return hasData && validUntil > now; }
    void invalidate() {
      hasData = false;
      version32 = static_cast<std::int32_t>(kNoVersion);
      validUntil = kSimTimeMin;
    }
  };
  static_assert(sizeof(Entry) == 16);

  explicit LeaseCache(std::size_t capacity = 0) : capacity_(capacity) {}

  const Entry* find(ObjectId obj) const {
    const std::uint32_t s = slotOf(raw(obj));
    if (s == kNil || !slab_[s].present) return nullptr;
    return &slab_[s];
  }

  /// Mutable find WITHOUT refreshing LRU recency (bookkeeping writes
  /// such as clearing lastGrantCarriedData must not count as a use).
  Entry* findMutable(ObjectId obj) {
    return const_cast<Entry*>(
        static_cast<const LeaseCache*>(this)->find(obj));
  }

  /// Invalidate a held entry. An object the cache does not hold stays
  /// absent: an invalidation is not a use, so it neither inserts nor
  /// refreshes recency.
  void invalidate(ObjectId obj) {
    if (Entry* e = findMutable(obj)) e->invalidate();
  }

  /// Find-or-insert, refreshing LRU recency; inserting beyond capacity
  /// evicts the least recently used entry (never the one just added).
  /// The reference lasts until the next entry() call, whose new page
  /// may move the slab.
  Entry& entry(ObjectId obj) {
    const std::uint32_t i = id(obj);
    const std::uint32_t s = slotOrAllocate(i);
    Entry& e = slab_[s];
    if (e.present) {
      if (capacity_ > 0) lruMoveToFront(i);
      return e;
    }
    e = Entry{};
    e.present = true;
    held_.push_back(i);
    if (capacity_ > 0) {
      lruLinkFront(i);
      if (held_.size() > capacity_) evictLru();
    }
    return e;
  }

  /// Refresh LRU recency (cache-hit path).
  void touch(ObjectId obj) {
    if (capacity_ == 0 || find(obj) == nullptr) return;
    lruMoveToFront(id(obj));
  }

  /// Forget every entry; keeps the storage (dropCache happens mid-run).
  void clear() {
    for (const std::uint32_t i : held_) {
      const std::uint32_t s = slotOf(i);
      slab_[s] = Entry{};
      if (capacity_ > 0) lru_[s] = LruLink{};
    }
    held_.clear();
    lruHead_ = kNil;
    lruTail_ = kNil;
  }

  /// Release the storage too (client churn: a departed client returns
  /// its memory; re-arrival regrows lazily).
  void releaseMemory() {
    std::vector<std::uint32_t>().swap(dir_);
    std::vector<Entry>().swap(slab_);
    std::vector<LruLink>().swap(lru_);
    std::vector<std::uint32_t>().swap(held_);
    lruHead_ = kNil;
    lruTail_ = kNil;
  }

  std::size_t size() const { return held_.size(); }
  std::int64_t evictions() const { return evictions_; }
  /// Heap bytes reserved by the cache's arrays (not the object itself).
  std::size_t memoryBytes() const {
    return dir_.capacity() * sizeof(std::uint32_t) +
           slab_.capacity() * sizeof(Entry) +
           lru_.capacity() * sizeof(LruLink) +
           held_.capacity() * sizeof(std::uint32_t);
  }

  /// Visit every (id, entry) pair, newest insertion first (the
  /// reconnection exchange enumerates the cache; order is observable).
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (auto it = held_.rbegin(); it != held_.rend(); ++it) {
      fn(makeObjectId(*it), slab_[slotOf(*it)]);
    }
  }

 private:
  /// LRU neighbours by object id, stored at the entry's slab slot.
  struct LruLink {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  static std::uint32_t id(ObjectId obj) {
    VL_DCHECK(raw(obj) < kNil);
    return static_cast<std::uint32_t>(raw(obj));
  }

  /// Slab slot of id `i`, or kNil when its page is not allocated.
  std::uint32_t slotOf(std::uint64_t i) const {
    const std::uint64_t p = i / kPageSize;
    if (p >= dir_.size() || dir_[p] == kNil) return kNil;
    return dir_[p] * kPageSize + static_cast<std::uint32_t>(i % kPageSize);
  }

  std::uint32_t slotOrAllocate(std::uint32_t i) {
    const std::uint32_t p = i / kPageSize;
    if (p >= dir_.size()) dir_.resize(p + 1, kNil);
    if (dir_[p] == kNil) {
      dir_[p] = static_cast<std::uint32_t>(slab_.size() / kPageSize);
      slab_.resize(slab_.size() + kPageSize);
      if (capacity_ > 0) lru_.resize(slab_.size());
    }
    return dir_[p] * kPageSize + i % kPageSize;
  }

  LruLink& link(std::uint32_t i) { return lru_[slotOf(i)]; }

  void lruLinkFront(std::uint32_t i) {
    link(i) = LruLink{kNil, lruHead_};
    if (lruHead_ != kNil) link(lruHead_).prev = i;
    lruHead_ = i;
    if (lruTail_ == kNil) lruTail_ = i;
  }
  void lruUnlink(std::uint32_t i) {
    LruLink& l = link(i);
    if (l.prev != kNil) link(l.prev).next = l.next;
    if (l.next != kNil) link(l.next).prev = l.prev;
    if (lruHead_ == i) lruHead_ = l.next;
    if (lruTail_ == i) lruTail_ = l.prev;
    l = LruLink{};
  }
  void lruMoveToFront(std::uint32_t i) {
    if (lruHead_ == i) return;
    lruUnlink(i);
    lruLinkFront(i);
  }
  void evictLru() {
    const std::uint32_t victim = lruTail_;
    VL_DCHECK(victim != kNil);
    lruUnlink(victim);
    held_.erase(std::find(held_.begin(), held_.end(), victim));
    slab_[slotOf(victim)].present = false;
    ++evictions_;
  }

  std::size_t capacity_;
  std::int64_t evictions_ = 0;
  std::vector<std::uint32_t> dir_;   // page index by id / kPageSize
  std::vector<Entry> slab_;          // kPageSize entries per page
  std::vector<LruLink> lru_;         // parallel to slab_; capacity_ > 0
  std::vector<std::uint32_t> held_;  // held ids, oldest insertion first
  std::uint32_t lruHead_ = kNil;     // most recently used
  std::uint32_t lruTail_ = kNil;     // least recently used
};


/// Table of outstanding read() operations. Replies resolve every op
/// waiting on the object; a per-op timer resolves stragglers as failed.
/// Reentrancy-safe: callbacks may issue new reads.
///
/// Storage is a recycled slot pool: each op lives in a stable slot,
/// tokens are (generation << 32) | slot so a recycled slot invalidates
/// outstanding tokens, and live ops form ONE intrusive FIFO list in
/// arrival order -- per-object lookups filter it, which is O(live ops)
/// but live ops per client are a handful, and dropping the old dense
/// per-object head/tail arrays (2 x 4 bytes x catalog objects PER
/// CLIENT) is what the million-client RSS budget needs. Per-object
/// FIFO order is unchanged: a filtered scan of a global FIFO preserves
/// relative order. Steady-state add/resolve cycles never touch the
/// heap.
class PendingReads {
 public:
  using Token = std::uint64_t;

  explicit PendingReads(sim::Scheduler& scheduler) : scheduler_(scheduler) {}

  /// Register an op waiting on `obj`; fails it after `timeout`.
  /// `onResolve(result)` runs exactly once.
  Token add(ObjectId obj, SimDuration timeout, ReadCallback onResolve);

  /// Is anything waiting on this object?
  bool waitingOn(ObjectId obj) const {
    for (std::uint32_t s = liveHead_; s != kNil; s = pool_[s].next) {
      if (pool_[s].obj == obj) return true;
    }
    return false;
  }

  /// Resolve every op waiting on `obj` with `result`, oldest first.
  void resolveAll(ObjectId obj, const ReadResult& result);

  /// Resolve a specific op (no-op if already resolved).
  void resolveOne(Token token, const ReadResult& result);

  std::size_t size() const { return size_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Op {
    ReadCallback cb;
    sim::TimerHandle timer;
    ObjectId obj{};
    std::uint32_t gen = 0;  // bumped on release; stale tokens miss
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
    /// On the object's live list (false once resolveAll detaches it).
    bool inLive = false;
    bool active = false;
  };

  static Token makeToken(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<Token>(gen) << 32) | slot;
  }
  Op* lookup(Token token);
  /// Remove a slot from the global live list.
  void unlink(std::uint32_t slot);
  /// Unlink (if live), release the slot, cancel the timer, run the
  /// callback. The slot is recycled BEFORE the callback runs, so
  /// reentrant add() calls can reuse it (mirrors the erase-then-call
  /// order of the original map-based table).
  void finish(std::uint32_t slot, const ReadResult& result);

  sim::Scheduler& scheduler_;
  std::vector<Op> pool_;
  std::vector<std::uint32_t> free_;
  /// Global live-op FIFO (arrival order), filtered by object on lookup.
  std::uint32_t liveHead_ = kNil;
  std::uint32_t liveTail_ = kNil;
  std::vector<Token> resolveScratch_;
  std::size_t size_ = 0;
};

}  // namespace vlease::proto
