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
// Catalog object ids are small dense integers, so the cache indexes
// entries directly by raw id: one lazily grown vector of 24-byte
// entries, no hashing, no per-entry allocation. The LRU links live in a
// side table that is only allocated for bounded caches, so the
// capacity == 0 fleet (every large-scale config) never pays for them.
//
// Iteration-order contract: forEach visits entries newest-first in
// insertion order (an intrusive LIFO list threaded through the
// entries). The volume client's reconnection exchange (-> RenewObjLeases
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

  /// 24 bytes: object versions are write counters that fit 32 bits
  /// with room to spare (checked on store).
  struct Entry {
    SimTime validUntil = kSimTimeMin;
    std::int32_t version32 = static_cast<std::int32_t>(kNoVersion);
    std::uint32_t prev = kNil;  // insertion-order links, newest at head
    std::uint32_t next = kNil;
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
  static_assert(sizeof(Entry) == 24);

  /// `sizeHint`: expected id-space size (catalog object count); the
  /// first growth reserves exactly this much so a million clients don't
  /// each overshoot geometrically.
  explicit LeaseCache(std::size_t capacity = 0, std::size_t sizeHint = 0)
      : capacity_(capacity), sizeHint_(sizeHint) {}

  const Entry* find(ObjectId obj) const {
    const std::size_t i = raw(obj);
    if (i >= entries_.size() || !entries_[i].present) return nullptr;
    return &entries_[i];
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
  Entry& entry(ObjectId obj) {
    const std::size_t i = raw(obj);
    growTo(i);
    Entry& e = entries_[i];
    if (e.present) {
      if (capacity_ > 0) lruMoveToFront(static_cast<std::uint32_t>(i));
      return e;
    }
    e = Entry{};
    e.present = true;
    insLinkFront(static_cast<std::uint32_t>(i));
    ++size_;
    if (capacity_ > 0) {
      lruLinkFront(static_cast<std::uint32_t>(i));
      if (size_ > capacity_) evictLru();
    }
    return e;
  }

  /// Refresh LRU recency (cache-hit path).
  void touch(ObjectId obj) {
    const std::size_t i = raw(obj);
    if (capacity_ == 0 || i >= entries_.size() || !entries_[i].present) return;
    lruMoveToFront(static_cast<std::uint32_t>(i));
  }

  /// Forget every entry; keeps the storage (dropCache happens mid-run).
  void clear() {
    for (std::uint32_t i = insHead_; i != kNil;) {
      const std::uint32_t next = entries_[i].next;
      entries_[i] = Entry{};
      if (capacity_ > 0) lru_[i] = LruLink{};
      i = next;
    }
    insHead_ = kNil;
    lruHead_ = kNil;
    lruTail_ = kNil;
    size_ = 0;
  }

  /// Release the storage too (client churn: a departed client returns
  /// its memory; re-arrival regrows lazily).
  void releaseMemory() {
    std::vector<Entry>().swap(entries_);
    std::vector<LruLink>().swap(lru_);
    insHead_ = kNil;
    lruHead_ = kNil;
    lruTail_ = kNil;
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  std::int64_t evictions() const { return evictions_; }

  /// Visit every (id, entry) pair, newest insertion first (the
  /// reconnection exchange enumerates the cache; order is observable).
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (std::uint32_t i = insHead_; i != kNil; i = entries_[i].next) {
      fn(makeObjectId(i), entries_[i]);
    }
  }

 private:
  struct LruLink {
    std::uint32_t prev = kNil;
    std::uint32_t next = kNil;
  };

  void growTo(std::size_t i) {
    if (i < entries_.size()) return;
    const std::size_t target = std::max(i + 1, sizeHint_);
    entries_.reserve(target);
    entries_.resize(i + 1);
    if (capacity_ > 0) {
      lru_.reserve(target);
      lru_.resize(i + 1);
    }
  }

  void insLinkFront(std::uint32_t i) {
    entries_[i].prev = kNil;
    entries_[i].next = insHead_;
    if (insHead_ != kNil) entries_[insHead_].prev = i;
    insHead_ = i;
  }
  void insUnlink(std::uint32_t i) {
    Entry& e = entries_[i];
    if (e.prev != kNil) entries_[e.prev].next = e.next;
    if (e.next != kNil) entries_[e.next].prev = e.prev;
    if (insHead_ == i) insHead_ = e.next;
    e.prev = kNil;
    e.next = kNil;
  }

  void lruLinkFront(std::uint32_t i) {
    lru_[i].prev = kNil;
    lru_[i].next = lruHead_;
    if (lruHead_ != kNil) lru_[lruHead_].prev = i;
    lruHead_ = i;
    if (lruTail_ == kNil) lruTail_ = i;
  }
  void lruUnlink(std::uint32_t i) {
    LruLink& l = lru_[i];
    if (l.prev != kNil) lru_[l.prev].next = l.next;
    if (l.next != kNil) lru_[l.next].prev = l.prev;
    if (lruHead_ == i) lruHead_ = l.next;
    if (lruTail_ == i) lruTail_ = l.prev;
    l.prev = kNil;
    l.next = kNil;
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
    insUnlink(victim);
    entries_[victim].present = false;
    --size_;
    ++evictions_;
  }

  std::size_t capacity_;
  std::size_t sizeHint_;
  std::int64_t evictions_ = 0;
  std::vector<Entry> entries_;  // by raw object id, lazily grown
  std::vector<LruLink> lru_;    // allocated only when capacity_ > 0
  std::uint32_t insHead_ = kNil;
  std::uint32_t lruHead_ = kNil;  // most recently used
  std::uint32_t lruTail_ = kNil;  // least recently used
  std::size_t size_ = 0;
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

  /// Tokens waiting on `obj` (for callers that must re-examine each op
  /// individually), oldest first.
  std::vector<Token> tokensFor(ObjectId obj) const;

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
