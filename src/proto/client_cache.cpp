#include "proto/client_cache.h"

#include <algorithm>

namespace vlease::proto {

PendingReads::Token PendingReads::add(ObjectId obj, SimDuration timeout,
                                      ReadCallback onResolve) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  Op& op = pool_[slot];
  op.obj = obj;
  op.cb = std::move(onResolve);
  op.prev = kNil;
  op.next = kNil;
  op.inLive = true;
  op.active = true;
  const Token token = makeToken(slot, op.gen);
  op.timer = scheduler_.scheduleAfter(timeout, [this, token]() {
    ReadResult failed;
    failed.ok = false;
    resolveOne(token, failed);
  });

  if (liveTail_ == kNil) {
    liveHead_ = slot;
  } else {
    pool_[liveTail_].next = slot;
    op.prev = liveTail_;
  }
  liveTail_ = slot;
  ++size_;
  return token;
}

PendingReads::Op* PendingReads::lookup(Token token) {
  const std::uint32_t slot = static_cast<std::uint32_t>(token);
  const std::uint32_t gen = static_cast<std::uint32_t>(token >> 32);
  if (slot >= pool_.size()) return nullptr;
  Op& op = pool_[slot];
  if (!op.active || op.gen != gen) return nullptr;
  return &op;
}

void PendingReads::finish(std::uint32_t slot, const ReadResult& result) {
  Op& op = pool_[slot];
  if (op.inLive) {
    unlink(slot);
    op.inLive = false;
  }
  op.timer.cancel();
  ReadCallback cb = std::move(op.cb);
  op.cb = nullptr;
  op.active = false;
  ++op.gen;
  free_.push_back(slot);
  --size_;
  cb(result);
}

void PendingReads::unlink(std::uint32_t slot) {
  Op& op = pool_[slot];
  if (op.prev != kNil) pool_[op.prev].next = op.next;
  if (op.next != kNil) pool_[op.next].prev = op.prev;
  if (liveHead_ == slot) liveHead_ = op.next;
  if (liveTail_ == slot) liveTail_ = op.prev;
  op.prev = kNil;
  op.next = kNil;
}

void PendingReads::resolveAll(ObjectId obj, const ReadResult& result) {
  // Detach first: callbacks may issue new reads on the same object,
  // which join the live list fresh (and are not visited: the snapshot
  // below is taken before any callback runs). Snapshot tokens (not
  // slots) so an op resolved out from under us mid-loop -- and its
  // possibly recycled slot -- is skipped by the generation check.
  std::vector<Token> tokens = std::move(resolveScratch_);
  tokens.clear();
  for (std::uint32_t s = liveHead_; s != kNil;) {
    const std::uint32_t next = pool_[s].next;
    if (pool_[s].obj == obj) {
      tokens.push_back(makeToken(s, pool_[s].gen));
      unlink(s);
      pool_[s].inLive = false;
    }
    s = next;
  }
  for (Token token : tokens) {
    Op* op = lookup(token);
    if (op == nullptr) continue;
    finish(static_cast<std::uint32_t>(token), result);
  }
  tokens.clear();
  resolveScratch_ = std::move(tokens);
}

void PendingReads::resolveOne(Token token, const ReadResult& result) {
  if (lookup(token) == nullptr) return;
  finish(static_cast<std::uint32_t>(token), result);
}

}  // namespace vlease::proto
