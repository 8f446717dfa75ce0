#include "rt/real_time.h"

#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <iterator>

#include "util/check.h"

namespace vlease::rt {

namespace {

/// A number for the calling thread that no other thread of the process
/// ever gets (std::thread::id values are reused once a thread exits).
std::uint64_t threadToken() {
  static std::atomic<std::uint64_t> next{1};
  thread_local const std::uint64_t token =
      next.fetch_add(1, std::memory_order_relaxed);
  return token;
}

}  // namespace

RealTimeDriver::RealTimeDriver()
    : start_(std::chrono::steady_clock::now()),
      wakeFd_(::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK)) {
  VL_CHECK_MSG(wakeFd_ >= 0, "eventfd() failed");
  // The wake fd is registered like any other watched fd; its handler
  // just drains the counter. Its presence also means the readiness wait
  // is never a bare sleep: a cross-thread post() interrupts it.
  watchFd(wakeFd_, [this]() { drainWakeFd(); });
}

RealTimeDriver::~RealTimeDriver() { ::close(wakeFd_); }

SimTime RealTimeDriver::rawElapsed() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

SimTime RealTimeDriver::elapsed() const {
  SimTime v = rawElapsed() + clockOffset_.load(std::memory_order_relaxed);
  if (v < lastElapsed_) return lastElapsed_;
  lastElapsed_ = v;
  return v;
}

void RealTimeDriver::alignStart(std::int64_t steadyEpochMicros) {
  start_ = std::chrono::steady_clock::time_point(
      std::chrono::microseconds(steadyEpochMicros));
  lastElapsed_ = 0;
}

void RealTimeDriver::watchFd(int fd, FdHandler onReadable) {
  VL_CHECK(fd >= 0);
  VL_CHECK(fds_.count(fd) == 0);
  fds_.emplace(fd, FdHandlers{std::move(onReadable), nullptr, false});
  loop_.add(fd, /*read=*/true, /*write=*/false);
}

void RealTimeDriver::unwatchFd(int fd) {
  if (fds_.erase(fd) == 0) return;
  loop_.del(fd);
}

void RealTimeDriver::setWriteHandler(int fd, FdHandler onWritable) {
  auto it = fds_.find(fd);
  VL_CHECK(it != fds_.end());
  it->second.onWritable = std::move(onWritable);
}

void RealTimeDriver::setWriteInterest(int fd, bool enabled) {
  auto it = fds_.find(fd);
  if (it == fds_.end()) return;  // connection already torn down
  if (it->second.wantWrite == enabled) return;
  it->second.wantWrite = enabled;
  loop_.mod(fd, /*read=*/true, /*write=*/enabled);
}

void RealTimeDriver::addBeforeWaitHook(std::function<void()> hook) {
  beforeWaitHooks_.push_back(std::move(hook));
}

void RealTimeDriver::runBeforeWaitHooks() {
  for (const auto& hook : beforeWaitHooks_) hook();
}

void RealTimeDriver::wake() {
  const std::uint64_t one = 1;
  // A saturated counter already guarantees a pending wake.
  [[maybe_unused]] ssize_t n = ::write(wakeFd_, &one, sizeof(one));
}

void RealTimeDriver::drainWakeFd() {
  // One eventfd read returns and resets the whole counter.
  std::uint64_t count;
  [[maybe_unused]] ssize_t n = ::read(wakeFd_, &count, sizeof(count));
}

void RealTimeDriver::checkNoOtherStep() const {
  [[maybe_unused]] const std::uint64_t inside =
      stepping_.load(std::memory_order_relaxed);
  VL_DCHECK(inside == 0 || inside == threadToken());
}

void RealTimeDriver::post(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(postMutex_);
    posts_.push_back(std::move(fn));
  }
  wake();
}

void RealTimeDriver::drainPosts() {
  std::vector<std::function<void()>> batch;
  {
    std::lock_guard<std::mutex> lock(postMutex_);
    batch.swap(posts_);
  }
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (stopped_.load()) {
      // Drain barrier: stop() was requested (possibly by batch[i-1]
      // itself tearing the node down). Re-queue the remaining
      // callbacks, in order and ahead of anything posted since, so
      // they run on the next run() instead of against a half-torn-down
      // node.
      std::lock_guard<std::mutex> lock(postMutex_);
      posts_.insert(posts_.begin(),
                    std::make_move_iterator(batch.begin() +
                                            static_cast<std::ptrdiff_t>(i)),
                    std::make_move_iterator(batch.end()));
      return;
    }
    batch[i]();
  }
}

void RealTimeDriver::step(int waitTimeoutMs) {
  const std::uint64_t outerStep = stepping_.load(std::memory_order_relaxed);
  stepping_.store(threadToken(), std::memory_order_relaxed);

  drainPosts();
  if (stepHook_) stepHook_(rawElapsed());
  scheduler_.runUntil(elapsed());

  // Anything sent since the last step, and anything the posts or
  // timers queued, leaves now, so the wait below blocks with empty
  // output buffers.
  runBeforeWaitHooks();

  const int ready = loop_.wait(ready_, waitTimeoutMs);
  if (ready > 0) {
    // Handlers may mutate the watch set (accept adds, close removes, a
    // handler may even close a LATER fd of this same batch): re-check
    // registration per event and copy the handler before invoking.
    for (const EventLoop::Event& ev : ready_) {
      if (ev.readable || ev.error) {
        auto it = fds_.find(ev.fd);
        if (it == fds_.end()) continue;
        FdHandler handler = it->second.onReadable;
        if (handler) handler();
      }
      if (ev.writable) {
        auto it = fds_.find(ev.fd);
        if (it == fds_.end()) continue;  // closed by its own read handler
        FdHandler handler = it->second.onWritable;
        if (handler) handler();
      }
    }
  }
  scheduler_.runUntil(elapsed());

  // Replies generated by the dispatched handlers leave in this same
  // iteration -- one gathered writev per connection, not one write per
  // send() call.
  runBeforeWaitHooks();

  stepping_.store(outerStep, std::memory_order_relaxed);
}

void RealTimeDriver::run(SimDuration forMicros) {
  stopped_.store(false);
  const SimTime deadline = forMicros > 0 ? elapsed() + forMicros : kNever;
  while (!stopped_.load() && elapsed() < deadline) {
    step();
  }
}

}  // namespace vlease::rt
