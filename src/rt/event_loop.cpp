#include "rt/event_loop.h"

#include <unistd.h>

#include "util/check.h"

namespace vlease::rt {

namespace {

epoll_event eventFor(int fd, bool read, bool write) {
  epoll_event ev{};
  ev.events = 0;  // level-triggered (no EPOLLET; see header comment)
  if (read) ev.events |= EPOLLIN;
  if (write) ev.events |= EPOLLOUT;
  ev.data.fd = fd;
  return ev;
}

}  // namespace

EventLoop::EventLoop() : epfd_(::epoll_create1(EPOLL_CLOEXEC)) {
  VL_CHECK_MSG(epfd_ >= 0, "epoll_create1() failed");
}

EventLoop::~EventLoop() { ::close(epfd_); }

void EventLoop::add(int fd, bool read, bool write) {
  VL_CHECK(fd >= 0);
  epoll_event ev = eventFor(fd, read, write);
  VL_CHECK_MSG(::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) == 0,
               "epoll_ctl(ADD) failed");
}

void EventLoop::mod(int fd, bool read, bool write) {
  epoll_event ev = eventFor(fd, read, write);
  VL_CHECK_MSG(::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) == 0,
               "epoll_ctl(MOD) failed");
}

void EventLoop::del(int fd) {
  // ENOENT (never added) is the documented no-op; EBADF can happen
  // when a caller closes before deleting -- the kernel already
  // dropped the registration with the fd, so that is a no-op too.
  ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr);
}

int EventLoop::wait(std::vector<Event>& out, int timeoutMs) {
  out.clear();
  const int ready = ::epoll_wait(epfd_, raw_.data(),
                                 static_cast<int>(raw_.size()), timeoutMs);
  if (ready <= 0) return 0;  // timeout or EINTR
  out.reserve(static_cast<std::size_t>(ready));
  for (int i = 0; i < ready; ++i) {
    const epoll_event& e = raw_[static_cast<std::size_t>(i)];
    Event ev;
    ev.fd = e.data.fd;
    ev.readable = (e.events & EPOLLIN) != 0;
    ev.writable = (e.events & EPOLLOUT) != 0;
    ev.error = (e.events & (EPOLLERR | EPOLLHUP)) != 0;
    out.push_back(ev);
  }
  // A full batch means more may be pending; grow so one wait keeps
  // draining the whole ready set in a single syscall next time.
  if (static_cast<std::size_t>(ready) == raw_.size()) {
    raw_.resize(raw_.size() * 2);
  }
  return ready;
}

}  // namespace vlease::rt
