// Readiness wait for the rt layer's event loops: one epoll instance per
// loop. add/mod/del map to epoll_ctl and wait() to epoll_wait, so a
// wait costs O(ready fds) however many connections are watched.
// Level-triggered on purpose -- the transport drains sockets until
// EAGAIN anyway, and level triggering keeps the "handler didn't finish
// the job" case safe by construction (the fd simply reports ready again
// next wait). The rt layer runs on Linux only.
//
// Contract notes:
//   * interest is level-triggered for both read and write;
//   * wait() never returns an fd that was del()ed before the call, but a
//     handler running off one wait() batch may del() an fd that is also
//     in the same batch -- callers (the driver) re-check registration
//     before dispatching each event;
//   * del() on an fd that was never add()ed is a harmless no-op (the
//     transport tears connections down from several paths).
#pragma once

#include <sys/epoll.h>

#include <vector>

namespace vlease::rt {

class EventLoop {
 public:
  /// One readiness report. `error` covers EPOLLERR/EPOLLHUP; callers
  /// treat it like readability so the read path observes the EOF/error
  /// and closes the connection.
  struct Event {
    int fd = -1;
    bool readable = false;
    bool writable = false;
    bool error = false;
  };

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Register `fd` with the given interest set. Registering an fd twice
  /// is a programming error; use mod().
  void add(int fd, bool read, bool write);
  /// Change the interest set of a registered fd.
  void mod(int fd, bool read, bool write);
  /// Remove an fd. No-op if it was never registered.
  void del(int fd);

  /// Block up to `timeoutMs` (0 = poll, <0 = forever) and append every
  /// ready fd to `out` (cleared first). Returns the number of events,
  /// 0 on timeout; EINTR is treated as a timeout.
  int wait(std::vector<Event>& out, int timeoutMs);

 private:
  int epfd_;
  std::vector<epoll_event> raw_{64};
};

}  // namespace vlease::rt
