#include "net/poller.h"

#include <cerrno>
#include <cstring>

#include <poll.h>

namespace skewless {

void Poller::add(int fd, int token, bool writable) {
  slots_.push_back(Slot{fd, token, writable, true});
}

void Poller::enable(int token, bool on) {
  for (Slot& slot : slots_) {
    if (slot.token == token) slot.on = on;
  }
}

bool Poller::wait(int timeout_ms, std::vector<int>& ready) {
  ready.clear();
  std::vector<struct pollfd> pfds(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    // poll(2) skips a negative fd: that is how a slot is switched off.
    pfds[i].fd = slots_[i].on ? slots_[i].fd : -1;
    pfds[i].events = slots_[i].writable ? POLLOUT : POLLIN;
    pfds[i].revents = 0;
  }
  while (true) {
    const int r = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (r < 0) {
      if (errno == EINTR) continue;
      last_error_ = std::string("poll: ") + std::strerror(errno);
      return false;
    }
    break;
  }
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    // POLLHUP with buffered data still reads fine; a bare hangup is
    // surfaced as ready too and the subsequent recv (or send) reports
    // the failure cleanly — one error path instead of two.
    if ((pfds[i].revents & (pfds[i].events | POLLHUP | POLLERR)) != 0) {
      ready.push_back(slots_[i].token);
    }
  }
  return true;
}

}  // namespace skewless
