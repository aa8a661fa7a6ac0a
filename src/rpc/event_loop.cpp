#include "rpc/event_loop.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <utility>

namespace rattrap::rpc {

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::run() {
  thread_id_.store(std::this_thread::get_id());
  std::array<epoll_event, 64> events{};
  while (!stop_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), -1);
    if (n < 0) continue;  // EINTR
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        drain_wakeup();
        continue;
      }
      // Look the handler up per event: a handler earlier in this batch
      // may have removed this fd, in which case it must not fire.
      auto it = handlers_.find(fd);
      if (it == handlers_.end()) continue;
      const std::shared_ptr<FdHandler> handler = it->second;
      (*handler)(events[i].events);
    }
    run_pending();
  }
  // Drain what arrived between the last iteration and stop() so posted
  // release/teardown tasks are never silently dropped.
  run_pending();
  thread_id_.store(std::thread::id{});
}

void EventLoop::stop() {
  stop_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof one);
}

void EventLoop::post(Task task) {
  if (in_loop_thread()) {
    task();
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    pending_.push_back(std::move(task));
  }
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof one);
}

bool EventLoop::add_fd(int fd, std::uint32_t events, FdHandler handler) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) return false;
  handlers_[fd] = std::make_shared<FdHandler>(std::move(handler));
  return true;
}

bool EventLoop::mod_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  return ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0;
}

void EventLoop::remove_fd(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  handlers_.erase(fd);
}

void EventLoop::drain_wakeup() {
  wakeups_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t count = 0;
  [[maybe_unused]] const auto n = ::read(wake_fd_, &count, sizeof count);
}

void EventLoop::run_pending() {
  std::vector<Task> tasks;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    tasks.swap(pending_);
  }
  for (Task& task : tasks) task();
}

EventLoopGroup::EventLoopGroup(std::size_t threads) {
  if (threads == 0) threads = 1;
  loops_.reserve(threads);
  threads_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    loops_.push_back(std::make_unique<EventLoop>());
    EventLoop* loop = loops_.back().get();
    threads_.emplace_back([loop] { loop->run(); });
  }
}

EventLoopGroup::~EventLoopGroup() { stop_and_join(); }

EventLoop& EventLoopGroup::next() {
  const std::size_t i =
      round_robin_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
  return *loops_[i];
}

void EventLoopGroup::stop_and_join() {
  if (joined_) return;
  joined_ = true;
  for (auto& loop : loops_) loop->stop();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

}  // namespace rattrap::rpc
