// Non-blocking event loops for the RPC front door.
//
// One EventLoop wraps one epoll instance driven by one thread: fds are
// registered with edge-notification callbacks, and cross-thread work
// arrives through post(), which enqueues a task and kicks an eventfd so
// a sleeping epoll_wait wakes immediately.  An EventLoopGroup owns N
// loops on N threads and hands out connections round-robin — the
// standard one-loop-per-core reactor shape (docs/RPC.md).
//
// Threading contract: add_fd / mod_fd / remove_fd must run on the loop
// thread (use post() to get there); post() and stop() are safe from any
// thread.  Handlers run on the loop thread, so per-connection state
// needs no locks.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace rattrap::rpc {

class EventLoop {
 public:
  using Task = std::function<void()>;
  /// Receives the ready epoll event mask (EPOLLIN | EPOLLOUT | ...).
  using FdHandler = std::function<void(std::uint32_t)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Runs the reactor on the calling thread until stop().
  void run();

  /// Thread-safe: requests run() to return after the current iteration.
  void stop();

  /// Thread-safe: runs `task` on the loop thread at the next iteration.
  /// Runs inline when already called from the loop thread inside run().
  void post(Task task);

  /// Watches `fd` with the given epoll event mask.  Loop thread only.
  bool add_fd(int fd, std::uint32_t events, FdHandler handler);
  /// Rearms `fd` with a new mask (watermark pause/resume flips EPOLLIN).
  bool mod_fd(int fd, std::uint32_t events);
  /// Stops watching `fd`; the handler is dropped (never called again).
  void remove_fd(int fd);

  [[nodiscard]] bool in_loop_thread() const {
    return std::this_thread::get_id() == thread_id_;
  }

  /// Number of wake-fd drains.  Incremented on the loop thread, readable
  /// from any thread (relaxed — observability, not ordering).
  [[nodiscard]] std::uint64_t wakeups() const {
    return wakeups_.load(std::memory_order_relaxed);
  }

 private:
  void drain_wakeup();
  void run_pending();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::atomic<std::thread::id> thread_id_{};

  std::mutex mutex_;                 ///< guards pending_
  std::vector<Task> pending_;

  /// fd → handler; shared_ptr so a handler that removes fds (including
  /// its own) mid-dispatch cannot free the closure it is running in.
  std::map<int, std::shared_ptr<FdHandler>> handlers_;

  /// Stat counter bumped on the loop thread, read from test/monitoring
  /// threads — atomic so the cross-thread reads are race-free.
  std::atomic<std::uint64_t> wakeups_{0};
};

/// N loops on N threads, dealt round-robin.  Construction spawns the
/// threads; stop_and_join() (or destruction) stops every loop and joins.
class EventLoopGroup {
 public:
  explicit EventLoopGroup(std::size_t threads);
  ~EventLoopGroup();

  EventLoopGroup(const EventLoopGroup&) = delete;
  EventLoopGroup& operator=(const EventLoopGroup&) = delete;

  [[nodiscard]] EventLoop& next();
  [[nodiscard]] EventLoop& at(std::size_t i) { return *loops_[i]; }
  [[nodiscard]] std::size_t size() const { return loops_.size(); }

  void stop_and_join();

 private:
  std::vector<std::unique_ptr<EventLoop>> loops_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> round_robin_{0};
  bool joined_ = false;
};

}  // namespace rattrap::rpc
