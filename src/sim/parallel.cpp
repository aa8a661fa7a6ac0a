#include "sim/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

namespace rattrap::sim {

void parallel_for(std::size_t count,
                  const std::function<void(std::size_t)>& body,
                  std::size_t threads) {
  if (count == 0) return;
  if (count == 1) {
    body(0);
    return;
  }
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  std::atomic<std::size_t> next{0};
  const auto lane = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      body(i);
    }
  };
  std::vector<std::thread> lanes(std::min(threads, count));
  for (std::thread& t : lanes) t = std::thread(lane);
  for (std::thread& t : lanes) t.join();
}

}  // namespace rattrap::sim
