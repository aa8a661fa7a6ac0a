#include "core/invariant.hpp"

#include <utility>

namespace rattrap::core {

void InvariantChecker::record(const std::string& name, std::string detail,
                              sim::SimTime when) {
  ++total_violations_;
  if (violations_.size() >= max_recorded_) return;
  violations_.push_back({name, std::move(detail), when,
                         checks_run_ > 0 ? checks_run_ - 1 : 0});
}

std::string InvariantChecker::report() const {
  std::string out;
  for (const auto& v : violations_) {
    out += std::to_string(v.when) + "us " + v.name + ": " + v.detail + "\n";
  }
  return out;
}

}  // namespace rattrap::core
