// Invariant checker: the record of cross-component consistency checks.
//
// Fault injection is only as good as the oracle judging the aftermath.
// The oracle (core/oracle.hpp) holds the named predicates over platform
// state — "no session is bound to a dead container", "the shared tmpfs
// holds exactly the live offload files" — and checks them after every
// simulator event, re-evaluating only what the event touched.  This class
// records the outcome: one check per event, and per check one violation
// for each invariant that does not hold, with the virtual time and a
// human-readable detail string so a failing seed can be replayed and
// diagnosed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace rattrap::core {

struct InvariantViolation {
  std::string name;    ///< which invariant tripped
  std::string detail;  ///< what the predicate saw
  sim::SimTime when = 0;
  std::uint64_t event_index = 0;  ///< how many checks had run before this
};

class InvariantChecker {
 public:
  /// Starts one check (one simulator event); the violations recorded
  /// until the next call carry its index.
  void begin_check() { ++checks_run_; }

  /// Records that invariant `name` does not hold in the current check.
  /// The first set_max_recorded() (default 64) violations are kept; the
  /// counter keeps counting past the cap.
  void record(const std::string& name, std::string detail, sim::SimTime when);

  /// How many invariants the oracle evaluates (0 = not armed).
  void set_invariant_count(std::size_t count) { invariant_count_ = count; }

  [[nodiscard]] bool ok() const { return total_violations_ == 0; }
  [[nodiscard]] std::uint64_t total_violations() const {
    return total_violations_;
  }
  [[nodiscard]] std::uint64_t checks_run() const { return checks_run_; }
  [[nodiscard]] const std::vector<InvariantViolation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::size_t invariant_count() const {
    return invariant_count_;
  }

  /// First recorded violation, or nullptr when everything held.
  [[nodiscard]] const InvariantViolation* first_violation() const {
    return violations_.empty() ? nullptr : &violations_.front();
  }

  /// One line per recorded violation: "<time>us <name>: <detail>".
  [[nodiscard]] std::string report() const;

  void set_max_recorded(std::size_t max) { max_recorded_ = max; }

 private:
  std::vector<InvariantViolation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t checks_run_ = 0;
  std::size_t max_recorded_ = 64;
  std::size_t invariant_count_ = 0;
};

}  // namespace rattrap::core
