// The request-accounting identity over a LoadSummary.  A translation unit
// of its own: programs that never check the identity link none of it.
#include "core/load_driver.hpp"

namespace rattrap::core {

bool accounting_identity(const LoadSummary& summary) {
  const auto balanced = [](const auto& slice) {
    return slice.offered == slice.completed + slice.rejected;
  };
  bool ok = balanced(summary);
  std::size_t class_offered = 0;
  for (const ClassLoadStats& stats : summary.by_class) {
    ok = ok && balanced(stats);
    class_offered += stats.offered;
  }
  std::size_t tenant_offered = 0;
  for (const auto& [name, stats] : summary.by_tenant) {
    ok = ok && balanced(stats);
    tenant_offered += stats.offered;
  }
  return ok && class_offered == summary.offered &&
         tenant_offered == summary.offered;
}

}  // namespace rattrap::core
