#include "core/report.hpp"

#include <sstream>

namespace rattrap::core {

PlatformReport snapshot(Platform& platform) {
  PlatformReport report;
  CloudServer& server = platform.server();
  report.environments_total = platform.env_count();
  report.environments_retired =
      platform.env_table().count(EnvState::kReclaimed);
  report.environments_active = platform.env_table().live_count();
  report.cached_apps = server.warehouse().entry_count();
  report.cached_bytes = server.warehouse().stored_bytes();
  report.cache_hits = server.warehouse().hit_count();
  report.cache_misses = server.warehouse().miss_count();
  report.permission_tables = server.access().table_count();
  report.tmpfs_used_bytes = server.shared_layer().offload_io().used_bytes();
  report.tmpfs_peak_bytes = server.shared_layer().offload_io().peak_bytes();
  report.disk_read_bytes = server.disk().total_read_bytes();
  report.disk_write_bytes = server.disk().total_write_bytes();
  report.cpu_busy_seconds = sim::to_seconds(server.monitor().total_busy());
  report.vm_memory_committed = server.hypervisor().memory_committed();
  report.kernel_modules = server.kernel().loaded_modules().size();
  return report;
}

std::string to_text(const PlatformReport& report) {
  std::ostringstream out;
  const auto mb = [](std::uint64_t bytes) {
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
  };
  out << "environments: " << report.environments_total << " total, "
      << report.environments_active << " active, "
      << report.environments_retired << " retired\n";
  out << "warehouse: " << report.cached_apps << " app(s), "
      << mb(report.cached_bytes) << " MB cached, " << report.cache_hits
      << " hits / " << report.cache_misses << " misses\n";
  out << "access controller: " << report.permission_tables
      << " permission table(s)\n";
  out << "offloading tmpfs: " << mb(report.tmpfs_used_bytes)
      << " MB in use (peak " << mb(report.tmpfs_peak_bytes) << " MB)\n";
  out << "disk: " << mb(report.disk_read_bytes) << " MB read, "
      << mb(report.disk_write_bytes) << " MB written\n";
  out << "cpu busy: " << report.cpu_busy_seconds << " core-seconds\n";
  out << "vm memory committed: " << mb(report.vm_memory_committed)
      << " MB\n";
  out << "kernel modules loaded: " << report.kernel_modules << "\n";
  return out.str();
}

std::string csv_header() {
  return "envs_total,envs_active,envs_retired,cached_apps,cached_bytes,"
         "cache_hits,cache_misses,permission_tables,tmpfs_used,tmpfs_peak,"
         "disk_read,disk_write,cpu_busy_s,vm_memory,kernel_modules";
}

std::string to_csv(const PlatformReport& report) {
  std::ostringstream out;
  out << report.environments_total << ',' << report.environments_active
      << ',' << report.environments_retired << ',' << report.cached_apps
      << ',' << report.cached_bytes << ',' << report.cache_hits << ','
      << report.cache_misses << ',' << report.permission_tables << ','
      << report.tmpfs_used_bytes << ',' << report.tmpfs_peak_bytes << ','
      << report.disk_read_bytes << ',' << report.disk_write_bytes << ','
      << report.cpu_busy_seconds << ',' << report.vm_memory_committed
      << ',' << report.kernel_modules;
  return out.str();
}

}  // namespace rattrap::core
