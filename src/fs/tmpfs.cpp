#include "fs/tmpfs.hpp"

#include <algorithm>
#include <cassert>

#include "fs/path.hpp"

namespace rattrap::fs {

TmpFs::TmpFs(std::string name, std::uint64_t capacity, double bandwidth_mb_s)
    : store_(std::move(name)),
      capacity_(capacity),
      bandwidth_mb_s_(bandwidth_mb_s) {
  assert(bandwidth_mb_s > 0);
}

bool TmpFs::write(std::string_view path, std::uint64_t size, sim::SimTime now,
                  bool burn_after_reading) {
  if (faults_ != nullptr &&
      faults_->should_fire(sim::FaultKind::kTmpfsWriteFail)) {
    // Injected ENOSPC/EIO: the write fails exactly like a capacity
    // refusal, so callers exercise their spill/degradation paths.
    ++injected_write_failures_;
    return false;
  }
  std::string scratch;
  const std::string_view key = canonical(path, scratch);
  std::uint64_t existing = 0;
  if (const FileNode* node = store_.find(key)) existing = node->size;
  // Replacing a file frees its old bytes first.
  if (used_bytes() - existing + size > capacity_) return false;
  // A replacement takes this write's flag, whatever the old file had.
  store_.put_file(key, size, now).burn_after_reading = burn_after_reading;
  written_ += size;
  peak_ = std::max(peak_, used_bytes());
  return true;
}

std::int64_t TmpFs::read(std::string_view path, sim::SimTime now) {
  std::string scratch;
  const std::string_view key = canonical(path, scratch);
  FileNode* node = store_.find(key);
  if (node == nullptr) return -1;
  node->atime = now;
  node->accessed = true;
  const auto size = static_cast<std::int64_t>(node->size);
  read_ += node->size;
  if (node->burn_after_reading) store_.erase(key);  // burn after reading
  return size;
}

bool TmpFs::remove(std::string_view path) { return store_.erase(path); }

sim::SimDuration TmpFs::transfer_time(std::uint64_t bytes) const {
  const double seconds =
      static_cast<double>(bytes) / (bandwidth_mb_s_ * 1024.0 * 1024.0);
  return sim::from_seconds(seconds);
}

}  // namespace rattrap::fs
