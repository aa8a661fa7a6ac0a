// A single filesystem layer: a flat, ordered map from normalized absolute
// paths to file metadata.  Layers are the unit of sharing in the union
// filesystem (Shared Resource Layer, §IV-C of the paper) and the unit of
// composition for Android system images.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "sim/time.hpp"

namespace rattrap::fs {

enum class FileKind : std::uint8_t {
  kRegular,
  kDirectory,
  kSymlink,
  kDevice,
};

/// Per-file metadata. The simulation tracks sizes and access times, not
/// contents; workload data that needs real bytes lives in the workload
/// generators, not in the filesystem model.
struct FileNode {
  FileKind kind = FileKind::kRegular;
  std::uint64_t size = 0;            ///< bytes
  sim::SimTime mtime = 0;            ///< last modification
  sim::SimTime atime = 0;            ///< last access (drives Obs. 4)
  bool whiteout = false;             ///< union-fs deletion marker
  bool accessed = false;             ///< ever read since creation
  bool burn_after_reading = false;   ///< tmpfs: unlinked by its first read
};

class Layer {
 public:
  explicit Layer(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Inserts or replaces a regular file and returns its entry. Parent
  /// directories are created implicitly on lookup-by-prefix semantics
  /// (flat map), so no mkdir -p bookkeeping is required.
  FileNode& put_file(std::string_view path, std::uint64_t size,
                     sim::SimTime mtime = 0);

  /// Inserts a directory entry (size 0).
  void put_dir(std::string_view path, sim::SimTime mtime = 0);

  /// Inserts a device node.
  void put_device(std::string_view path, sim::SimTime mtime = 0);

  /// Inserts a whiteout marker hiding `path` in lower layers.
  void put_whiteout(std::string_view path);

  /// Removes an entry. Returns true when something was removed.
  bool erase(std::string_view path);

  /// Removes every entry.
  void clear();

  /// Looks up an exact path.
  [[nodiscard]] const FileNode* find(std::string_view path) const;
  [[nodiscard]] FileNode* find(std::string_view path);

  [[nodiscard]] bool contains(std::string_view path) const {
    return find(path) != nullptr;
  }

  /// Total bytes of non-whiteout regular files.
  [[nodiscard]] std::uint64_t total_bytes() const { return total_bytes_; }

  /// Number of entries (including directories and whiteouts).
  [[nodiscard]] std::size_t entry_count() const { return entries_.size(); }

  /// Number of regular files.
  [[nodiscard]] std::size_t file_count() const { return file_count_; }

  /// Visits every entry in path order; return false from the visitor to
  /// stop early.
  void for_each(
      const std::function<bool(const std::string&, const FileNode&)>& visit)
      const;

  /// Visits entries under `prefix` (inclusive) in path order.
  void for_each_under(
      std::string_view prefix,
      const std::function<bool(const std::string&, const FileNode&)>& visit)
      const;

  /// Sum of sizes of entries under `prefix`.
  [[nodiscard]] std::uint64_t bytes_under(std::string_view prefix) const;

 private:
  void account_add(const FileNode& node);
  void account_remove(const FileNode& node);
  /// Inserts or replaces the entry at `path`.
  FileNode& put(std::string_view path, const FileNode& node);

  std::string name_;
  std::map<std::string, FileNode, std::less<>> entries_;
  std::uint64_t total_bytes_ = 0;
  std::size_t file_count_ = 0;
};

}  // namespace rattrap::fs
