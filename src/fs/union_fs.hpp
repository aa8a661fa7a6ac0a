// AUFS-style union filesystem with copy-on-write.
//
// A UnionFs stacks shared, read-only layers under one private writable top
// layer.  Lookups resolve top-down and honour whiteouts; writes copy the
// file up into the top layer first (COW).  This is the storage model behind
// the paper's Shared Resource Layer: all Cloud Android Containers mount the
// same read-only system layer, so a container's private delta stays tiny
// (< 7.1 MB vs ~1 GB per Android VM).
//
// The private layer may itself start from a shared read-only base — the
// seeded app data of a booted container image.  The base counts as
// private (top, index 0) until the mount's own delta shadows it; the
// mount keeps only that delta, so dropping the private layer costs the
// delta, not the base.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "fs/layer.hpp"
#include "sim/time.hpp"

namespace rattrap::fs {

/// Result of a union lookup: which layer (0 = top) satisfied it.
struct UnionHit {
  const FileNode* node = nullptr;
  std::size_t layer_index = 0;  ///< 0 is the writable top layer
};

class UnionFs {
 public:
  /// Builds a union over `lower` layers (bottom-most first) plus a fresh
  /// private writable top layer named `name`.
  UnionFs(std::string name, std::vector<std::shared_ptr<const Layer>> lower);

  [[nodiscard]] const std::string& name() const { return top_.name(); }

  /// Resolves `path` top-down. Returns nullptr node when absent or hidden
  /// by a whiteout.
  [[nodiscard]] UnionHit lookup(std::string_view path) const;

  [[nodiscard]] bool exists(std::string_view path) const {
    return lookup(path).node != nullptr;
  }

  /// Reads a file: bumps access bookkeeping (atime / accessed flag for the
  /// Obs. 4 redundancy profiling) and returns its size, or -1 if absent.
  /// Reads of lower-layer files mark the access in a side table because
  /// lower layers are shared and immutable.
  std::int64_t read(std::string_view path, sim::SimTime now);

  /// Writes (creates or truncates) a file in the top layer. If the file
  /// currently lives in a lower layer, its bytes are first copied up (COW);
  /// the copied volume is recorded in cow_bytes().
  void write(std::string_view path, std::uint64_t size, sim::SimTime now);

  /// Appends `delta` bytes to a file, copying up first when needed.
  void append(std::string_view path, std::uint64_t delta, sim::SimTime now);

  /// Unlinks a file: removes it from the top layer and/or plants a whiteout
  /// when a lower layer still provides it. Returns true if it existed.
  bool unlink(std::string_view path);

  /// Starts the private layer over `base`: a shared, read-only layer of
  /// private files the mount's delta shadows copy-on-write (nullptr for
  /// none).  Entries already in the delta keep shadowing it.
  void set_private_base(std::shared_ptr<const Layer> base);

  /// Private bytes — the container's real disk footprint: the delta plus
  /// the private base's files the delta does not shadow.
  [[nodiscard]] std::uint64_t private_bytes() const {
    return top_.total_bytes() +
           (private_base_ != nullptr ? private_base_->total_bytes() : 0) -
           shadowed_base_bytes_;
  }

  /// Drops the private layer — the delta's files, whiteouts and COW
  /// copies, and the private base reference — while the shared lower
  /// layers stay untouched: the drain-based reclaim of a container's
  /// private delta.  Costs the delta's entries only.  Returns the private
  /// bytes freed.
  std::uint64_t drop_private();

  /// Bytes materialized by copy-up operations so far.
  [[nodiscard]] std::uint64_t cow_bytes() const { return cow_bytes_; }

  /// Total logical bytes visible through the union (union semantics:
  /// top file shadows lower file of the same path).
  [[nodiscard]] std::uint64_t visible_bytes() const;

  /// Count of visible regular files.
  [[nodiscard]] std::size_t visible_files() const;

  /// Fraction of visible regular files never read since mount; reproduces
  /// the paper's Obs. 4 "68.4 % of the image never accessed" measurement.
  [[nodiscard]] double never_accessed_fraction() const;

  /// Bytes of visible regular files never read since mount.
  [[nodiscard]] std::uint64_t never_accessed_bytes() const;

  /// Direct access to the writable top layer's delta (e.g. for
  /// snapshotting); the private base is not included.
  [[nodiscard]] const Layer& top() const { return top_; }

  /// Number of layers including the top.
  [[nodiscard]] std::size_t layer_count() const { return lower_.size() + 1; }

  /// Visits every visible file (union semantics) in path order.
  void for_each_visible(
      const std::function<bool(const std::string&, const FileNode&)>& visit)
      const;

  /// Directory listing: the immediate children of `directory` visible
  /// through the union (names only, sorted, deduplicated across layers;
  /// both files and subdirectories appear once).
  [[nodiscard]] std::vector<std::string> readdir(
      std::string_view directory) const;

 private:
  Layer top_;
  std::vector<std::shared_ptr<const Layer>> lower_;  // bottom-most first
  std::shared_ptr<const Layer> private_base_;
  /// Bytes of private-base files that have a delta entry over them.
  std::uint64_t shadowed_base_bytes_ = 0;
  // Paths in *lower* layers that have been read through this mount.
  std::set<std::string, std::less<>> lower_reads_;
  // Private-base files read through this mount and not shadowed since:
  // the base is shared and immutable, so its access marks live here.
  std::set<std::string, std::less<>> base_reads_;
  std::uint64_t cow_bytes_ = 0;

  /// Finds the topmost lower-layer node for `path` (ignoring the top).
  [[nodiscard]] const FileNode* lower_lookup(std::string_view path) const;
  /// The private layer's entry for `key` (whiteouts included): the
  /// delta's, else the private base's.
  [[nodiscard]] const FileNode* private_find(std::string_view key) const;
  /// Bytes of the private base's regular file at `key` (0 when none).
  [[nodiscard]] std::uint64_t base_file_bytes(std::string_view key) const;
  // Delta mutations that keep shadowed_base_bytes_ current.
  void put_delta_file(const std::string& key, std::uint64_t size,
                      sim::SimTime now);
  void put_delta_whiteout(const std::string& key);
  void erase_delta(const std::string& key);
  /// Accounts for a delta entry about to cover the private base at `key`.
  void shadow_base(const std::string& key);
  /// Whether the visible `node` at `path` was read through this mount.
  [[nodiscard]] bool read_anywhere(const std::string& path,
                                   const FileNode& node) const;
};

}  // namespace rattrap::fs
