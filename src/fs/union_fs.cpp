#include "fs/union_fs.hpp"

#include <algorithm>
#include <cassert>

#include "fs/path.hpp"

namespace rattrap::fs {

UnionFs::UnionFs(std::string name,
                 std::vector<std::shared_ptr<const Layer>> lower)
    : top_(std::move(name)), lower_(std::move(lower)) {
  assert(std::none_of(lower_.begin(), lower_.end(),
                      [](const auto& layer) { return layer == nullptr; }) &&
         "null lower layer");
}

UnionHit UnionFs::lookup(std::string_view path) const {
  const std::string key = normalize(path);
  if (const FileNode* node = private_find(key)) {
    if (node->whiteout) return {};
    return {node, 0};
  }
  // Lower layers resolve top-down: the last layer in the vector is the
  // highest of the lower stack.
  for (std::size_t i = lower_.size(); i-- > 0;) {
    if (const FileNode* node = lower_[i]->find(key)) {
      if (node->whiteout) return {};
      return {node, lower_.size() - i};
    }
  }
  return {};
}

const FileNode* UnionFs::lower_lookup(std::string_view path) const {
  const std::string key = normalize(path);
  for (std::size_t i = lower_.size(); i-- > 0;) {
    if (const FileNode* node = lower_[i]->find(key)) {
      return node->whiteout ? nullptr : node;
    }
  }
  return nullptr;
}

const FileNode* UnionFs::private_find(std::string_view key) const {
  if (const FileNode* node = top_.find(key)) return node;
  return private_base_ != nullptr ? private_base_->find(key) : nullptr;
}

std::uint64_t UnionFs::base_file_bytes(std::string_view key) const {
  if (private_base_ == nullptr) return 0;
  const FileNode* node = private_base_->find(key);
  return node != nullptr && node->kind == FileKind::kRegular &&
                 !node->whiteout
             ? node->size
             : 0;
}

void UnionFs::put_delta_file(const std::string& key, std::uint64_t size,
                             sim::SimTime now) {
  shadow_base(key);
  top_.put_file(key, size, now);
}

void UnionFs::put_delta_whiteout(const std::string& key) {
  shadow_base(key);
  top_.put_whiteout(key);
}

void UnionFs::shadow_base(const std::string& key) {
  if (private_base_ == nullptr || top_.contains(key)) return;
  shadowed_base_bytes_ += base_file_bytes(key);
  // The delta entry is a new file: the base copy's reads are not its.
  base_reads_.erase(key);
}

void UnionFs::erase_delta(const std::string& key) {
  if (top_.erase(key)) shadowed_base_bytes_ -= base_file_bytes(key);
}

void UnionFs::set_private_base(std::shared_ptr<const Layer> base) {
  private_base_ = std::move(base);
  shadowed_base_bytes_ = 0;
  base_reads_.clear();
  top_.for_each([this](const std::string& path, const FileNode&) {
    shadowed_base_bytes_ += base_file_bytes(path);
    return true;
  });
}

std::int64_t UnionFs::read(std::string_view path, sim::SimTime now) {
  const std::string key = normalize(path);
  if (FileNode* node = top_.find(key)) {
    if (node->whiteout) return -1;
    node->atime = now;
    node->accessed = true;
    return static_cast<std::int64_t>(node->size);
  }
  if (const FileNode* node =
          private_base_ != nullptr ? private_base_->find(key) : nullptr) {
    if (node->whiteout) return -1;
    base_reads_.insert(key);
    return static_cast<std::int64_t>(node->size);
  }
  if (const FileNode* node = lower_lookup(key)) {
    lower_reads_.insert(key);
    return static_cast<std::int64_t>(node->size);
  }
  return -1;
}

void UnionFs::write(std::string_view path, std::uint64_t size,
                    sim::SimTime now) {
  const std::string key = normalize(path);
  if (const FileNode* existing = private_find(key);
      existing != nullptr && !existing->whiteout) {
    // Truncate-to-size semantics: a write always sets the new size.
    put_delta_file(key, size, now);
    return;
  }
  if (const FileNode* below = lower_lookup(key)) {
    // COW: materialize the lower file's bytes into the top layer first.
    cow_bytes_ += below->size;
  }
  put_delta_file(key, size, now);
}

void UnionFs::append(std::string_view path, std::uint64_t delta,
                     sim::SimTime now) {
  const std::string key = normalize(path);
  if (const FileNode* node = private_find(key);
      node != nullptr && !node->whiteout) {
    put_delta_file(key, node->size + delta, now);
    return;
  }
  std::uint64_t base = 0;
  if (const FileNode* below = lower_lookup(key)) {
    cow_bytes_ += below->size;
    base = below->size;
  }
  put_delta_file(key, base + delta, now);
}

bool UnionFs::unlink(std::string_view path) {
  const std::string key = normalize(path);
  const FileNode* in_top = top_.find(key);
  const FileNode* mine = private_find(key);
  const bool mine_visible = mine != nullptr && !mine->whiteout;
  const bool below = lower_lookup(key) != nullptr;
  if (!mine_visible && (mine != nullptr || !below)) {
    // Already whiteouted, or absent everywhere.
    return false;
  }
  if (in_top != nullptr) erase_delta(key);
  // A whiteout hides whatever would show through the delta: a lower
  // file or a private-base entry.
  if (below || (private_base_ != nullptr && private_base_->contains(key))) {
    put_delta_whiteout(key);
  }
  return true;
}

bool UnionFs::read_anywhere(const std::string& path,
                            const FileNode& node) const {
  return node.accessed || lower_reads_.contains(path) ||
         base_reads_.contains(path);
}

std::uint64_t UnionFs::drop_private() {
  const std::uint64_t freed = private_bytes();
  top_.clear();
  private_base_.reset();
  shadowed_base_bytes_ = 0;
  base_reads_.clear();
  return freed;
}

std::uint64_t UnionFs::visible_bytes() const {
  std::uint64_t sum = 0;
  for_each_visible([&](const std::string&, const FileNode& node) {
    if (node.kind == FileKind::kRegular) sum += node.size;
    return true;
  });
  return sum;
}

std::size_t UnionFs::visible_files() const {
  std::size_t n = 0;
  for_each_visible([&](const std::string&, const FileNode& node) {
    if (node.kind == FileKind::kRegular) ++n;
    return true;
  });
  return n;
}

void UnionFs::for_each_visible(
    const std::function<bool(const std::string&, const FileNode&)>& visit)
    const {
  // Merge all layers path-ordered; the topmost provider of a path wins.
  // Simple approach: gather winner per path into an ordered map view by
  // iterating layers bottom-up so later (higher) layers overwrite.
  std::map<std::string, const FileNode*, std::less<>> merged;
  for (const auto& layer : lower_) {
    layer->for_each([&](const std::string& path, const FileNode& node) {
      merged[path] = &node;
      return true;
    });
  }
  if (private_base_ != nullptr) {
    private_base_->for_each([&](const std::string& path,
                                const FileNode& node) {
      merged[path] = &node;
      return true;
    });
  }
  top_.for_each([&](const std::string& path, const FileNode& node) {
    merged[path] = &node;
    return true;
  });
  for (const auto& [path, node] : merged) {
    if (node->whiteout) continue;
    if (!visit(path, *node)) return;
  }
}

std::vector<std::string> UnionFs::readdir(std::string_view directory) const {
  const std::string dir = normalize(directory);
  const std::string prefix = dir == "/" ? "/" : dir + "/";
  std::set<std::string> names;
  for_each_visible([&](const std::string& path, const FileNode&) {
    if (path.size() <= prefix.size() ||
        path.compare(0, prefix.size(), prefix) != 0) {
      return true;
    }
    const std::string rest = path.substr(prefix.size());
    const auto slash = rest.find('/');
    names.insert(slash == std::string::npos ? rest : rest.substr(0, slash));
    return true;
  });
  return {names.begin(), names.end()};
}

double UnionFs::never_accessed_fraction() const {
  std::size_t total = 0;
  std::size_t untouched = 0;
  for_each_visible([&](const std::string& path, const FileNode& node) {
    if (node.kind != FileKind::kRegular) return true;
    ++total;
    if (!read_anywhere(path, node)) ++untouched;
    return true;
  });
  return total == 0 ? 0.0
                    : static_cast<double>(untouched) /
                          static_cast<double>(total);
}

std::uint64_t UnionFs::never_accessed_bytes() const {
  std::uint64_t bytes = 0;
  for_each_visible([&](const std::string& path, const FileNode& node) {
    if (node.kind != FileKind::kRegular) return true;
    if (!read_anywhere(path, node)) bytes += node.size;
    return true;
  });
  return bytes;
}

}  // namespace rattrap::fs
