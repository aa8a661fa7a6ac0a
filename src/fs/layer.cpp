#include "fs/layer.hpp"

#include "fs/path.hpp"

namespace rattrap::fs {

void Layer::account_add(const FileNode& node) {
  if (node.kind == FileKind::kRegular && !node.whiteout) {
    total_bytes_ += node.size;
    ++file_count_;
  }
}

void Layer::account_remove(const FileNode& node) {
  if (node.kind == FileKind::kRegular && !node.whiteout) {
    total_bytes_ -= node.size;
    --file_count_;
  }
}

FileNode& Layer::put(std::string_view path, const FileNode& node) {
  std::string scratch;
  const std::string_view key = canonical(path, scratch);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    account_remove(it->second);
    it->second = node;
  } else {
    it = entries_.emplace(std::string(key), node).first;
  }
  account_add(node);
  return it->second;
}

FileNode& Layer::put_file(std::string_view path, std::uint64_t size,
                          sim::SimTime mtime) {
  FileNode node;
  node.kind = FileKind::kRegular;
  node.size = size;
  node.mtime = mtime;
  return put(path, node);
}

void Layer::put_dir(std::string_view path, sim::SimTime mtime) {
  FileNode node;
  node.kind = FileKind::kDirectory;
  node.mtime = mtime;
  put(path, node);
}

void Layer::put_device(std::string_view path, sim::SimTime mtime) {
  FileNode node;
  node.kind = FileKind::kDevice;
  node.mtime = mtime;
  put(path, node);
}

void Layer::put_whiteout(std::string_view path) {
  FileNode node;
  node.whiteout = true;
  put(path, node);
}

bool Layer::erase(std::string_view path) {
  std::string scratch;
  const auto it = entries_.find(canonical(path, scratch));
  if (it == entries_.end()) return false;
  account_remove(it->second);
  entries_.erase(it);
  return true;
}

void Layer::clear() {
  entries_.clear();
  total_bytes_ = 0;
  file_count_ = 0;
}

const FileNode* Layer::find(std::string_view path) const {
  std::string scratch;
  const auto it = entries_.find(canonical(path, scratch));
  return it == entries_.end() ? nullptr : &it->second;
}

FileNode* Layer::find(std::string_view path) {
  std::string scratch;
  const auto it = entries_.find(canonical(path, scratch));
  return it == entries_.end() ? nullptr : &it->second;
}

void Layer::for_each(
    const std::function<bool(const std::string&, const FileNode&)>& visit)
    const {
  for (const auto& [path, node] : entries_) {
    if (!visit(path, node)) return;
  }
}

void Layer::for_each_under(
    std::string_view prefix,
    const std::function<bool(const std::string&, const FileNode&)>& visit)
    const {
  const std::string pre = normalize(prefix);
  for (auto it = entries_.lower_bound(pre); it != entries_.end(); ++it) {
    if (!is_under(it->first, pre)) {
      // Entries are path-ordered; once we pass the subtree we may still see
      // siblings that sort after (e.g. "/ab" after "/a/z" stops at "/ab").
      if (it->first.compare(0, pre.size(), pre) > 0) break;
      continue;
    }
    if (!visit(it->first, it->second)) return;
  }
}

std::uint64_t Layer::bytes_under(std::string_view prefix) const {
  std::uint64_t sum = 0;
  for_each_under(prefix, [&](const std::string&, const FileNode& node) {
    if (node.kind == FileKind::kRegular && !node.whiteout) sum += node.size;
    return true;
  });
  return sum;
}

}  // namespace rattrap::fs
