#include "fs/path.hpp"

namespace rattrap::fs {

bool is_normalized(std::string_view path) {
  if (path.empty() || path.front() != '/') return false;
  if (path.size() == 1) return true;
  if (path.back() == '/') return false;
  // Every component sits between a '/' and the next '/' (or the end).
  std::size_t start = 1;
  while (start <= path.size()) {
    std::size_t end = path.find('/', start);
    if (end == std::string_view::npos) end = path.size();
    const std::string_view part = path.substr(start, end - start);
    if (part.empty() || part == "." || part == "..") return false;
    start = end + 1;
  }
  return true;
}

std::string normalize(std::string_view path) {
  if (is_normalized(path)) return std::string(path);
  std::vector<std::string_view> parts;
  std::size_t i = 0;
  while (i < path.size()) {
    while (i < path.size() && path[i] == '/') ++i;
    std::size_t start = i;
    while (i < path.size() && path[i] != '/') ++i;
    if (i == start) break;
    std::string_view part = path.substr(start, i - start);
    if (part == ".") continue;
    if (part == "..") {
      if (!parts.empty()) parts.pop_back();
      continue;
    }
    parts.push_back(part);
  }
  if (parts.empty()) return "/";
  std::string out;
  for (const auto& p : parts) {
    out.push_back('/');
    out.append(p);
  }
  return out;
}

std::string join(std::string_view base, std::string_view leaf) {
  std::string combined(base);
  combined.push_back('/');
  combined.append(leaf);
  return normalize(combined);
}

std::string parent(std::string_view path) {
  const std::string norm = normalize(path);
  const auto pos = norm.find_last_of('/');
  if (pos == 0 || pos == std::string::npos) return "/";
  return norm.substr(0, pos);
}

std::string basename(std::string_view path) {
  const std::string norm = normalize(path);
  if (norm == "/") return "";
  const auto pos = norm.find_last_of('/');
  return norm.substr(pos + 1);
}

std::vector<std::string> components(std::string_view path) {
  const std::string norm = normalize(path);
  std::vector<std::string> out;
  std::size_t i = 1;  // skip leading '/'
  while (i < norm.size()) {
    const auto next = norm.find('/', i);
    if (next == std::string::npos) {
      out.push_back(norm.substr(i));
      break;
    }
    out.push_back(norm.substr(i, next - i));
    i = next + 1;
  }
  return out;
}

bool is_under(std::string_view path, std::string_view prefix) {
  std::string path_scratch;
  std::string prefix_scratch;
  const std::string_view p = canonical(path, path_scratch);
  const std::string_view pre = canonical(prefix, prefix_scratch);
  if (pre == "/") return true;
  if (p == pre) return true;
  return p.size() > pre.size() && p.compare(0, pre.size(), pre) == 0 &&
         p[pre.size()] == '/';
}

}  // namespace rattrap::fs
