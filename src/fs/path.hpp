// Absolute-path utilities for the simulated filesystems.
//
// Paths are plain strings, always absolute, '/'-separated, normalized (no
// ".", "..", duplicate or trailing slashes).  Keeping paths as normalized
// strings lets layers use ordered maps for cheap prefix scans.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace rattrap::fs {

/// Normalizes a path: collapses "//", resolves "." and "..", strips the
/// trailing slash.  A relative input is treated as rooted at "/".
[[nodiscard]] std::string normalize(std::string_view path);

/// True when `path` is already canonical, i.e. normalize(path) == path:
/// absolute, no empty, "." or ".." component, no trailing slash.
[[nodiscard]] bool is_normalized(std::string_view path);

/// The canonical form of `path` as a view: `path` itself when it is
/// already canonical (no copy), else normalize(path) stored in `scratch`.
[[nodiscard]] inline std::string_view canonical(std::string_view path,
                                                std::string& scratch) {
  if (is_normalized(path)) return path;
  scratch = normalize(path);
  return scratch;
}

/// Joins `base` and `leaf` and normalizes the result.
[[nodiscard]] std::string join(std::string_view base, std::string_view leaf);

/// Parent directory ("/" for "/" and for top-level entries).
[[nodiscard]] std::string parent(std::string_view path);

/// Final component ("" for "/").
[[nodiscard]] std::string basename(std::string_view path);

/// Splits into components; "/" yields an empty vector.
[[nodiscard]] std::vector<std::string> components(std::string_view path);

/// True when `path` equals `prefix` or lies underneath it.
[[nodiscard]] bool is_under(std::string_view path, std::string_view prefix);

}  // namespace rattrap::fs
