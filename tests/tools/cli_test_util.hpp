// Helper for CLI contract tests: run a tool binary through the shell,
// capturing combined stdout+stderr and the exit code.  The binary paths
// come from compile definitions (RATTRAP_LOADGEN_BIN, ...), resolved by
// CMake via $<TARGET_FILE:...> so the tests always drive the binaries
// they were built with.
#pragma once

#include <sys/wait.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

namespace rattrap::clitest {

struct CommandResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr, interleaved

  [[nodiscard]] bool contains(const std::string& needle) const {
    return output.find(needle) != std::string::npos;
  }
};

/// Runs `command` via popen ("2>&1" appended); exit_code -1 on failure
/// to launch or abnormal termination.
inline CommandResult run_command(const std::string& command) {
  CommandResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

/// The whole file at `path` ("" when unreadable).
inline std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The value after `key=` on the first matching line, or "".
inline std::string extract_value(const std::string& output,
                                 const std::string& key) {
  const std::string needle = key + "=";
  std::size_t at = output.find(needle);
  if (at == std::string::npos) return "";
  at += needle.size();
  const std::size_t end = output.find('\n', at);
  return output.substr(at, end == std::string::npos ? std::string::npos
                                                    : end - at);
}

}  // namespace rattrap::clitest
