// Offloading protocol messages.
//
// Fig. 3 of the paper decomposes migrated data into three classes: the
// mobile code itself (app files pushed for execution), files and
// parameters specifying the task, and control messages managing the
// offloading procedure.  Results flowing back are accounted separately.
#pragma once

#include <array>
#include <cstdint>

namespace rattrap::net {

enum class MessageType : std::uint8_t {
  kControl = 0,     ///< session management, offload decisions, acks
  kMobileCode = 1,  ///< app (APK/dex) files to execute
  kFileParams = 2,  ///< input files and method parameters
  kResult = 3,      ///< computation results (downstream)
  kReject = 4,      ///< typed admission/recovery rejection (downstream)
};

inline constexpr std::size_t kMessageTypeCount = 5;

/// Wire size of a reject reply: a control-sized frame carrying the
/// RejectReason code, so shed load still costs the device one small
/// downlink message instead of a silent timeout.
inline constexpr std::uint64_t kRejectReplyBytes = 32;

[[nodiscard]] const char* to_string(MessageType type);

struct Message {
  MessageType type = MessageType::kControl;
  std::uint64_t bytes = 0;
};

/// Byte counters per message class and direction.
struct TrafficAccount {
  std::array<std::uint64_t, kMessageTypeCount> up{};    ///< device → cloud
  std::array<std::uint64_t, kMessageTypeCount> down{};  ///< cloud → device

  void record_up(MessageType type, std::uint64_t bytes) {
    up[static_cast<std::size_t>(type)] += bytes;
  }
  void record_down(MessageType type, std::uint64_t bytes) {
    down[static_cast<std::size_t>(type)] += bytes;
  }
  [[nodiscard]] std::uint64_t up_bytes(MessageType type) const {
    return up[static_cast<std::size_t>(type)];
  }
  [[nodiscard]] std::uint64_t down_bytes(MessageType type) const {
    return down[static_cast<std::size_t>(type)];
  }
  [[nodiscard]] std::uint64_t total_up() const {
    std::uint64_t sum = 0;
    for (const auto b : up) sum += b;
    return sum;
  }
  [[nodiscard]] std::uint64_t total_down() const {
    std::uint64_t sum = 0;
    for (const auto b : down) sum += b;
    return sum;
  }

  void merge(const TrafficAccount& other) {
    for (std::size_t i = 0; i < kMessageTypeCount; ++i) {
      up[i] += other.up[i];
      down[i] += other.down[i];
    }
  }
};

}  // namespace rattrap::net
