// Little-endian byte codec primitives for the RPC wire protocol.
//
// ByteWriter appends fixed-width integers, IEEE doubles and
// length-prefixed strings to a growable byte vector; ByteReader walks
// the same layout with a sticky failure flag instead of exceptions, so
// frame decoders can chain reads and check ok()/done() once at the end
// (docs/RPC.md).  Hostile input never reads out of bounds: every read
// checks the remaining window first.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace rattrap::rpc {

class ByteWriter {
 public:
  explicit ByteWriter(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }

  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }

  /// u32 byte length + raw bytes (no terminator).
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  /// Grows the vector once per field, not once per byte: result
  /// chunks are written a few hundred fields per outcome.
  template <typename T>
  void put(T v) {
    const std::size_t at = out_.size();
    out_.resize(at + sizeof v);
    for (std::size_t i = 0; i < sizeof v; ++i) {
      out_[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::vector<std::uint8_t>& out_;
};

class ByteReader {
 public:
  ByteReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_++];
  }

  [[nodiscard]] std::uint16_t u16() {
    if (!take(2)) return 0;
    std::uint16_t v = 0;
    for (int i = 0; i < 2; ++i) {
      v = static_cast<std::uint16_t>(v | (std::uint16_t{data_[pos_ + i]} << (8 * i)));
    }
    pos_ += 2;
    return v;
  }

  [[nodiscard]] std::uint32_t u32() {
    if (!take(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{data_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return v;
  }

  [[nodiscard]] std::uint64_t u64() {
    if (!take(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{data_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return v;
  }

  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

  [[nodiscard]] double f64() {
    const std::uint64_t bits = u64();
    double v = 0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }

  /// Length-prefixed string; fails (empty result) when the prefix
  /// overruns the buffer or exceeds `max_bytes` — a hostile length
  /// prefix must not allocate gigabytes.
  [[nodiscard]] std::string str(std::size_t max_bytes) {
    const std::uint32_t n = u32();
    if (failed_ || n > max_bytes || !take(n)) {
      failed_ = true;
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  /// True while every read so far stayed in bounds.
  [[nodiscard]] bool ok() const { return !failed_; }
  /// True when the payload was consumed exactly.
  [[nodiscard]] bool done() const { return !failed_ && pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  bool take(std::size_t n) {
    if (failed_ || size_ - pos_ < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

}  // namespace rattrap::rpc
