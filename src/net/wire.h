// Binary wire format for protocol messages.
//
// The simulator never serializes (payloads move as C++ objects and only
// their modeled size is charged), but the TCP transport binding sends
// real bytes. Encoding: little-endian fixed-width integers, length-
// prefixed lists, one type byte selecting the Payload alternative, and
// a trailing CRC-32 over everything before it:
//
//   [u32 from][u32 to][u8 typeIndex][fields...][u32 crc32]
//
// Piggybacked object data is represented by its byte count only (the
// simulator's object "contents" are synthetic); a production deployment
// would append the blob after the header.
//
// decodeMessage() is safe on untrusted input: the checksum is verified
// before any field is parsed, every read is bounds-checked, and list
// lengths are validated against the remaining buffer. A truncated or
// bit-flipped frame is rejected (nullopt), never misparsed into a
// valid-looking message.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.h"

namespace vlease::net {

/// Append-only little-endian encoder.
class WireWriter {
 public:
  explicit WireWriter(std::size_t reserveBytes = 0) {
    bytes_.reserve(reserveBytes);
  }

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  /// Overwrite the four bytes at `pos` (already written) with `v`.
  void patchU32(std::size_t pos, std::uint32_t v);

  std::size_t size() const { return bytes_.size(); }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian decoder. After any failed read, ok()
/// turns false and every subsequent read returns zero.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }

  bool ok() const { return ok_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  bool need(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// CRC-32 (IEEE 802.3, reflected) over `size` bytes. Exposed so tests
/// and tools can seal hand-crafted frames.
std::uint32_t wireChecksum(const std::uint8_t* data, std::size_t size);

/// Serialize a message (header + payload + trailing checksum).
std::vector<std::uint8_t> encodeMessage(const Message& msg);

/// encodeMessage() behind its u32 length prefix -- one stream frame, as
/// rt::TcpTransport sends it -- built in a single buffer.
std::vector<std::uint8_t> encodeFrame(const Message& msg);

/// Parse; nullopt on any malformed input (truncation, checksum
/// mismatch, bad type byte, oversized list).
std::optional<Message> decodeMessage(const std::uint8_t* data,
                                     std::size_t size);

}  // namespace vlease::net
