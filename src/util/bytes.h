#pragma once

// Byte-buffer primitives shared by every wire-facing module.
//
// All multi-byte integers on RNL wires are big-endian (network byte order);
// ByteWriter/ByteReader make that explicit so no packet code ever touches
// htons/htonl or performs unaligned loads.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace rnl::util {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Appends big-endian encoded fields to a growable buffer.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buffer_.reserve(reserve); }

  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(BytesView bytes);
  void raw(const void* data, std::size_t len);
  /// Length-prefixed (u16) UTF-8 string; throws std::length_error if > 64 KiB.
  void str16(std::string_view s);

  /// Overwrites a previously written u16 at `offset` (e.g. a length field
  /// whose value is only known once the payload has been appended).
  void patch_u16(std::size_t offset, std::uint16_t v);
  void patch_u32(std::size_t offset, std::uint32_t v);

  /// Empties the buffer but keeps its capacity, so a writer reused across
  /// messages stops allocating once it has seen the largest one (the
  /// data-plane send buffers depend on this).
  void clear() { buffer_.clear(); }
  void reserve(std::size_t n) { buffer_.reserve(n); }
  [[nodiscard]] std::size_t capacity() const { return buffer_.capacity(); }

  [[nodiscard]] std::size_t size() const { return buffer_.size(); }
  [[nodiscard]] BytesView view() const { return buffer_; }
  [[nodiscard]] Bytes take() && { return std::move(buffer_); }
  [[nodiscard]] const Bytes& bytes() const { return buffer_; }

 private:
  Bytes buffer_;
};

/// Reads big-endian encoded fields from a non-owning view. All accessors are
/// bounds-checked: reading past the end marks the reader failed and returns
/// zeroes, so parsers can check ok() once at the end (monotonic failure).
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  /// Reads exactly `len` bytes; returns an empty view on underrun.
  BytesView raw(std::size_t len);
  /// Reads a u16 length-prefixed string written by ByteWriter::str16.
  std::string str16();
  void skip(std::size_t len);

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - offset_; }
  [[nodiscard]] std::size_t offset() const { return offset_; }
  /// Everything not yet consumed.
  [[nodiscard]] BytesView rest() const { return data_.subspan(offset_); }

 private:
  bool require(std::size_t len);

  BytesView data_;
  std::size_t offset_ = 0;
  bool ok_ = true;
};

/// Canonical debugging rendering: "de:ad:be:ef" style, two hex digits per
/// byte, ':'-separated. Empty input renders as "".
std::string to_hex(BytesView bytes);

/// Parses the to_hex format back into bytes.
Result<Bytes> from_hex(std::string_view text);

/// Multi-line hex+ASCII dump (16 bytes per row) for packet traces.
std::string hex_dump(BytesView bytes);

}  // namespace rnl::util
