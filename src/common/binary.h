// Little-endian binary encoding with whole-file CRC32 integrity checking.
// BinaryWriter accumulates an in-memory buffer and appends a CRC32 footer
// when flushed to disk; BinaryReader memory-loads a file, verifies the
// footer, and serves bounds-checked reads. All multi-byte values are
// little-endian regardless of host order, so files are portable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace rl4oasd {

/// CRC-32 (IEEE 802.3 polynomial, reflected) of a byte range.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// Serializes primitives into a growable byte buffer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteF32(float v);
  void WriteF64(double v);
  /// Length-prefixed (u32) byte string.
  void WriteString(std::string_view s);
  void WriteBytes(const void* data, size_t n);

  /// `n` floats, little-endian, without a length prefix: one append on a
  /// little-endian host.
  void WriteF32Array(const float* v, size_t n);

  /// Convenience: length-prefixed vector of fixed-width values.
  void WriteI32Vector(const std::vector<int32_t>& v);
  void WriteF32Vector(const std::vector<float>& v);

  size_t size() const { return buf_.size(); }
  const std::string& buffer() const { return buf_; }

  /// Writes `buffer() + CRC32(buffer())` to `path` (atomic via rename from a
  /// sibling temporary file).
  Status WriteToFile(const std::string& path) const;

 private:
  std::string buf_;
};

/// Deserializes primitives from a byte buffer with bounds checking. Every
/// read returns OutOfRange past the end — corrupt or truncated input can
/// never read out of bounds.
class BinaryReader {
 public:
  /// Wraps an in-memory buffer (no CRC verification).
  explicit BinaryReader(std::string buf) : buf_(std::move(buf)) {}

  /// Loads `path`, verifies and strips the CRC32 footer.
  static Result<BinaryReader> OpenFile(const std::string& path);

  Status ReadU8(uint8_t* v);
  Status ReadU32(uint32_t* v);
  Status ReadU64(uint64_t* v);
  Status ReadI32(int32_t* v);
  Status ReadI64(int64_t* v);
  Status ReadF32(float* v);
  Status ReadF64(double* v);
  /// Reads a length-prefixed string; the length is validated against the
  /// remaining payload before allocation.
  Status ReadString(std::string* s);
  Status ReadBytes(void* out, size_t n);

  /// Reads `n` floats written by WriteF32Array: one bounds check, then one
  /// copy on a little-endian host. Nothing is written to `out` on failure.
  Status ReadF32Array(float* out, size_t n);

  Status ReadI32Vector(std::vector<int32_t>* v);
  Status ReadF32Vector(std::vector<float>* v);

  size_t remaining() const { return buf_.size() - pos_; }
  bool AtEnd() const { return pos_ == buf_.size(); }

 private:
  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace rl4oasd
