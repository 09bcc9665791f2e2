#include "common/binary.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>

namespace rl4oasd {

namespace {

using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: table 0 is
/// the classic bytewise table, and table s advances a byte's contribution
/// through s more zero bytes, so eight table lookups fold eight input bytes
/// into the register at once (Kounavis & Berry, 2008).
constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t s = 1; s < 8; ++s) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc32Tables = MakeCrc32Tables();

/// Little-endian 32-bit load from unaligned bytes (one mov on x86).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const Crc32Tables& t = kCrc32Tables;
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    // Byte b of the block sits 7 - b bytes before the block's end.
    const uint32_t lo = LoadLe32(p) ^ c;
    const uint32_t hi = LoadLe32(p + 4);
    c = 0;
    for (int b = 0; b < 4; ++b) {
      const int shift = 8 * b;
      c ^= t[7 - b][(lo >> shift) & 0xFFu] ^ t[3 - b][(hi >> shift) & 0xFFu];
    }
  }
  for (; n > 0; --n, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void BinaryWriter::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void BinaryWriter::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFFu));
  }
}

void BinaryWriter::WriteF32(float v) {
  static_assert(sizeof(float) == 4);
  uint32_t bits;
  std::memcpy(&bits, &v, 4);
  WriteU32(bits);
}

void BinaryWriter::WriteF64(double v) {
  static_assert(sizeof(double) == 8);
  uint64_t bits;
  std::memcpy(&bits, &v, 8);
  WriteU64(bits);
}

void BinaryWriter::WriteString(std::string_view s) {
  WriteU32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void BinaryWriter::WriteBytes(const void* data, size_t n) {
  if (n == 0) return;  // data may be null for empty writes
  buf_.append(static_cast<const char*>(data), n);
}

void BinaryWriter::WriteI32Vector(const std::vector<int32_t>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  for (int32_t x : v) WriteI32(x);
}

void BinaryWriter::WriteF32Array(const float* v, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    WriteBytes(v, n * sizeof(float));
  } else {
    for (size_t i = 0; i < n; ++i) WriteF32(v[i]);
  }
}

void BinaryWriter::WriteF32Vector(const std::vector<float>& v) {
  WriteU32(static_cast<uint32_t>(v.size()));
  WriteF32Array(v.data(), v.size());
}

Status BinaryWriter::WriteToFile(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open for writing: " + tmp);
  }
  const uint32_t crc = Crc32(buf_.data(), buf_.size());
  bool ok = std::fwrite(buf_.data(), 1, buf_.size(), f) == buf_.size();
  char footer[4];
  for (int i = 0; i < 4; ++i) {
    footer[i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
  }
  ok = ok && std::fwrite(footer, 1, 4, f) == 4;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IOError("short write: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename into place: " + path);
  }
  return Status::OK();
}

Result<BinaryReader> BinaryReader::OpenFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IOError("cannot open: " + path);
  }
  std::string buf;
  char chunk[1 << 16];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    buf.append(chunk, n);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::IOError("read error: " + path);
  }
  if (buf.size() < 4) {
    return Status::IOError("file too short for CRC footer: " + path);
  }
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(
                  static_cast<unsigned char>(buf[buf.size() - 4 + i]))
              << (8 * i);
  }
  buf.resize(buf.size() - 4);
  const uint32_t actual = Crc32(buf.data(), buf.size());
  if (stored != actual) {
    return Status::IOError("CRC mismatch (corrupt file): " + path);
  }
  return BinaryReader(std::move(buf));
}

Status BinaryReader::ReadBytes(void* out, size_t n) {
  if (remaining() < n) {
    return Status::OutOfRange("read past end of buffer");
  }
  if (n == 0) return Status::OK();  // out may be null for empty reads
  std::memcpy(out, buf_.data() + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status BinaryReader::ReadU8(uint8_t* v) { return ReadBytes(v, 1); }

Status BinaryReader::ReadU32(uint32_t* v) {
  unsigned char b[4];
  RL4_RETURN_NOT_OK(ReadBytes(b, 4));
  *v = 0;
  for (int i = 0; i < 4; ++i) *v |= static_cast<uint32_t>(b[i]) << (8 * i);
  return Status::OK();
}

Status BinaryReader::ReadU64(uint64_t* v) {
  unsigned char b[8];
  RL4_RETURN_NOT_OK(ReadBytes(b, 8));
  *v = 0;
  for (int i = 0; i < 8; ++i) *v |= static_cast<uint64_t>(b[i]) << (8 * i);
  return Status::OK();
}

Status BinaryReader::ReadI32(int32_t* v) {
  uint32_t u;
  RL4_RETURN_NOT_OK(ReadU32(&u));
  *v = static_cast<int32_t>(u);
  return Status::OK();
}

Status BinaryReader::ReadI64(int64_t* v) {
  uint64_t u;
  RL4_RETURN_NOT_OK(ReadU64(&u));
  *v = static_cast<int64_t>(u);
  return Status::OK();
}

Status BinaryReader::ReadF32(float* v) {
  uint32_t bits;
  RL4_RETURN_NOT_OK(ReadU32(&bits));
  std::memcpy(v, &bits, 4);
  return Status::OK();
}

Status BinaryReader::ReadF64(double* v) {
  uint64_t bits;
  RL4_RETURN_NOT_OK(ReadU64(&bits));
  std::memcpy(v, &bits, 8);
  return Status::OK();
}

Status BinaryReader::ReadString(std::string* s) {
  uint32_t len;
  RL4_RETURN_NOT_OK(ReadU32(&len));
  if (remaining() < len) {
    return Status::OutOfRange("string length exceeds remaining payload");
  }
  s->assign(buf_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status BinaryReader::ReadI32Vector(std::vector<int32_t>* v) {
  uint32_t len;
  RL4_RETURN_NOT_OK(ReadU32(&len));
  if (remaining() < static_cast<size_t>(len) * 4) {
    return Status::OutOfRange("vector length exceeds remaining payload");
  }
  v->resize(len);
  for (uint32_t i = 0; i < len; ++i) RL4_RETURN_NOT_OK(ReadI32(&(*v)[i]));
  return Status::OK();
}

Status BinaryReader::ReadF32Array(float* out, size_t n) {
  if constexpr (std::endian::native == std::endian::little) {
    return ReadBytes(out, n * sizeof(float));
  } else {
    if (remaining() / sizeof(float) < n) {
      return Status::OutOfRange("read past end of buffer");
    }
    for (size_t i = 0; i < n; ++i) RL4_RETURN_NOT_OK(ReadF32(&out[i]));
    return Status::OK();
  }
}

Status BinaryReader::ReadF32Vector(std::vector<float>* v) {
  uint32_t len;
  RL4_RETURN_NOT_OK(ReadU32(&len));
  if (remaining() < static_cast<size_t>(len) * 4) {
    return Status::OutOfRange("vector length exceeds remaining payload");
  }
  v->resize(len);
  return ReadF32Array(v->data(), len);
}

}  // namespace rl4oasd
