#ifndef HYDER2_COMMON_VARINT_H_
#define HYDER2_COMMON_VARINT_H_

#include <cstdint>
#include <cstring>
#include <string>

namespace hyder {

/// LEB128-style variable-length integer codec used by the intention block
/// serializer. Small values (tree indices, key deltas, short payload lengths)
/// dominate intention encodings, so varints keep intentions compact — the
/// paper notes intention size directly determines meld cost (§1, §6.4.4).

/// Appends `v` to `out` (1–10 bytes).
inline void PutVarint64(std::string* out, uint64_t v) {
  unsigned char buf[10];
  int n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<unsigned char>(v) | 0x80;
    v >>= 7;
  }
  buf[n++] = static_cast<unsigned char>(v);
  out->append(reinterpret_cast<char*>(buf), n);
}

/// Decodes a varint from [p, limit); returns the byte past the encoding or
/// nullptr on truncation/overflow. `*value` receives the decoded integer.
inline const char* GetVarint64(const char* p, const char* limit,
                               uint64_t* value) {
  uint64_t result = 0;
  for (int shift = 0; shift <= 63 && p < limit; shift += 7) {
    uint64_t byte = static_cast<unsigned char>(*p++);
    if (byte & 0x80) {
      result |= (byte & 0x7f) << shift;
    } else {
      result |= byte << shift;
      *value = result;
      return p;
    }
  }
  return nullptr;
}

/// ZigZag mapping so small negative deltas also encode compactly.
inline uint64_t ZigZagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigZagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Fixed-width little-endian 32-bit, for block headers where random access
/// matters more than compactness.
inline void PutFixed32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}
inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

}  // namespace hyder

#endif  // HYDER2_COMMON_VARINT_H_
