#ifndef HYDER2_TXN_WIRE_FORMAT_H_
#define HYDER2_TXN_WIRE_FORMAT_H_

#include <cstddef>
#include <cstdint>

/// Wire-format constants shared by the block serializer (codec.cc) and the
/// flat-payload view (flat_view.cc). Layout documentation lives in
/// DESIGN.md ("Intention wire format");
/// hyder-check's codec-symmetry rule audits that every constant here is
/// referenced on both the serialize and the deserialize side.

namespace hyder {

/// Node flag byte layout on the wire.
enum WireFlags : uint8_t {
  kWireAltered = 1u << 0,
  kWireRead = 1u << 1,
  kWireSubtreeRead = 1u << 2,
  kWireRed = 1u << 3,
  kWireLeftPresent = 1u << 4,
  kWireLeftInternal = 1u << 5,
  kWireRightPresent = 1u << 6,
  kWireRightInternal = 1u << 7,
};

/// Format prefix of every intention payload: two magic bytes, then the
/// format version. A payload that does not start with it is DataLoss.
constexpr uint8_t kWireFlatMagic0 = 0x80;
constexpr uint8_t kWireFlatMagic1 = 0x00;
constexpr uint8_t kWireFlatVersion = 3;

/// Bytes of the format prefix (magic0, magic1, version).
constexpr size_t kWireFlatPrefixBytes = 3;

}  // namespace hyder

#endif  // HYDER2_TXN_WIRE_FORMAT_H_
