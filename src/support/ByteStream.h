//===- support/ByteStream.h - Bounds-checked binary serde -------*- C++ -*-===//
//
// Part of the dataspec project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian binary writer/reader used by the snapshot subsystem's
/// serde layers. ByteWriter appends into a growable buffer; ByteReader
/// walks a read-only span and *never* reads past it — every read is
/// bounds-checked, and the first failure latches an error message so
/// callers can check once at the end instead of after every field.
/// Corrupt or truncated input therefore produces a diagnostic, not UB.
///
/// All integers are written little-endian regardless of host order;
/// floats are written as their IEEE-754 bit pattern, which round-trips
/// NaN payloads and signed zeros exactly (the snapshot round-trip
/// guarantee is bit-identity). Float arrays (reply pixel blocks) move as
/// one memcpy of host bytes, which is the little-endian encoding only on
/// a little-endian host — the same assumption the snapshot arenas'
/// raw-byte sections make, enforced here at compile time.
///
//===----------------------------------------------------------------------===//

#ifndef DATASPEC_SUPPORT_BYTESTREAM_H
#define DATASPEC_SUPPORT_BYTESTREAM_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace dspec {

static_assert(std::endian::native == std::endian::little,
              "float arrays are serialized as raw host bytes");

/// Appends little-endian fields to a byte buffer.
class ByteWriter {
public:
  void writeU8(uint8_t V) { Buffer.push_back(V); }

  void writeU32(uint32_t V) {
    for (int I = 0; I < 4; ++I)
      Buffer.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void writeU64(uint64_t V) {
    for (int I = 0; I < 8; ++I)
      Buffer.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }

  void writeI32(int32_t V) { writeU32(static_cast<uint32_t>(V)); }

  void writeF32(float V) {
    uint32_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    writeU32(Bits);
  }

  /// Length-prefixed UTF-8 string.
  void writeString(const std::string &S) {
    writeU32(static_cast<uint32_t>(S.size()));
    Buffer.insert(Buffer.end(), S.begin(), S.end());
  }

  void writeBytes(const void *Data, size_t Size) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    Buffer.insert(Buffer.end(), P, P + Size);
  }

  /// \p Count floats as consecutive IEEE-754 bit patterns, in one copy.
  void writeF32Array(const float *Values, size_t Count) {
    writeBytes(Values, Count * sizeof(float));
  }

  /// Grows capacity so the next \p Bytes of writes do not reallocate.
  void reserve(size_t Bytes) { Buffer.reserve(Buffer.size() + Bytes); }

  /// Appends zero bytes until size() is a multiple of \p Alignment.
  void alignTo(size_t Alignment) {
    while (Buffer.size() % Alignment != 0)
      Buffer.push_back(0);
  }

  size_t size() const { return Buffer.size(); }
  const std::vector<unsigned char> &bytes() const { return Buffer; }
  std::vector<unsigned char> takeBytes() { return std::move(Buffer); }

private:
  std::vector<unsigned char> Buffer;
};

/// Walks a read-only byte span; reads past the end latch an error and
/// return zero values instead of touching out-of-bounds memory.
class ByteReader {
public:
  ByteReader(const unsigned char *Data, size_t Size)
      : Data(Data), Size(Size) {}
  ByteReader(const std::vector<unsigned char> &Bytes)
      : Data(Bytes.data()), Size(Bytes.size()) {}

  bool ok() const { return !Failed; }
  const std::string &error() const { return ErrorMessage; }
  size_t position() const { return Pos; }
  size_t remaining() const { return Failed ? 0 : Size - Pos; }
  bool atEnd() const { return Failed || Pos == Size; }

  /// Latches a caller-detected semantic error (bad enum value, count out
  /// of range, ...) through the same channel as truncation.
  void fail(const std::string &Message) {
    if (!Failed) {
      Failed = true;
      ErrorMessage = Message;
    }
  }

  uint8_t readU8() {
    if (!require(1))
      return 0;
    return Data[Pos++];
  }

  uint32_t readU32() {
    if (!require(4))
      return 0;
    uint32_t V = 0;
    for (int I = 0; I < 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
    Pos += 4;
    return V;
  }

  uint64_t readU64() {
    if (!require(8))
      return 0;
    uint64_t V = 0;
    for (int I = 0; I < 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return V;
  }

  int32_t readI32() { return static_cast<int32_t>(readU32()); }

  float readF32() {
    uint32_t Bits = readU32();
    float V;
    std::memcpy(&V, &Bits, sizeof(V));
    return V;
  }

  std::string readString() {
    uint32_t Length = readU32();
    if (!require(Length))
      return std::string();
    std::string S(reinterpret_cast<const char *>(Data + Pos), Length);
    Pos += Length;
    return S;
  }

  /// Replaces \p Out with \p Count floats, in one bounds check and one
  /// copy; on truncation leaves \p Out empty. The count is checked
  /// before anything is allocated, so a hostile count cannot become a
  /// giant allocation.
  void readF32Array(std::vector<float> &Out, size_t Count) {
    Out.clear();
    if (Count > SIZE_MAX / sizeof(float)) {
      fail("float array length out of range");
      return;
    }
    size_t Bytes = Count * sizeof(float);
    if (!require(Bytes) || Bytes == 0)
      return;
    Out.resize(Count);
    std::memcpy(Out.data(), Data + Pos, Bytes);
    Pos += Bytes;
  }

  /// Copies \p Count bytes out; on truncation returns an empty vector.
  std::vector<unsigned char> readBytes(size_t Count) {
    if (!require(Count))
      return {};
    std::vector<unsigned char> Out(Data + Pos, Data + Pos + Count);
    Pos += Count;
    return Out;
  }

private:
  bool require(size_t Count) {
    if (Failed)
      return false;
    if (Count > Size - Pos) {
      fail("unexpected end of data at byte " + std::to_string(Pos) +
           " (need " + std::to_string(Count) + " more, have " +
           std::to_string(Size - Pos) + ")");
      return false;
    }
    return true;
  }

  const unsigned char *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;
  std::string ErrorMessage;
};

} // namespace dspec

#endif // DATASPEC_SUPPORT_BYTESTREAM_H
