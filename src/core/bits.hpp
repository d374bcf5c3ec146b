// Bit-level serialisation for the control-channel packets.
//
// The control channel is bit-serial (one bit per clock tick), so the
// collection/distribution packets are defined as exact bit layouts
// (paper Fig. 4-5).  BitWriter/BitReader give MSB-first packing so the
// encoded frames are byte-for-byte testable and their length in bits is
// exactly the control-channel occupancy used in the timing model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace ccredf::core {

class BitWriter {
 public:
  /// Appends the low `width` bits of `value`, MSB first.
  void write(std::uint64_t value, unsigned width) {
    CCREDF_EXPECT(width <= 64, "BitWriter: width > 64");
    for (unsigned i = width; i > 0; --i) {
      push_bit(((value >> (i - 1)) & 1u) != 0);
    }
  }

  void push_bit(bool b) {
    const std::size_t byte = nbits_ / 8;
    if (byte >= bytes_.size()) bytes_.push_back(0);
    if (b) bytes_[byte] = static_cast<std::uint8_t>(
        bytes_[byte] | (0x80u >> (nbits_ % 8)));
    ++nbits_;
  }

  [[nodiscard]] std::size_t bit_count() const { return nbits_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t nbits_ = 0;
};

class BitReader {
 public:
  /// Reads the first `nbits` bits of `bytes`, which must hold them all.
  BitReader(const std::vector<std::uint8_t>& bytes, std::size_t nbits)
      : bytes_(bytes), nbits_(nbits) {
    CCREDF_EXPECT(nbits <= bytes.size() * 8,
                  "BitReader: bit count exceeds the buffer");
  }

  /// Reads `width` bits, MSB first.
  [[nodiscard]] std::uint64_t read(unsigned width) {
    CCREDF_EXPECT(width <= 64, "BitReader: width > 64");
    std::uint64_t v = 0;
    for (unsigned i = 0; i < width; ++i) {
      v = (v << 1) | (pop_bit() ? 1u : 0u);
    }
    return v;
  }

  [[nodiscard]] bool pop_bit() {
    CCREDF_EXPECT(pos_ < nbits_, "BitReader: read past end");
    const bool b =
        (bytes_[pos_ / 8] & (0x80u >> (pos_ % 8))) != 0;
    ++pos_;
    return b;
  }

  [[nodiscard]] std::size_t remaining() const { return nbits_ - pos_; }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t nbits_;
  std::size_t pos_ = 0;
};

/// Bit-serial CRC-8 (polynomial 0x07 = x^8 + x^2 + x + 1, init 0).
///
/// The control channel is bit-serial, so the frame-integrity extension
/// (FrameCodec with_crc) defines its checksum over the *bit* sequence of
/// a frame, not over padded bytes; a receiver clocks each arriving bit
/// through this register and compares against the trailing CRC field.
/// The polynomial detects every single-bit error and every burst of at
/// most 8 bits -- the error shapes a fibre-ribbon control link actually
/// produces.
class Crc8 {
 public:
  void push_bit(bool b) {
    const bool msb = (crc_ & 0x80u) != 0;
    crc_ = static_cast<std::uint8_t>(crc_ << 1);
    if (msb != b) crc_ ^= 0x07u;
  }

  [[nodiscard]] std::uint8_t value() const { return crc_; }

 private:
  std::uint8_t crc_ = 0;
};

/// CRC-8 over bits [first, first + nbits) of an MSB-first packed buffer
/// (the layout BitWriter produces).
[[nodiscard]] inline std::uint8_t crc8_bits(
    const std::vector<std::uint8_t>& bytes, std::size_t first,
    std::size_t nbits) {
  CCREDF_EXPECT((first + nbits + 7) / 8 <= bytes.size(),
                "crc8_bits: range past end of buffer");
  Crc8 c;
  for (std::size_t i = first; i < first + nbits; ++i) {
    c.push_bit((bytes[i / 8] & (0x80u >> (i % 8))) != 0);
  }
  return c.value();
}

/// ceil(log2(n)) for n >= 1 -- width of the hp-node index field (Fig. 5).
[[nodiscard]] constexpr unsigned index_bits(std::uint64_t n) {
  unsigned b = 0;
  std::uint64_t v = 1;
  while (v < n) {
    v <<= 1;
    ++b;
  }
  return b == 0 ? 1 : b;
}

}  // namespace ccredf::core
