// MQ arithmetic decoder (ISO/IEC 15444-1 Annex C).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "jp2k/mq.hpp"

namespace cj2k::jp2k {

/// Streaming MQ decoder over a byte buffer.  Reads past the end of the
/// buffer return 0xFF as the standard requires (the decoder then synthesizes
/// 1-bits, which is what makes truncated codewords decodable).
///
/// decode() is inline; only the once-per-byte bytein is a call, and it takes
/// and returns register values, so a decoding loop that copies the decoder
/// into a local, decodes through it and copies it back keeps the registers
/// in machine registers.
class MqDecoder {
 public:
  MqDecoder(const std::uint8_t* data, std::size_t size) { init(data, size); }

  /// (Re)initializes on a new buffer (Annex C INITDEC).
  void init(const std::uint8_t* data, std::size_t size);

  /// Decodes one binary decision in context `cx` (Annex C, Figure C.15).
  int decode(MqContext& cx) {
    const MqStateRow& st = kMqTable[cx.index];
    const std::uint32_t qe = st.qe;
    a_ -= qe;
    if ((c_ >> 16) < qe) {
      // LPS exchange (Figure C.17): the lower sub-interval, so an MPS only
      // when the remaining interval is the smaller one.
      const bool mps = a_ < qe;
      a_ = qe;
      return mps ? mps_exchange(cx, st) : lps_exchange(cx, st);
    }
    c_ -= qe << 16;
    if (a_ & 0x8000) return cx.mps;
    // MPS exchange (Figure C.16).
    return a_ < qe ? lps_exchange(cx, st) : mps_exchange(cx, st);
  }

 private:
  /// Register values after a bytein.
  struct ByteIn {
    std::size_t bp;
    std::uint32_t c;
    int ct;
  };
  /// Annex C, Figure C.18: reads the byte after `bp` into `c`.
  static ByteIn bytein(const std::uint8_t* data, std::size_t size,
                       std::size_t bp, std::uint32_t c);

  int mps_exchange(MqContext& cx, const MqStateRow& st) {
    const int d = cx.mps;
    cx.index = st.nmps;
    renorm();
    return d;
  }

  int lps_exchange(MqContext& cx, const MqStateRow& st) {
    const int d = 1 - cx.mps;
    cx.mps ^= st.sw;
    cx.index = st.nlps;
    renorm();
    return d;
  }

  /// RENORMD: shifts A (and C with it) until A >= 0x8000, reading a byte
  /// each time CT runs out; the shifts between byteins go in one step.
  void renorm() {
    int n = std::countl_zero(a_ | 1) - 16;
    while (n > 0) {
      if (ct_ == 0) {
        const ByteIn r = bytein(data_, size_, bp_, c_);
        bp_ = r.bp;
        c_ = r.c;
        ct_ = r.ct;
      }
      const int k = n < ct_ ? n : ct_;
      a_ <<= k;
      c_ <<= k;
      ct_ -= k;
      n -= k;
    }
  }

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t bp_ = 0;     ///< Index of the "current" byte B.
  std::uint32_t c_ = 0;
  std::uint32_t a_ = 0;
  int ct_ = 0;
};

}  // namespace cj2k::jp2k
