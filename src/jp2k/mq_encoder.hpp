// MQ arithmetic encoder (ISO/IEC 15444-1 Annex C software conventions).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "jp2k/mq.hpp"

namespace cj2k::jp2k {

/// The MQ coder's registers and output cursor.  The per-decision path
/// (encode, renorm) is inline; only the once-per-byte byteout is a call, and
/// it takes and returns register values, so a coding loop that copies the
/// registers into a local (MqEncoder::begin_run), codes through it and hands
/// it back (MqEncoder::end_run) keeps them in machine registers.  The buffer
/// must have room for every byte the run emits; begin_run() guarantees that.
struct MqCoder {
  std::uint32_t c;           ///< Code register.
  std::uint32_t a;           ///< Interval register.
  int ct;                    ///< Bits until next byteout.
  std::uint8_t* bp;          ///< Last byte written (register B).
  std::uint64_t decisions;   ///< Decisions coded so far.

  /// Encodes one binary decision `d` (0/1) in context `cx`.
  void encode(MqContext& cx, int d) {
    ++decisions;
    const MqStateRow& st = kMqTable[cx.index];
    const std::uint32_t qe = st.qe;
    const bool lps = d != cx.mps;
    a -= qe;
    // CODEMPS / CODELPS (Annex C, Figures C.6 and C.7): the coded symbol
    // takes the lower (A = Qe) sub-interval exactly when it is an MPS with
    // A < Qe (conditional exchange) or an LPS with A >= Qe.
    const bool lower = (a < qe) != lps;
    c += lower ? 0 : qe;
    a = lower ? qe : a;
    if (a & 0x8000) return;  // an MPS that needs no renormalization
    cx.index = lps ? st.nlps : st.nmps;
    cx.mps ^= static_cast<std::uint8_t>(lps & st.sw);
    renorm();
  }

  /// RENORME: shifts A (and C with it) until A >= 0x8000, emitting a byte
  /// each time CT runs out; the shifts between byteouts go in one step.
  void renorm() {
    int n = std::countl_zero(a) - 16;
    while (n >= ct) {
      a <<= ct;
      c <<= ct;
      n -= ct;
      byteout();
    }
    a <<= n;
    c <<= n;
    ct -= n;
  }

  /// Annex C, Figure C.8: emits the next byte of `c` after the one at `bp`
  /// and returns the new cursor, C and CT.  The byte before the codeword is
  /// a zero sentinel, so a carry out of the first byte lands there and is
  /// dropped.
  struct ByteOut {
    std::uint8_t* bp;
    std::uint32_t c;
    int ct;
  };
  static ByteOut emit_byte(std::uint8_t* bp, std::uint32_t c);

  void byteout() {
    const ByteOut r = emit_byte(bp, c);
    bp = r.bp;
    c = r.c;
    ct = r.ct;
  }
};

/// Streaming MQ encoder: owns the codeword buffer and the coder registers.
/// Contexts live outside the coder (they belong to the Tier-1 code-block
/// state) and are passed per decision.
class MqEncoder {
 public:
  MqEncoder() { reset(); }

  /// Re-initializes coder state and clears the output buffer.
  void reset();

  /// Encodes one binary decision `d` (0/1) in context `cx`.
  void encode(MqContext& cx, int d);

  /// Grows the buffer so `max_decisions` more decisions cannot overflow it
  /// (one decision emits at most 3 bytes) and returns the registers to code
  /// them through.  Pass them back with end_run() before any other call.
  MqCoder begin_run(std::size_t max_decisions);
  void end_run(const MqCoder& coder) { r_ = coder; }

  /// Terminates the codeword (Annex C FLUSH) so the emitted bytes decode
  /// unambiguously.  Must be called exactly once, after the last encode().
  void flush();

  /// Bytes emitted so far.  Only final after flush().
  std::span<const std::uint8_t> bytes() const {
    return {buf_.data() + 1, static_cast<std::size_t>(r_.bp - buf_.data())};
  }

  /// Number of bytes the codeword would occupy if truncated after the
  /// decision stream seen so far (Tier-1 uses this to place pass boundaries
  /// without terminating every pass).  This is the conservative estimate of
  /// Taubman's "length computation": all buffered state counts.
  std::size_t truncation_length() const;

  /// Total decisions encoded (instrumentation for the cost models).
  std::uint64_t decisions() const { return r_.decisions; }

 private:
  MqCoder r_{};
  bool flushed_ = false;
  std::vector<std::uint8_t> buf_;  ///< buf_[0] is the sentinel byte.
};

}  // namespace cj2k::jp2k
