// MQ arithmetic encoder (ISO/IEC 15444-1 Annex C software conventions).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "jp2k/mq.hpp"

namespace cj2k::jp2k {

/// Streaming MQ encoder: owns the codeword buffer and the coder registers.
/// Contexts live outside the coder (they belong to the Tier-1 code-block
/// state) and are passed with each run of decisions.
class MqEncoder {
 public:
  MqEncoder() { reset(); }

  /// Re-initializes coder state and clears the output buffer.
  void reset();

  /// Codes a run of decisions in order: byte `s` is decision `s & 1` in
  /// context `contexts[s >> 1]`, the encoding of the Tier-1 symbol buffer.
  /// The registers stay in locals for the whole run; the only branch per
  /// decision is the one that takes a byteout.
  void code(std::span<const std::uint8_t> symbols, MqContext* contexts);

  /// Encodes one binary decision `d` (0/1) in context `cx`.
  void encode(MqContext& cx, int d) {
    const auto s = static_cast<std::uint8_t>(d);
    code({&s, 1}, &cx);
  }

  /// Terminates the codeword (Annex C FLUSH) so the emitted bytes decode
  /// unambiguously.  Must be called exactly once, after the last decision.
  void flush();

  /// Bytes emitted so far.  Only final after flush().
  std::span<const std::uint8_t> bytes() const {
    return {buf_.data() + 1, bp_};
  }

  /// Number of bytes the codeword would occupy if truncated after the
  /// decision stream seen so far (Tier-1 uses this to place pass boundaries
  /// without terminating every pass).  This is the conservative estimate of
  /// Taubman's "length computation": all buffered state counts.
  std::size_t truncation_length() const;

  /// Total decisions encoded (instrumentation for the cost models).
  std::uint64_t decisions() const { return decisions_; }

 private:
  /// Grows the buffer so `max_decisions` more decisions cannot overflow it
  /// (one decision emits at most 3 bytes) and returns register B's byte.
  std::uint8_t* reserve(std::size_t max_decisions);

  std::uint32_t c_ = 0;           ///< Code register.
  std::uint32_t a_ = 0;           ///< Interval register.
  int ct_ = 0;                    ///< Bits until next byteout.
  std::size_t bp_ = 0;            ///< Index of the last byte written (B).
  std::uint64_t decisions_ = 0;   ///< Decisions coded so far.
  bool flushed_ = false;
  std::vector<std::uint8_t> buf_;  ///< buf_[0] is the sentinel byte.
};

}  // namespace cj2k::jp2k
