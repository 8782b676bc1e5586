#include "jp2k/mq_encoder.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"

namespace cj2k::jp2k {

namespace {

/// Register values after a byteout.
struct ByteOut {
  std::uint8_t* bp;
  std::uint32_t c;
  int ct;
};

/// Annex C, Figure C.8: emits the next byte of `c` after the one at `bp`.
/// The byte before the codeword is a zero sentinel, so a carry out of the
/// first byte lands there and is dropped.  Out of line and by value, so the
/// coding loop keeps its registers in machine registers.
[[gnu::noinline]] ByteOut byteout(std::uint8_t* bp, std::uint32_t c) {
  if (*bp == 0xFF) {
    // Bit stuffing after an 0xFF byte: only 7 bits go out.
    *++bp = static_cast<std::uint8_t>(c >> 20);
    return {bp, c & 0xFFFFF, 7};
  }
  if (c >= 0x8000000) {
    // Propagate the carry into the previous byte.
    ++*bp;
    if (*bp == 0xFF) {
      c &= 0x7FFFFFF;
      *++bp = static_cast<std::uint8_t>(c >> 20);
      return {bp, c & 0xFFFFF, 7};
    }
  }
  *++bp = static_cast<std::uint8_t>(c >> 19);
  return {bp, c & 0x7FFFF, 8};
}

}  // namespace

void MqEncoder::reset() {
  buf_.assign(1, 0);
  c_ = 0;
  a_ = 0x8000;
  ct_ = 12;
  bp_ = 0;
  decisions_ = 0;
  flushed_ = false;
}

std::uint8_t* MqEncoder::reserve(std::size_t max_decisions) {
  CJ2K_DCHECK(!flushed_);
  const std::size_t need = bp_ + 1 + 3 * max_decisions;
  if (need > buf_.size()) buf_.resize(std::max(need, 2 * buf_.size()));
  return buf_.data() + bp_;
}

void MqEncoder::code(std::span<const std::uint8_t> symbols,
                     MqContext* contexts) {
  std::uint8_t* bp = reserve(symbols.size());
  std::uint32_t a = a_;
  std::uint32_t c = c_;
  int ct = ct_;
  for (const std::uint8_t s : symbols) {
    MqContext& cx = contexts[s >> 1];
    const MqStateRow& st = kMqTable[cx.index];
    const std::uint32_t qe = st.qe;
    const std::uint32_t lps = (s & 1u) ^ cx.mps;
    a -= qe;
    // RENORME will shift A back to >= 0x8000.  An LPS always needs it; an
    // MPS exactly when A - Qe < 0x8000 (whether or not the exchange below
    // sets A = Qe, as Qe < 0x8000), and only then does the context move.
    // The selects are masks: the outcomes are data-dependent, so branches
    // would mispredict.
    const std::uint32_t moved = 0u - (lps | (a < 0x8000 ? 1u : 0u));
    const std::uint32_t next = st.nmps ^ ((st.nmps ^ st.nlps) & (0u - lps));
    cx.index =
        static_cast<std::uint8_t>(cx.index ^ ((cx.index ^ next) & moved));
    cx.mps = static_cast<std::uint8_t>(cx.mps ^ (lps & st.sw));
    // CODEMPS / CODELPS (Annex C, Figures C.6 and C.7): the coded symbol
    // takes the lower (A = Qe) sub-interval exactly when it is an MPS with
    // A < Qe (conditional exchange) or an LPS with A >= Qe.
    const std::uint32_t lower = 0u - ((a < qe ? 1u : 0u) ^ lps);
    c += qe & ~lower;
    a = (qe & lower) | (a & ~lower);
    int n = std::countl_zero(a | 1) - 16;
    if (n >= ct) [[unlikely]] {
      do {
        a <<= ct;
        c <<= ct;
        n -= ct;
        const ByteOut r = byteout(bp, c);
        bp = r.bp;
        c = r.c;
        ct = r.ct;
      } while (n >= ct);
    }
    a <<= n;
    c <<= n;
    ct -= n;
  }
  a_ = a;
  c_ = c;
  ct_ = ct;
  bp_ = static_cast<std::size_t>(bp - buf_.data());
  decisions_ += symbols.size();
}

void MqEncoder::flush() {
  CJ2K_CHECK_MSG(!flushed_, "MQ encoder flushed twice");
  std::uint8_t* bp = reserve(1);  // room for the two bytes below
  // SETBITS (Figure C.9): fill C with as many 1 bits as possible without
  // leaving the final interval.
  const std::uint32_t tempc = c_ + a_;
  c_ |= 0xFFFF;
  if (c_ >= tempc) c_ -= 0x8000;

  for (int i = 0; i < 2; ++i) {
    c_ <<= ct_;
    const ByteOut r = byteout(bp, c_);
    bp = r.bp;
    c_ = r.c;
    ct_ = r.ct;
  }

  // A terminated segment must not end in 0xFF (it would look like a marker).
  while (bp != buf_.data() && *bp == 0xFF) --bp;
  bp_ = static_cast<std::size_t>(bp - buf_.data());
  flushed_ = true;
}

std::size_t MqEncoder::truncation_length() const {
  // Everything already emitted plus the up-to-27 bits buffered in C and the
  // interval information in A.  The standard's simple conservative bound:
  // bytes_out + ceil((27 - ct) / 8) + 1 extra byte of slack.  We use the
  // tighter and common "bp + 3" style bound relative to emitted bytes.
  const std::size_t pending_bits = static_cast<std::size_t>(27 - ct_);
  return bytes().size() + (pending_bits + 7) / 8 + 1;
}

}  // namespace cj2k::jp2k
