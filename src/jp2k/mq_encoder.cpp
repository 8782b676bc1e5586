#include "jp2k/mq_encoder.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cj2k::jp2k {

MqCoder::ByteOut MqCoder::emit_byte(std::uint8_t* bp, std::uint32_t c) {
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

void MqEncoder::reset() {
  buf_.assign(1, 0);
  r_ = MqCoder{0, 0x8000, 12, buf_.data(), 0};
  flushed_ = false;
}

MqCoder MqEncoder::begin_run(std::size_t max_decisions) {
  CJ2K_DCHECK(!flushed_);
  const std::size_t used = static_cast<std::size_t>(r_.bp - buf_.data()) + 1;
  const std::size_t need = used + 3 * max_decisions;
  if (need > buf_.size()) {
    buf_.resize(std::max(need, 2 * buf_.size()));
    r_.bp = buf_.data() + (used - 1);
  }
  return r_;
}

void MqEncoder::encode(MqContext& cx, int d) {
  MqCoder coder = begin_run(1);
  coder.encode(cx, d);
  end_run(coder);
}

void MqEncoder::flush() {
  CJ2K_CHECK_MSG(!flushed_, "MQ encoder flushed twice");
  MqCoder r = begin_run(1);  // room for the two bytes below
  // SETBITS (Figure C.9): fill C with as many 1 bits as possible without
  // leaving the final interval.
  const std::uint32_t tempc = r.c + r.a;
  r.c |= 0xFFFF;
  if (r.c >= tempc) r.c -= 0x8000;

  r.c <<= r.ct;
  r.byteout();
  r.c <<= r.ct;
  r.byteout();

  // A terminated segment must not end in 0xFF (it would look like a marker).
  while (r.bp != buf_.data() && *r.bp == 0xFF) --r.bp;
  end_run(r);
  flushed_ = true;
}

std::size_t MqEncoder::truncation_length() const {
  // Everything already emitted plus the up-to-27 bits buffered in C and the
  // interval information in A.  The standard's simple conservative bound:
  // bytes_out + ceil((27 - ct) / 8) + 1 extra byte of slack.  We use the
  // tighter and common "bp + 3" style bound relative to emitted bytes.
  const std::size_t pending_bits = static_cast<std::size_t>(27 - r_.ct);
  return bytes().size() + (pending_bits + 7) / 8 + 1;
}

}  // namespace cj2k::jp2k
