// HT cleanup-pass block coder (see ht_block.hpp for the segment layout and
// the simplifications relative to ISO/IEC 15444-15).
#include "jp2k/ht_block.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "jp2k/codestream.hpp"

namespace cj2k::jp2k {
namespace {

// ---------------------------------------------------------------------------
// Bit I/O.  All three streams are LSB-first within a byte and carry no bit
// stuffing, so each is one little-endian bit string: packing n bits at once
// into a 64-bit accumulator and storing whole 32-bit words writes exactly
// the bytes a bit-at-a-time writer would, and a reader refilling 32 bits at
// a time reads exactly the bits a bit-at-a-time reader would.  The VLC
// stream is byte-reversed at assembly and read backward byte by byte, so its
// per-byte bit order is unchanged.

inline std::uint32_t byteswap32(std::uint32_t v) {
  return (v >> 24) | ((v >> 8) & 0xFF00u) | ((v << 8) & 0xFF0000u) | (v << 24);
}

/// Stores `v` at `p`, least significant byte first.
inline void store_le32(std::uint8_t* p, std::uint32_t v) {
  if constexpr (std::endian::native == std::endian::big) v = byteswap32(v);
  std::memcpy(p, &v, 4);
}

/// The 4 bytes at `p` as a little-endian word.
inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  if constexpr (std::endian::native == std::endian::big) v = byteswap32(v);
  return v;
}

/// Word-wide writer into a caller-sized buffer, which must hold the final
/// stream rounded up to a whole word plus one spare word.
class BitWriter {
 public:
  explicit BitWriter(std::uint8_t* out) : begin_(out), out_(out) {}

  /// Appends the low `n` bits of `v` (n <= 32, v < 2^n), first bit first.
  void put_bits(std::uint32_t v, int n) {
    acc_ |= std::uint64_t{v} << nbits_;
    nbits_ += n;
    if (nbits_ >= 32) {
      store_le32(out_, static_cast<std::uint32_t>(acc_));
      out_ += 4;
      acc_ >>= 32;
      nbits_ -= 32;
    }
  }

  /// Pads the final partial byte with zero bits; returns the stream length.
  std::size_t flush() {
    store_le32(out_, static_cast<std::uint32_t>(acc_));
    return static_cast<std::size_t>(out_ - begin_) +
           static_cast<std::size_t>(nbits_ + 7) / 8;
  }

 private:
  std::uint8_t* begin_;
  std::uint8_t* out_;
  std::uint64_t acc_ = 0;
  int nbits_ = 0;
};

/// Word-wide reader over the `size` bytes at `data`, forward from the first
/// or (kBackward) from the last toward the first; bits within a byte are
/// LSB-first either way.  Reads past the range yield 0 bits (mirrors the MQ
/// decoder's defensive tail behavior).
template <bool kBackward>
class BitReader {
 public:
  BitReader(const std::uint8_t* data, std::size_t size)
      : data_(data), left_(size) {}

  /// The next `n` bits (n <= 32), the first in the least significant place.
  std::uint32_t get_bits(int n) {
    if (avail_ < n) refill();
    const auto v =
        static_cast<std::uint32_t>(buf_ & ((std::uint64_t{1} << n) - 1));
    buf_ >>= n;
    avail_ -= n;
    return v;
  }

  unsigned get() { return get_bits(1); }

 private:
  /// Appends the next 32 bits of the range, zeros past its end.
  void refill() {
    std::uint32_t w = 0;
    if (left_ >= 4) {
      left_ -= 4;
      if constexpr (kBackward) {
        w = byteswap32(load_le32(data_ + left_));
      } else {
        w = load_le32(data_);
        data_ += 4;
      }
    } else {
      for (int k = 0; left_ > 0; ++k) {
        --left_;
        const std::uint8_t b = kBackward ? data_[left_] : *data_++;
        w |= std::uint32_t{b} << (8 * k);
      }
    }
    buf_ |= std::uint64_t{w} << avail_;
    avail_ += 32;
  }

  const std::uint8_t* data_;
  std::size_t left_;
  std::uint64_t buf_ = 0;
  int avail_ = 0;
};

// ---------------------------------------------------------------------------
// MEL coder: the standard's 13-state adaptive run-length coder for the
// significance of zero-context quads.  A full run of 2^E[k] insignificant
// quads emits a lone 1-bit; a significant quad interrupts the run with a
// 0-bit followed by E[k] raw bits of the partial run length.

constexpr int kMelStates = 13;
constexpr int kMelExponent[kMelStates] = {0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5};

class MelEncoder {
 public:
  explicit MelEncoder(BitWriter& out) : out_(out) {}

  void encode(bool significant) {
    const int e = kMelExponent[state_];
    if (!significant) {
      if (++run_ == (1 << e)) {
        out_.put_bits(1, 1);
        run_ = 0;
        state_ = std::min(state_ + 1, kMelStates - 1);
      }
      return;
    }
    // The interrupt: a 0-bit, then the partial run in E[k] bits.
    out_.put_bits(static_cast<std::uint32_t>(run_) << 1, 1 + e);
    run_ = 0;
    state_ = std::max(state_ - 1, 0);
  }

  /// Terminates a pending partial run by claiming it completed; the decoder
  /// over-produces insignificant events past the last quad, which it never
  /// asks for.
  void terminate() {
    if (run_ > 0) {
      out_.put_bits(1, 1);
      run_ = 0;
    }
  }

 private:
  BitWriter& out_;
  int state_ = 0;
  int run_ = 0;
};

class MelDecoder {
 public:
  explicit MelDecoder(BitReader<false> in) : in_(in) {}

  bool decode() {
    if (zeros_ == 0 && !one_pending_) refill();
    if (zeros_ > 0) {
      --zeros_;
      return false;
    }
    one_pending_ = false;
    return true;
  }

 private:
  void refill() {
    if (in_.get()) {
      zeros_ = 1 << kMelExponent[state_];
      state_ = std::min(state_ + 1, kMelStates - 1);
    } else {
      zeros_ = static_cast<int>(in_.get_bits(kMelExponent[state_]));
      one_pending_ = true;
      state_ = std::max(state_ - 1, 0);
    }
  }

  BitReader<false> in_;
  int state_ = 0;
  int zeros_ = 0;
  bool one_pending_ = false;
};

// ---------------------------------------------------------------------------
// u-VLC for the per-quad magnitude exponent bound, coding u = U_q - 1:
//   0 -> "0",  1 -> "10",  2 -> "110",  u >= 3 -> "111" + 5 raw bits of u-3.
// As an LSB-first codeword: (1<<u)-1 in u+1 bits, or 7 | (u-3)<<3 in 8.

struct Codeword {
  std::uint32_t bits;
  int length;
};

Codeword uvlc_codeword(int u) {
  if (u < 3) return {(1u << u) - 1, u + 1};
  return {7u | static_cast<std::uint32_t>(u - 3) << 3, 8};
}

int uvlc_decode(BitReader<true>& in) {
  if (!in.get()) return 0;
  if (!in.get()) return 1;
  if (!in.get()) return 2;
  return 3 + static_cast<int>(in.get_bits(5));
}

/// Per-worker stream buffers, grown to the largest block seen and reused.
struct HtScratch {
  std::vector<std::uint8_t> magsgn, mel, vlc;
  std::vector<std::uint8_t> north_sig;
};

/// Grows `buf` to at least `bytes` and returns its storage.
std::uint8_t* sized(std::vector<std::uint8_t>& buf, std::size_t bytes) {
  if (buf.size() < bytes) buf.resize(bytes);
  return buf.data();
}

}  // namespace

T1EncodedBlock ht_encode_block(Span2d<const Sample> coeffs) {
  const std::size_t w = coeffs.width();
  const std::size_t h = coeffs.height();
  CJ2K_CHECK_MSG(w >= 1 && w <= 1024 && h >= 1 && h <= 1024,
                 "HT block dimensions out of range");

  // Magnitude bit-plane count, exactly as EBCOT computes it: Tier-2 still
  // transmits it through the imsb tag tree, so the per-band maxima must
  // agree between coders.
  T1EncodedBlock out;
  out.num_bitplanes = block_prescan(coeffs);
  out.total_symbols = static_cast<std::uint64_t>(w) * h;
  if (out.num_bitplanes == 0) return out;  // All-zero block: empty, like EBCOT.

  // Worst cases per quad: 4 x 32 MagSgn bits, 6 MEL bits (+1 to terminate),
  // 4 + 8 VLC bits; each buffer adds the writer's spare words.
  const std::size_t num_qx = (w + 1) / 2;
  const std::size_t num_qy = (h + 1) / 2;
  const std::size_t quads = num_qx * num_qy;
  thread_local HtScratch scratch;
  BitWriter magsgn(sized(scratch.magsgn, quads * 16 + 8));
  BitWriter melbits(sized(scratch.mel, quads * 6 / 8 + 9));
  BitWriter vlc(sized(scratch.vlc, quads * 12 / 8 + 9));
  MelEncoder mel(melbits);
  std::uint8_t* north_sig = sized(scratch.north_sig, num_qx);
  std::fill(north_sig, north_sig + num_qx, std::uint8_t{0});
  double dist = 0.0;

  for (std::size_t qy = 0; qy < num_qy; ++qy) {
    // The quad's two rows; a missing bottom row reads as zeros.
    const Sample* top = coeffs.row(2 * qy);
    const Sample* bottom = 2 * qy + 1 < h ? coeffs.row(2 * qy + 1) : nullptr;
    bool west_sig = false;
    for (std::size_t qx = 0; qx < num_qx; ++qx) {
      // Samples in scan order n0=TL, n1=BL, n2=TR, n3=BR; absent lanes are 0.
      const std::size_t x = 2 * qx;
      const bool right = x + 1 < w;
      const Sample v[4] = {top[x], bottom ? bottom[x] : 0,
                           right ? top[x + 1] : 0,
                           bottom && right ? bottom[x + 1] : 0};
      std::uint32_t mag[4];
      std::uint32_t any = 0;
      for (int i = 0; i < 4; ++i) {
        const auto u = static_cast<std::uint32_t>(v[i]);
        mag[i] = v[i] < 0 ? 0u - u : u;
        any |= mag[i];
      }

      const bool sig = any != 0;
      const bool context = west_sig || north_sig[qx] != 0;
      west_sig = sig;
      north_sig[qx] = sig ? 1 : 0;
      // Zero-context quads code their significance in MEL; the others send
      // their significance pattern, even an empty one, in VLC.
      if (!context) {
        mel.encode(sig);
        if (!sig) continue;
      } else if (!sig) {
        vlc.put_bits(0, 4);
        continue;
      }

      // VLC: the significance pattern, then U-1 as a u-VLC codeword.
      const int umax = std::bit_width(any);
      unsigned rho = 0;
      for (int i = 0; i < 4; ++i) rho |= (mag[i] != 0 ? 1u : 0u) << i;
      const Codeword cw = uvlc_codeword(umax - 1);
      vlc.put_bits(rho | cw.bits << 4, 4 + cw.length);

      // MagSgn: per significant sample its sign, then mag-1 in umax bits.
      for (int i = 0; i < 4; ++i) {
        if (mag[i] == 0) continue;
        dist += static_cast<double>(mag[i]) * static_cast<double>(mag[i]);
        const std::uint32_t sign = static_cast<std::uint32_t>(v[i]) >> 31;
        magsgn.put_bits(sign | (mag[i] - 1) << 1, umax + 1);
      }
    }
  }

  mel.terminate();
  const std::size_t magsgn_len = magsgn.flush();
  const std::size_t mel_len = melbits.flush();
  const std::size_t vlc_len = vlc.flush();
  const std::size_t scup = mel_len + vlc_len + 4;

  out.data.resize(magsgn_len + scup);
  std::uint8_t* dst = out.data.data();
  std::memcpy(dst, scratch.magsgn.data(), magsgn_len);
  std::memcpy(dst + magsgn_len, scratch.mel.data(), mel_len);
  std::reverse_copy(scratch.vlc.data(), scratch.vlc.data() + vlc_len,
                    dst + magsgn_len + mel_len);
  std::uint8_t* trailer = dst + magsgn_len + mel_len + vlc_len;
  for (int k = 0; k < 4; ++k) {
    trailer[k] = static_cast<std::uint8_t>(scup >> (8 * (3 - k)));
  }

  PassInfo pass;
  pass.type = PassType::kCleanup;
  pass.bitplane = 0;
  pass.trunc_len = out.data.size();
  pass.dist_reduction = dist;
  pass.symbols = out.total_symbols;
  out.passes.push_back(pass);
  return out;
}

void ht_decode_block(const std::uint8_t* data, std::size_t size,
                     int num_bitplanes, Span2d<Sample> out) {
  (void)num_bitplanes;  // Magnitudes are fully coded via the U bounds.
  const std::size_t w = out.width();
  const std::size_t h = out.height();
  for (std::size_t y = 0; y < h; ++y) {
    Sample* row = out.row(y);
    std::fill(row, row + w, Sample{0});
  }
  if (size == 0) return;  // All-zero block (no included passes).
  if (size < 4) throw CodestreamError("HT segment shorter than its trailer");
  const std::size_t scup =
      (static_cast<std::size_t>(data[size - 4]) << 24) |
      (static_cast<std::size_t>(data[size - 3]) << 16) |
      (static_cast<std::size_t>(data[size - 2]) << 8) |
      static_cast<std::size_t>(data[size - 1]);
  if (scup < 4 || scup > size) {
    throw CodestreamError("HT Scup out of range");
  }

  BitReader<false> magsgn(data, size - scup);
  MelDecoder mel(BitReader<false>(data + (size - scup), scup - 4));
  BitReader<true> vlc(data + (size - scup), scup - 4);

  const std::size_t num_qx = (w + 1) / 2;
  const std::size_t num_qy = (h + 1) / 2;
  std::vector<std::uint8_t> north_sig(num_qx, 0);

  for (std::size_t qy = 0; qy < num_qy; ++qy) {
    Sample* top = out.row(2 * qy);
    Sample* bottom = 2 * qy + 1 < h ? out.row(2 * qy + 1) : nullptr;
    bool west_sig = false;
    for (std::size_t qx = 0; qx < num_qx; ++qx) {
      const std::size_t x = 2 * qx;
      const bool right = x + 1 < w;
      unsigned rho = 0;
      if (west_sig || north_sig[qx] != 0 || mel.decode()) {
        rho = vlc.get_bits(4);
      }
      const bool sig = rho != 0;
      west_sig = sig;
      north_sig[qx] = sig ? 1 : 0;
      if (!sig) continue;

      const int u = uvlc_decode(vlc) + 1;
      if (u > 31) throw CodestreamError("HT magnitude exponent overflow");
      const unsigned present = 1u | (bottom ? 2u : 0u) | (right ? 4u : 0u) |
                               (bottom && right ? 8u : 0u);
      if (rho & ~present) {
        throw CodestreamError("HT significance outside the block");
      }
      for (int i = 0; i < 4; ++i) {
        if (!(rho & (1u << i))) continue;
        // Sign bit, then mag-1 in u bits; unsigned negation keeps a hostile
        // 2^31 magnitude defined.
        const std::uint32_t bits = magsgn.get_bits(u + 1);
        const std::uint32_t mag = (bits >> 1) + 1;
        Sample* row = (i & 1) ? bottom : top;
        row[x + (i >> 1)] = static_cast<Sample>((bits & 1u) ? 0u - mag : mag);
      }
    }
  }
}

double ht_step_scale_for_rate(double rate) {
  if (rate <= 0.0) return 1.0;
  // Measured achieved-rate curve on the 512² synthetic photographic
  // workload (9/7, base step 1/16): each table row is (achieved rate,
  // log2 of the step multiplier).  The mapping interpolates log2(scale)
  // linearly between rows — a Qfactor-style log-linear fit, approximate by
  // design (content-dependent; DESIGN.md §9).
  static constexpr struct {
    double rate;
    double log2_scale;
  } kTable[] = {{0.9228, 0.0}, {0.7245, 1.0}, {0.5560, 2.0}, {0.3889, 3.0},
                {0.2295, 4.0}, {0.1480, 5.0}, {0.0875, 6.0}, {0.0329, 7.0}};
  constexpr int kRows = static_cast<int>(sizeof(kTable) / sizeof(kTable[0]));
  if (rate >= kTable[0].rate) return 1.0;
  double log2_scale = 8.0;  // clamp for targets below the table
  for (int i = 1; i < kRows; ++i) {
    if (rate >= kTable[i].rate) {
      const double t = (kTable[i - 1].rate - rate) /
                       (kTable[i - 1].rate - kTable[i].rate);
      log2_scale = kTable[i - 1].log2_scale +
                   t * (kTable[i].log2_scale - kTable[i - 1].log2_scale);
      break;
    }
  }
  return std::exp2(std::min(log2_scale, 8.0));
}

double effective_base_quant_step(const CodingParams& params) {
  if (params.block_coder == BlockCoder::kHt && params.rate > 0.0) {
    return params.base_quant_step * ht_step_scale_for_rate(params.rate);
  }
  return params.base_quant_step;
}

}  // namespace cj2k::jp2k
