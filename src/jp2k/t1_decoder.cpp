#include "jp2k/t1_decoder.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "jp2k/mq_decoder.hpp"

namespace cj2k::jp2k {

namespace {

/// Mirror of the encoder's passes (t1_encoder.cpp) over the same flag word.
class BlockDecoder {
 public:
  BlockDecoder(const std::uint8_t* data, std::size_t size, int num_bitplanes,
               int num_passes, SubbandOrient orient, Span2d<Sample> out,
               const T1Options& options)
      : opt_(options),
        w_(out.width()),
        h_(out.height()),
        zc_(t1_context_tables().zc[static_cast<int>(orient)]),
        sc_(t1_context_tables().sc),
        num_planes_(num_bitplanes),
        num_passes_(num_passes),
        out_(out),
        flags_(w_, h_),
        mag_(w_ * h_, 0),
        mq_(data, size) {}

  void run() {
    for (std::size_t y = 0; y < h_; ++y) {
      for (std::size_t x = 0; x < w_; ++x) out_(y, x) = 0;
    }
    if (num_planes_ == 0 || num_passes_ == 0) return;

    int remaining = num_passes_;
    int final_plane = num_planes_ - 1;
    for (int p = num_planes_ - 1; p >= 0 && remaining > 0; --p) {
      final_plane = p;
      if (p != num_planes_ - 1) {
        if (opt_.reset_contexts) ctx_.reset();
        significance_pass(p);
        if (--remaining == 0) break;
        if (opt_.reset_contexts) ctx_.reset();
        refinement_pass(p);
        if (--remaining == 0) break;
      }
      if (opt_.reset_contexts) ctx_.reset();
      cleanup_pass(p);
      --remaining;
    }

    // Reconstruct: exact when final_plane == 0 and all passes ran;
    // otherwise midpoint-offset within the last decoded plane.
    const bool partial =
        final_plane > 0 || remaining > 0 ||
        num_passes_ < 1 + 3 * (num_planes_ - 1);
    for (std::size_t y = 0; y < h_; ++y) {
      for (std::size_t x = 0; x < w_; ++x) {
        std::uint32_t m = mag_[y * w_ + x];
        if (m != 0 && partial && final_plane > 0) {
          m += (1u << final_plane) >> 1;
        }
        Sample v = static_cast<Sample>(m);
        if (flags_.at(y, x) & kFlagSign) v = -v;
        out_(y, x) = v;
      }
    }
  }

 private:
  /// Decodes the sign of the sample at (y0 + j, x) and makes it significant
  /// with magnitude bit p set.
  void decode_sign(std::size_t y0, std::size_t j, std::size_t x, int p) {
    std::uint32_t* f = &flags_.at(y0 + j, x);
    const std::uint8_t sc = sc_[sc_index(*f)];
    const auto bit = static_cast<std::uint32_t>(mq_.decode(ctx_[sc >> 1]));
    *f |= (bit ^ (sc & 1u)) << kFlagSignShift;
    flags_.set_significant(f, opt_.vertically_causal && j == 0);
    mag_[(y0 + j) * w_ + x] |= 1u << p;
  }

  void decode_zc(std::size_t y0, std::size_t j, std::size_t x, int p) {
    const std::uint32_t f = flags_.at(y0 + j, x);
    if (mq_.decode(ctx_[zc_[f & kNbrSigMask]])) decode_sign(y0, j, x, p);
  }

  void significance_pass(int p) {
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      for (std::size_t x = 0; x < w_; ++x) {
        for (std::size_t j = 0; j < n; ++j) {
          const std::uint32_t f = flags_.at(y0 + j, x);
          if (!spp_candidate(f)) continue;
          decode_zc(y0, j, x, p);
          flags_.at(y0 + j, x) |= kFlagVisit;
        }
      }
    }
  }

  void refinement_pass(int p) {
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      for (std::size_t x = 0; x < w_; ++x) {
        for (std::size_t j = 0; j < n; ++j) {
          std::uint32_t& f = flags_.at(y0 + j, x);
          if ((f & (kFlagSig | kFlagVisit)) != kFlagSig) continue;
          if (mq_.decode(ctx_[mr_context(f)])) {
            mag_[(y0 + j) * w_ + x] |= 1u << p;
          }
          f |= kFlagRefined;
        }
      }
    }
  }

  void cleanup_pass(int p) {
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      for (std::size_t x = 0; x < w_; ++x) {
        std::size_t j = 0;
        if (n == kStripeHeight) {
          std::uint32_t any = 0;
          for (std::size_t k = 0; k < n; ++k) any |= flags_.at(y0 + k, x);
          if (!(any & (kFlagSig | kFlagVisit | kNbrSigMask))) {
            if (mq_.decode(ctx_[kCtxRunLength]) == 0) continue;
            j = static_cast<std::size_t>(mq_.decode(ctx_[kCtxUniform])) << 1;
            j |= static_cast<std::size_t>(mq_.decode(ctx_[kCtxUniform]));
            decode_sign(y0, j, x, p);
            ++j;
          }
        }
        for (; j < n; ++j) {
          std::uint32_t& f = flags_.at(y0 + j, x);
          if (f & kFlagVisit) {
            f &= ~kFlagVisit;
          } else if (!(f & kFlagSig)) {
            decode_zc(y0, j, x, p);
          }
        }
      }
    }
  }

  T1Options opt_;
  std::size_t w_;
  std::size_t h_;
  const std::uint8_t* zc_;  ///< ZC table of this block's orientation.
  const std::uint8_t* sc_;
  int num_planes_;
  int num_passes_;
  Span2d<Sample> out_;
  T1Flags flags_;
  std::vector<std::uint32_t> mag_;
  MqDecoder mq_;
  T1ContextBank ctx_;
};

}  // namespace

void t1_decode_block(const std::uint8_t* data, std::size_t size,
                     int num_bitplanes, int num_passes, SubbandOrient orient,
                     Span2d<Sample> out, const T1Options& options) {
  CJ2K_CHECK_MSG(num_bitplanes >= 0 && num_bitplanes <= 31,
                 "bad bit plane count");
  const int max_passes = num_bitplanes == 0 ? 0 : 1 + 3 * (num_bitplanes - 1);
  CJ2K_CHECK_MSG(num_passes >= 0 && num_passes <= max_passes,
                 "pass count exceeds the plane budget");
  BlockDecoder(data, size, num_bitplanes, num_passes, orient, out, options)
      .run();
}

}  // namespace cj2k::jp2k
