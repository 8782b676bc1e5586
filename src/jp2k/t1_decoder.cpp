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
  /// Decodes the sign of the sample at `f` (magnitude word `m`, row `row`
  /// of its stripe) and makes it significant with magnitude bit p set.
  void decode_sign(MqDecoder& mq, std::uint32_t* f, std::uint32_t* m,
                   std::size_t row, int p) {
    const std::uint8_t sc = sc_[sc_index(*f)];
    const auto bit = static_cast<std::uint32_t>(mq.decode(ctx_[sc >> 1]));
    *f |= (bit ^ (sc & 1u)) << kFlagSignShift;
    flags_.set_significant(f, opt_.vertically_causal && row == 0);
    *m |= 1u << p;
  }

  void decode_zc(MqDecoder& mq, std::uint32_t* f, std::uint32_t* m,
                 std::size_t row, int p) {
    if (mq.decode(ctx_[zc_[*f & kNbrSigMask]])) decode_sign(mq, f, m, row, p);
  }

  /// The passes walk stripe columns like the encoder's and skip the same
  /// columns; each stripe decodes through a local copy of the decoder.
  void significance_pass(int p) {
    const std::size_t s = flags_.stride;
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      std::uint32_t* col = &flags_.at(y0, 0);
      std::uint32_t* mcol = &mag_[y0 * w_];
      MqDecoder mq = mq_;
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mcol) {
        if (n == kStripeHeight &&
            !(spp_candidate(col[0]) | spp_candidate(col[s]) |
              spp_candidate(col[2 * s]) | spp_candidate(col[3 * s]))) {
          continue;
        }
        for (std::size_t j = 0; j < n; ++j) {
          std::uint32_t* f = col + j * s;
          if (!spp_candidate(*f)) continue;
          decode_zc(mq, f, mcol + j * w_, j, p);
          *f |= kFlagVisit;
        }
      }
      mq_ = mq;
    }
  }

  void refinement_pass(int p) {
    const std::size_t s = flags_.stride;
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      std::uint32_t* col = &flags_.at(y0, 0);
      std::uint32_t* mcol = &mag_[y0 * w_];
      MqDecoder mq = mq_;
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mcol) {
        if (n == kStripeHeight &&
            !((col[0] | col[s] | col[2 * s] | col[3 * s]) & kFlagSig)) {
          continue;  // no significant sample to refine
        }
        for (std::size_t j = 0; j < n; ++j) {
          std::uint32_t* f = col + j * s;
          if ((*f & (kFlagSig | kFlagVisit)) != kFlagSig) continue;
          mcol[j * w_] |=
              static_cast<std::uint32_t>(mq.decode(ctx_[mr_context(*f)])) << p;
          *f |= kFlagRefined;
        }
      }
      mq_ = mq;
    }
  }

  void cleanup_pass(int p) {
    const std::size_t s = flags_.stride;
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      std::uint32_t* col = &flags_.at(y0, 0);
      std::uint32_t* mcol = &mag_[y0 * w_];
      MqDecoder mq = mq_;
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mcol) {
        std::size_t j = 0;
        if (n == kStripeHeight) {
          const std::uint32_t f0 = col[0], f1 = col[s], f2 = col[2 * s],
                              f3 = col[3 * s];
          if (cleanup_done(f0) & cleanup_done(f1) & cleanup_done(f2) &
              cleanup_done(f3)) {
            // Every sample significant or visited by this plane's SPP.
            col[0] = f0 & ~kFlagVisit;
            col[s] = f1 & ~kFlagVisit;
            col[2 * s] = f2 & ~kFlagVisit;
            col[3 * s] = f3 & ~kFlagVisit;
            continue;
          }
          if (!((f0 | f1 | f2 | f3) &
                (kFlagSig | kFlagVisit | kNbrSigMask))) {
            if (mq.decode(ctx_[kCtxRunLength]) == 0) continue;
            j = static_cast<std::size_t>(mq.decode(ctx_[kCtxUniform])) << 1;
            j |= static_cast<std::size_t>(mq.decode(ctx_[kCtxUniform]));
            decode_sign(mq, col + j * s, mcol + j * w_, j, p);
            ++j;
          }
        }
        for (; j < n; ++j) {
          std::uint32_t* f = col + j * s;
          if (*f & kFlagVisit) {
            *f &= ~kFlagVisit;
          } else if (!(*f & kFlagSig)) {
            decode_zc(mq, f, mcol + j * w_, j, p);
          }
        }
      }
      mq_ = mq;
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
