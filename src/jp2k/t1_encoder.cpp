#include "jp2k/t1_encoder.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "jp2k/mq_encoder.hpp"

namespace cj2k::jp2k {

namespace {

/// Working state for one block encode.  The passes walk stripe columns of
/// the flag plane (t1_common.hpp) and code each stripe through a local copy
/// of the MQ registers.
class BlockEncoder {
 public:
  BlockEncoder(Span2d<const Sample> coeffs, SubbandOrient orient,
               const T1Options& options)
      : w_(coeffs.width()),
        h_(coeffs.height()),
        causal_(options.vertically_causal),
        reset_(options.reset_contexts),
        zc_(t1_context_tables().zc[static_cast<int>(orient)]),
        sc_(t1_context_tables().sc),
        flags_(w_, h_),
        mag_(w_ * h_) {
    CJ2K_CHECK_MSG(w_ >= 1 && w_ <= 1024 && h_ >= 1 && h_ <= 1024,
                   "code block dimensions out of range");
    num_planes_ = block_prescan(coeffs, mag_.data(), &flags_);
  }

  T1EncodedBlock run() {
    T1EncodedBlock out;
    out.num_bitplanes = num_planes_;
    if (num_planes_ == 0) return out;  // all-zero block: no passes.
    out.passes.reserve(static_cast<std::size_t>(3 * num_planes_ - 2));

    for (int p = num_planes_ - 1; p >= 0; --p) {
      if (p != num_planes_ - 1) {
        if (reset_) ctx_.reset();
        finish_pass(out, PassType::kSignificance, p, significance_pass(p));
        if (reset_) ctx_.reset();
        finish_pass(out, PassType::kRefinement, p, refinement_pass(p));
      }
      if (reset_) ctx_.reset();
      finish_pass(out, PassType::kCleanup, p, cleanup_pass(p));
    }
    mq_.flush();
    const auto bytes = mq_.bytes();
    out.data.assign(bytes.begin(), bytes.end());
    // The final pass's truncation estimate may exceed the flushed length;
    // clamp every stored estimate to the real terminated size.
    for (auto& pi : out.passes) {
      if (pi.trunc_len > out.data.size()) pi.trunc_len = out.data.size();
    }
    out.total_symbols = mq_.decisions();
    return out;
  }

 private:
  /// Squared-error reduction when the decoder's reconstruction of `m`
  /// improves from knowing planes > p to knowing planes >= p (midpoint
  /// reconstruction on both sides).
  static double dist_delta(std::uint32_t m, int p) {
    const std::uint32_t hi_known = (m >> (p + 1)) << (p + 1);
    const std::uint32_t lo_known = (m >> p) << p;
    const double rec_old =
        hi_known == 0 ? 0.0
                      : static_cast<double>(hi_known) + (1u << p);
    const double rec_new =
        lo_known == 0
            ? 0.0
            : static_cast<double>(lo_known) + (p > 0 ? (1u << (p - 1)) : 0u);
    const double e_old = static_cast<double>(m) - rec_old;
    const double e_new = static_cast<double>(m) - rec_new;
    return e_old * e_old - e_new * e_new;
  }

  /// Most decisions one stripe of one pass can code: two per sample (ZC +
  /// sign), or, in a run-mode column, 4 for the first significant sample
  /// plus 2 for each of the 3 below it.
  std::size_t max_stripe_decisions() const { return 10 * w_; }

  /// Nonzero if the flag word's sample is significant or visited.
  static std::uint32_t done(std::uint32_t f) {
    static_assert(kFlagVisit == kFlagSig << 1, "visit folds onto sig");
    return (f | f >> 1) & kFlagSig;
  }

  /// Codes the sign of the sample whose flag word is `f` and makes it
  /// significant; `row` is its row within the stripe.
  void code_sign(MqCoder& mq, std::uint32_t* f, std::size_t row) {
    const std::uint8_t sc = sc_[sc_index(*f)];
    const int sign = static_cast<int>(*f >> kFlagSignShift);
    mq.encode(ctx_[sc >> 1], sign ^ (sc & 1));
    flags_.set_significant(f, causal_ && row == 0);
  }

  /// Zero-codes the insignificant sample at `f` (magnitude `m`) at plane p.
  void code_zc(MqCoder& mq, std::uint32_t* f, std::uint32_t m,
               std::size_t row, int p, double& dist) {
    const int bit = static_cast<int>((m >> p) & 1);
    mq.encode(ctx_[zc_[*f & kNbrSigMask]], bit);
    if (bit) {
      code_sign(mq, f, row);
      dist += dist_delta(m, p);
    }
  }

  double significance_pass(int p) {
    double dist = 0.0;
    const std::size_t s = flags_.stride;
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      std::uint32_t* col = &flags_.at(y0, 0);
      const std::uint32_t* mcol = &mag_[y0 * w_];
      MqCoder mq = mq_.begin_run(max_stripe_decisions());
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mcol) {
        // Nothing to code in a column with no significant neighbour or no
        // insignificant sample.
        if (n == kStripeHeight) {
          const std::uint32_t f0 = col[0], f1 = col[s], f2 = col[2 * s],
                              f3 = col[3 * s];
          if (!(spp_candidate(f0) | spp_candidate(f1) | spp_candidate(f2) |
                spp_candidate(f3))) {
            continue;
          }
        }
        for (std::size_t j = 0; j < n; ++j) {
          std::uint32_t* f = col + j * s;
          if (!spp_candidate(*f)) continue;
          code_zc(mq, f, mcol[j * w_], j, p, dist);
          *f |= kFlagVisit;
        }
      }
      mq_.end_run(mq);
    }
    return dist;
  }

  double refinement_pass(int p) {
    double dist = 0.0;
    const std::size_t s = flags_.stride;
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      std::uint32_t* col = &flags_.at(y0, 0);
      const std::uint32_t* mcol = &mag_[y0 * w_];
      MqCoder mq = mq_.begin_run(max_stripe_decisions());
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mcol) {
        if (n == kStripeHeight &&
            !((col[0] | col[s] | col[2 * s] | col[3 * s]) & kFlagSig)) {
          continue;  // no significant sample to refine
        }
        for (std::size_t j = 0; j < n; ++j) {
          std::uint32_t* f = col + j * s;
          if ((*f & (kFlagSig | kFlagVisit)) != kFlagSig) continue;
          const std::uint32_t m = mcol[j * w_];
          mq.encode(ctx_[mr_context(*f)], static_cast<int>((m >> p) & 1));
          *f |= kFlagRefined;
          dist += dist_delta(m, p);
        }
      }
      mq_.end_run(mq);
    }
    return dist;
  }

  /// Also clears the visit bits the significance pass set, column by column
  /// as it leaves them.
  double cleanup_pass(int p) {
    double dist = 0.0;
    const std::size_t s = flags_.stride;
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      std::uint32_t* col = &flags_.at(y0, 0);
      const std::uint32_t* mcol = &mag_[y0 * w_];
      MqCoder mq = mq_.begin_run(max_stripe_decisions());
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mcol) {
        std::size_t j = 0;
        if (n == kStripeHeight) {
          const std::uint32_t f0 = col[0], f1 = col[s], f2 = col[2 * s],
                              f3 = col[3 * s];
          if (done(f0) & done(f1) & done(f2) & done(f3)) {
            // Every sample significant or visited by this plane's SPP.
            col[0] = f0 & ~kFlagVisit;
            col[s] = f1 & ~kFlagVisit;
            col[2 * s] = f2 & ~kFlagVisit;
            col[3 * s] = f3 & ~kFlagVisit;
            continue;
          }
          // Run-length mode: four insignificant, unvisited samples with
          // entirely insignificant neighbourhoods.
          if (!((f0 | f1 | f2 | f3) &
                (kFlagSig | kFlagVisit | kNbrSigMask))) {
            while (j < kStripeHeight && !((mcol[j * w_] >> p) & 1)) ++j;
            if (j == kStripeHeight) {
              mq.encode(ctx_[kCtxRunLength], 0);
              continue;  // whole column stays insignificant
            }
            mq.encode(ctx_[kCtxRunLength], 1);
            mq.encode(ctx_[kCtxUniform], static_cast<int>(j >> 1));
            mq.encode(ctx_[kCtxUniform], static_cast<int>(j & 1));
            code_sign(mq, col + j * s, j);
            dist += dist_delta(mcol[j * w_], p);
            ++j;
          }
        }
        for (; j < n; ++j) {
          std::uint32_t* f = col + j * s;
          if (*f & kFlagVisit) {
            *f &= ~kFlagVisit;
          } else if (!(*f & kFlagSig)) {
            code_zc(mq, f, mcol[j * w_], j, p, dist);
          }
        }
      }
      mq_.end_run(mq);
    }
    return dist;
  }

  void finish_pass(T1EncodedBlock& out, PassType type, int plane,
                   double dist) {
    PassInfo pi;
    pi.type = type;
    pi.bitplane = plane;
    pi.trunc_len = mq_.truncation_length();
    pi.dist_reduction = dist;
    pi.symbols = mq_.decisions() - symbols_total_;
    symbols_total_ = mq_.decisions();
    out.passes.push_back(pi);
  }

  std::size_t w_;
  std::size_t h_;
  bool causal_;
  bool reset_;
  const std::uint8_t* zc_;  ///< ZC table of this block's orientation.
  const std::uint8_t* sc_;
  T1Flags flags_;
  std::vector<std::uint32_t> mag_;
  int num_planes_ = 0;
  MqEncoder mq_;
  T1ContextBank ctx_;
  std::uint64_t symbols_total_ = 0;
};

}  // namespace

T1EncodedBlock t1_encode_block(Span2d<const Sample> coeffs,
                               SubbandOrient orient,
                               const T1Options& options) {
  return BlockEncoder(coeffs, orient, options).run();
}

}  // namespace cj2k::jp2k
