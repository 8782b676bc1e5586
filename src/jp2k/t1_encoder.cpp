#include "jp2k/t1_encoder.hpp"

#include <algorithm>
#include <memory>

#include "common/align.hpp"
#include "common/error.hpp"
#include "jp2k/mq_encoder.hpp"

namespace cj2k::jp2k {

namespace {

/// This thread's symbol buffer, grown to at least `bytes`.  Growth
/// allocates exactly `bytes`, so a pass that overruns its bound overruns the
/// allocation, where ASan sees it.
std::uint8_t* symbol_buffer(std::size_t bytes) {
  thread_local std::unique_ptr<std::uint8_t[]> buf;
  thread_local std::size_t size = 0;
  if (size < bytes) {
    buf = std::make_unique_for_overwrite<std::uint8_t[]>(bytes);
    size = bytes;
  }
  return buf.get();
}

/// Symbol-buffer byte of decision `d` in context `ctx`.
std::uint8_t symbol(int ctx, std::uint32_t d) {
  return static_cast<std::uint8_t>(static_cast<std::uint32_t>(ctx) << 1 | d);
}

/// Working state for one block encode.  Each coding pass runs as two loops:
/// the context-modelling loop walks stripe columns of the flag plane
/// (t1_common.hpp) and appends one byte per decision, context << 1 |
/// decision, to the per-thread symbol buffer; the MQ loop
/// (MqEncoder::code) then codes the pass's bytes.
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
    sym_ = symbol_buffer(max_pass_decisions());
  }

  T1EncodedBlock run() {
    T1EncodedBlock out;
    out.num_bitplanes = num_planes_;
    if (num_planes_ == 0) return out;  // all-zero block: no passes.
    out.passes.reserve(static_cast<std::size_t>(3 * num_planes_ - 2));
    model([&](PassType type, int p, const Modelled& m) {
      finish_pass(out, type, p, m);
    });
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

  /// The context-modelling loops alone, their symbols kept.
  T1Symbols run_model() {
    T1Symbols out;
    model([&](PassType, int, const Modelled& m) {
      const std::uint8_t* begin = sym_;
      out.bytes.insert(out.bytes.end(), begin, m.end);
      out.pass_sizes.push_back(static_cast<std::size_t>(m.end - begin));
    });
    return out;
  }

 private:
  /// What a context-modelling loop leaves: the end of its symbols in the
  /// buffer and the pass's distortion reduction.
  struct Modelled {
    const std::uint8_t* end;
    double dist;
  };

  /// Runs every pass's context-modelling loop, in coding order, and hands
  /// each pass's symbols to `sink` before the next pass overwrites them.
  template <class Sink>
  void model(Sink&& sink) {
    for (int p = num_planes_ - 1; p >= 0; --p) {
      if (p != num_planes_ - 1) {
        sink(PassType::kSignificance, p, significance_pass(p));
        sink(PassType::kRefinement, p, refinement_pass(p));
      }
      sink(PassType::kCleanup, p, cleanup_pass(p));
    }
  }

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

  /// dist_delta() of a sample already significant above plane p, from the
  /// low p + 1 bits that are all it depends on.  Both error terms are the
  /// same exact integers dist_delta() forms, so the result has the same
  /// bits.
  static double refine_dist(std::uint32_t m, int p) {
    const std::uint32_t low = m & ((2u << p) - 1);
    const double e_old =
        static_cast<double>(low) - static_cast<double>(1u << p);
    const double e_new =
        static_cast<double>(low & ((1u << p) - 1)) -
        static_cast<double>(p > 0 ? (1u << (p - 1)) : 0u);
    return e_old * e_old - e_new * e_new;
  }

  /// Most decisions one pass can code: 10 per stripe column, which is two
  /// per sample (ZC + sign) or, in a run-mode column, 4 for the first
  /// significant sample plus 2 for each of the 3 below it.
  std::size_t max_pass_decisions() const {
    return 10 * w_ * ceil_div(h_, kStripeHeight);
  }

  /// Models the sign of the sample whose flag word is `f` and makes it
  /// significant; `row` is its row within the stripe.
  void code_sign(std::uint8_t*& out, std::uint32_t* f, std::size_t row) {
    const std::uint8_t sc = sc_[sc_index(*f)];
    *out++ = static_cast<std::uint8_t>(sc ^ (*f >> kFlagSignShift));
    flags_.set_significant(f, causal_ && row == 0);
  }

  /// Zero-codes the insignificant sample at `f` (magnitude `m`) at plane p.
  void code_zc(std::uint8_t*& out, std::uint32_t* f, std::uint32_t m,
               std::size_t row, int p, double& dist) {
    const std::uint32_t bit = (m >> p) & 1;
    *out++ = symbol(zc_[*f & kNbrSigMask], bit);
    if (bit) {
      code_sign(out, f, row);
      dist += dist_delta(m, p);
    }
  }

  Modelled significance_pass(int p) {
    std::uint8_t* out = sym_;
    double dist = 0.0;
    const std::size_t s = flags_.stride;
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      std::uint32_t* col = &flags_.at(y0, 0);
      const std::uint32_t* mcol = &mag_[y0 * w_];
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
          code_zc(out, f, mcol[j * w_], j, p, dist);
          *f |= kFlagVisit;
        }
      }
    }
    return {out, dist};
  }

  /// Branch-free within a column: every sample writes its byte, and the
  /// cursor advances only past a refinement candidate's.
  Modelled refinement_pass(int p) {
    std::uint8_t* out = sym_;
    double dist = 0.0;
    const std::size_t s = flags_.stride;
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      std::uint32_t* col = &flags_.at(y0, 0);
      const std::uint32_t* mcol = &mag_[y0 * w_];
      for (std::size_t x = 0; x < w_; ++x, ++col, ++mcol) {
        if (n == kStripeHeight &&
            !((col[0] | col[s] | col[2 * s] | col[3 * s]) & kFlagSig)) {
          continue;  // no significant sample to refine
        }
        for (std::size_t j = 0; j < n; ++j) {
          std::uint32_t* f = col + j * s;
          const std::uint32_t fw = *f;
          const std::uint32_t m = mcol[j * w_];
          const bool refine = (fw & (kFlagSig | kFlagVisit)) == kFlagSig;
          *out = symbol(mr_context(fw), (m >> p) & 1);
          out += refine;
          *f = fw | (refine ? kFlagRefined : 0u);
          dist += refine ? refine_dist(m, p) : 0.0;
        }
      }
    }
    return {out, dist};
  }

  /// Also clears the visit bits the significance pass set, column by column
  /// as it leaves them.
  Modelled cleanup_pass(int p) {
    std::uint8_t* out = sym_;
    double dist = 0.0;
    const std::size_t s = flags_.stride;
    for (std::size_t y0 = 0; y0 < h_; y0 += kStripeHeight) {
      const std::size_t n = std::min(kStripeHeight, h_ - y0);
      std::uint32_t* col = &flags_.at(y0, 0);
      const std::uint32_t* mcol = &mag_[y0 * w_];
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
          // Run-length mode: four insignificant, unvisited samples with
          // entirely insignificant neighbourhoods.
          if (!((f0 | f1 | f2 | f3) &
                (kFlagSig | kFlagVisit | kNbrSigMask))) {
            while (j < kStripeHeight && !((mcol[j * w_] >> p) & 1)) ++j;
            if (j == kStripeHeight) {
              *out++ = symbol(kCtxRunLength, 0);
              continue;  // whole column stays insignificant
            }
            out[0] = symbol(kCtxRunLength, 1);
            out[1] = symbol(kCtxUniform, static_cast<std::uint32_t>(j >> 1));
            out[2] = symbol(kCtxUniform, static_cast<std::uint32_t>(j & 1));
            out += 3;
            code_sign(out, col + j * s, j);
            dist += dist_delta(mcol[j * w_], p);
            ++j;
          }
        }
        for (; j < n; ++j) {
          std::uint32_t* f = col + j * s;
          if (*f & kFlagVisit) {
            *f &= ~kFlagVisit;
          } else if (!(*f & kFlagSig)) {
            code_zc(out, f, mcol[j * w_], j, p, dist);
          }
        }
      }
    }
    return {out, dist};
  }

  /// The pass's MQ loop, then its record.  RESET's per-pass context reset
  /// happens here, where the contexts are used, and the truncation length
  /// is read once the pass's last decision is coded.
  void finish_pass(T1EncodedBlock& out, PassType type, int plane,
                   const Modelled& m) {
    if (reset_) ctx_.reset();
    const auto count = static_cast<std::size_t>(m.end - sym_);
    CJ2K_DCHECK(count <= max_pass_decisions());
    mq_.code({sym_, count}, ctx_.data());
    PassInfo pi;
    pi.type = type;
    pi.bitplane = plane;
    pi.trunc_len = mq_.truncation_length();
    pi.dist_reduction = m.dist;
    pi.symbols = count;
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
  std::uint8_t* sym_ = nullptr;  ///< The thread's symbol buffer.
  MqEncoder mq_;
  T1ContextBank ctx_;
};

}  // namespace

T1EncodedBlock t1_encode_block(Span2d<const Sample> coeffs,
                               SubbandOrient orient,
                               const T1Options& options) {
  return BlockEncoder(coeffs, orient, options).run();
}

T1Symbols t1_model_block(Span2d<const Sample> coeffs, SubbandOrient orient,
                         const T1Options& options) {
  return BlockEncoder(coeffs, orient, options).run_model();
}

}  // namespace cj2k::jp2k
