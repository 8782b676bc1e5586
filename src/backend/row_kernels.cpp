// The hot row kernels of the encode pipeline — MCT, 5/3 and 9/7 lifting
// DWT, quantization and the Local Store shuffles — written once against the
// cell::Simd surface and instantiated twice behind backend::KernelBackend:
//
//  * RowKernels<cell::Simd> is the Cell model.  Every op performs the lane
//    arithmetic AND charges the SPE's OpCounters (loads and stores also
//    check 16-byte alignment); the cost model turns those charges into
//    simulated seconds, so this instantiation is the timing truth.
//  * RowKernels<nv::Ops> is the native backend: the same code over
//    SSE2/NEON/scalar host vectors (common/native_simd.hpp), whose counter
//    hooks compile to nothing.  It is the wall-clock truth.
//
// Both run the same loop structure and operation sequence, so their lanes
// agree by construction: the integer ops are exact, and the float ops round
// identically under the project-wide -ffp-contract=off (madd is a separate
// multiply and add on both).  The loop structure — row_loop's bookkeeping,
// the quantizers' alignment prologue, the scalar heads of the horizontal
// update steps, the 8-wide deinterleave blocks — decides the op counts and
// therefore the simulated seconds; BackendKernel.CellCountersPinned pins it.
//
// Everything here executes inside SPE regions and is written under the
// cellcheck SPE rules (no allocation, no vectors, no locks).  Vector lanes
// only ever cover [0, n) — everything else is a scalar tail — so the pad
// words padded_row_elems() appends to a row transfer are never read or
// written (tests/backend_kernel_test.cpp pins this under ASan).
#include <algorithm>
#include <cstring>
#include <type_traits>

#include "backend/kernel_backend.hpp"
#include "common/align.hpp"
#include "common/native_simd.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/mct.hpp"

namespace cj2k::backend {

namespace {

/// Vector main loop + scalar tail, the shape of every row kernel.
template <class Ops, typename VecBody, typename ScalarBody>
void row_loop(Ops& s, std::size_t n, VecBody&& vec, ScalarBody&& scalar) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vec(i);
    s.counters().s_int += 1;  // loop bookkeeping
  }
  for (; i < n; ++i) {
    scalar(i);
    s.counters().s_int += 4;  // scalar tail: ~4 ops per element
  }
}

/// Splits an interleaved row into its even- and odd-indexed halves (the
/// horizontal-filtering "splitting step"; 2 loads + 2 shuffles + 2 stores
/// per 8 elements on the SPU).
template <class Ops, typename T>
void deinterleave(Ops& s, const T* in, T* even, T* odd, std::size_t n) {
  std::size_t i = 0;
  // 8 interleaved elements -> one even + one odd quad word.
  for (; i + 8 <= n; i += 8) {
    (void)s.load(in + i);
    (void)s.load(in + i + 4);
    s.counters().v_shuffle += 2;
    T ev[4], od[4];
    for (std::size_t k = 0; k < 4; ++k) {
      ev[k] = in[i + 2 * k];
      od[k] = in[i + 2 * k + 1];
    }
    std::memcpy(even + i / 2, ev, sizeof(ev));
    std::memcpy(odd + i / 2, od, sizeof(od));
    s.counters().v_store += 2;
    s.counters().s_int += 1;
  }
  for (; i < n; ++i) {
    if (i % 2 == 0) {
      even[i / 2] = in[i];
    } else {
      odd[i / 2] = in[i];
    }
    s.counters().s_int += 3;
  }
}

template <class Ops>
class RowKernels final : public KernelBackend {
  static constexpr bool kCell = std::is_same_v<Ops, cell::Simd>;

  /// The Cell model charges the calling SPE's handle; the native ops are
  /// stateless and ignore it.
  static Ops ops(cell::Simd& spe) {
    if constexpr (kCell) {
      return spe;
    } else {
      return Ops{};
    }
  }

 public:
  BackendKind kind() const override {
    return kCell ? BackendKind::kCellModel : BackendKind::kNative;
  }
  const char* name() const override { return kCell ? "cell" : "native"; }

  void shift_rct_row(cell::Simd& spe, Sample* r, Sample* g, Sample* b,
                     std::size_t n, unsigned depth) const override {
    Ops s = ops(spe);
    const auto off = s.splat(Sample{1} << (depth - 1));
    row_loop(
        s, n,
        [&](std::size_t i) {
          const auto rr = s.sub(s.load(r + i), off);
          const auto gg = s.sub(s.load(g + i), off);
          const auto bb = s.sub(s.load(b + i), off);
          // Y = (R + 2G + B) >> 2; U = B - G; V = R - G.
          const auto y = s.sra(s.add(s.add(rr, bb), s.add(gg, gg)), 2);
          s.store(r + i, y);
          s.store(g + i, s.sub(bb, gg));
          s.store(b + i, s.sub(rr, gg));
        },
        [&](std::size_t i) {
          const Sample off1 = Sample{1} << (depth - 1);
          const Sample rr = r[i] - off1, gg = g[i] - off1, bb = b[i] - off1;
          r[i] = (rr + 2 * gg + bb) >> 2;
          g[i] = bb - gg;
          b[i] = rr - gg;
        });
  }

  void shift_row(cell::Simd& spe, Sample* x, std::size_t n,
                 unsigned depth) const override {
    Ops s = ops(spe);
    const auto off = s.splat(Sample{1} << (depth - 1));
    row_loop(
        s, n,
        [&](std::size_t i) { s.store(x + i, s.sub(s.load(x + i), off)); },
        [&](std::size_t i) { x[i] -= Sample{1} << (depth - 1); });
  }

  void shift_ict_row(cell::Simd& spe, const Sample* r, const Sample* g,
                     const Sample* b, float* y, float* cb, float* cr,
                     std::size_t n, unsigned depth) const override {
    Ops s = ops(spe);
    const float offf = static_cast<float>(Sample{1} << (depth - 1));
    const auto off = s.splat(offf);
    const auto c_yr = s.splat(0.299f), c_yg = s.splat(0.587f),
               c_yb = s.splat(0.114f);
    const auto c_br = s.splat(-0.168736f), c_bg = s.splat(-0.331264f),
               c_bb = s.splat(0.5f);
    const auto c_rr = s.splat(0.5f), c_rg = s.splat(-0.418688f),
               c_rb = s.splat(-0.081312f);
    row_loop(
        s, n,
        [&](std::size_t i) {
          const auto rr = s.sub(s.to_float(s.load(r + i)), off);
          const auto gg = s.sub(s.to_float(s.load(g + i)), off);
          const auto bb = s.sub(s.to_float(s.load(b + i)), off);
          s.store(y + i,
                  s.madd(c_yb, bb, s.madd(c_yg, gg, s.mul(c_yr, rr))));
          s.store(cb + i,
                  s.madd(c_bb, bb, s.madd(c_bg, gg, s.mul(c_br, rr))));
          s.store(cr + i,
                  s.madd(c_rb, bb, s.madd(c_rg, gg, s.mul(c_rr, rr))));
        },
        [&](std::size_t i) {
          const float rr = static_cast<float>(r[i]) - offf;
          const float gg = static_cast<float>(g[i]) - offf;
          const float bb = static_cast<float>(b[i]) - offf;
          y[i] = 0.299f * rr + 0.587f * gg + 0.114f * bb;
          cb[i] = -0.168736f * rr - 0.331264f * gg + 0.5f * bb;
          cr[i] = 0.5f * rr - 0.418688f * gg - 0.081312f * bb;
        });
  }

  void shift_to_float_row(cell::Simd& spe, const Sample* x, float* out,
                          std::size_t n, unsigned depth) const override {
    Ops s = ops(spe);
    const float offf = static_cast<float>(Sample{1} << (depth - 1));
    const auto off = s.splat(offf);
    row_loop(
        s, n,
        [&](std::size_t i) {
          s.store(out + i, s.sub(s.to_float(s.load(x + i)), off));
        },
        [&](std::size_t i) { out[i] = static_cast<float>(x[i]) - offf; });
  }

  void shift_ict_fixed_row(cell::Simd& spe, const Sample* r, const Sample* g,
                           const Sample* b, Sample* y, Sample* cb, Sample* cr,
                           std::size_t n, unsigned depth) const override {
    Ops s = ops(spe);
    const Sample offs = Sample{1} << (depth - 1);
    const auto off = s.splat(offs);
    const auto yr = s.splat(jp2k::kIctFxYr), yg = s.splat(jp2k::kIctFxYg),
               yb = s.splat(jp2k::kIctFxYb);
    const auto br = s.splat(jp2k::kIctFxBr), bg = s.splat(jp2k::kIctFxBg),
               bb2 = s.splat(jp2k::kIctFxBb);
    const auto rr2 = s.splat(jp2k::kIctFxRr), rg = s.splat(jp2k::kIctFxRg),
               rb = s.splat(jp2k::kIctFxRb);
    row_loop(
        s, n,
        [&](std::size_t i) {
          const auto rv = s.sub(s.load(r + i), off);
          const auto gv = s.sub(s.load(g + i), off);
          const auto bv = s.sub(s.load(b + i), off);
          s.store(y + i, s.add(s.add(s.mul_emulated(yr, rv),
                                     s.mul_emulated(yg, gv)),
                               s.mul_emulated(yb, bv)));
          s.store(cb + i, s.add(s.add(s.mul_emulated(br, rv),
                                      s.mul_emulated(bg, gv)),
                                s.mul_emulated(bb2, bv)));
          s.store(cr + i, s.add(s.add(s.mul_emulated(rr2, rv),
                                      s.mul_emulated(rg, gv)),
                                s.mul_emulated(rb, bv)));
        },
        [&](std::size_t i) {
          const Sample rv = r[i] - offs, gv = g[i] - offs, bv = b[i] - offs;
          y[i] =
              jp2k::kIctFxYr * rv + jp2k::kIctFxYg * gv + jp2k::kIctFxYb * bv;
          cb[i] =
              jp2k::kIctFxBr * rv + jp2k::kIctFxBg * gv + jp2k::kIctFxBb * bv;
          cr[i] =
              jp2k::kIctFxRr * rv + jp2k::kIctFxRg * gv + jp2k::kIctFxRb * bv;
        });
  }

  void shift_to_fixed_row(cell::Simd& spe, const Sample* x, Sample* out,
                          std::size_t n, unsigned depth) const override {
    Ops s = ops(spe);
    const Sample offs = Sample{1} << (depth - 1);
    const auto off = s.splat(offs);
    row_loop(
        s, n,
        [&](std::size_t i) {
          s.store(out + i, s.sll(s.sub(s.load(x + i), off), 13));
        },
        [&](std::size_t i) { out[i] = (x[i] - offs) << 13; });
  }

  void predict53_row(cell::Simd& spe, Sample* d, const Sample* a,
                     const Sample* b, std::size_t n) const override {
    Ops s = ops(spe);
    row_loop(
        s, n,
        [&](std::size_t i) {
          const auto sum = s.add(s.load(a + i), s.load(b + i));
          s.store(d + i, s.sub(s.load(d + i), s.sra(sum, 1)));
        },
        [&](std::size_t i) { d[i] -= (a[i] + b[i]) >> 1; });
  }

  void update53_row(cell::Simd& spe, Sample* d, const Sample* a,
                    const Sample* b, std::size_t n) const override {
    Ops s = ops(spe);
    const auto two = s.splat(Sample{2});
    row_loop(
        s, n,
        [&](std::size_t i) {
          const auto sum = s.add(s.add(s.load(a + i), s.load(b + i)), two);
          s.store(d + i, s.add(s.load(d + i), s.sra(sum, 2)));
        },
        [&](std::size_t i) { d[i] += (a[i] + b[i] + 2) >> 2; });
  }

  void lift97_row(cell::Simd& spe, float* x, const float* a, const float* b,
                  float c, std::size_t n) const override {
    Ops s = ops(spe);
    const auto cv = s.splat(c);
    row_loop(
        s, n,
        [&](std::size_t i) {
          const auto sum = s.add(s.load(a + i), s.load(b + i));
          s.store(x + i, s.madd(cv, sum, s.load(x + i)));
        },
        [&](std::size_t i) { x[i] += c * (a[i] + b[i]); });
  }

  void scale_row(cell::Simd& spe, float* x, float c,
                 std::size_t n) const override {
    Ops s = ops(spe);
    const auto cv = s.splat(c);
    row_loop(
        s, n,
        [&](std::size_t i) { s.store(x + i, s.mul(s.load(x + i), cv)); },
        [&](std::size_t i) { x[i] *= c; });
  }

  void lift97_fixed_row(cell::Simd& spe, std::int32_t* x,
                        const std::int32_t* a, const std::int32_t* b,
                        std::int32_t c_q13, std::size_t n) const override {
    Ops s = ops(spe);
    const auto cv = s.splat(c_q13);
    row_loop(
        s, n,
        [&](std::size_t i) {
          const auto sum = s.add(s.load(a + i), s.load(b + i));
          s.store(x + i, s.add(s.load(x + i), s.mul_fix_q13(cv, sum)));
        },
        [&](std::size_t i) {
          x[i] += static_cast<std::int32_t>(
              (static_cast<std::int64_t>(c_q13) * (a[i] + b[i])) >> 13);
        });
  }

  void scale_fixed_row(cell::Simd& spe, Sample* x, Sample c_q13,
                       std::size_t n) const override {
    Ops s = ops(spe);
    const auto cv = s.splat(c_q13);
    row_loop(
        s, n,
        [&](std::size_t i) {
          s.store(x + i, s.mul_fix_q13(s.load(x + i), cv));
        },
        [&](std::size_t i) { x[i] = jp2k::dwt97::fix_mul(x[i], c_q13); });
  }

  void dwt53_h_row(cell::Simd& spe, const Sample* in, Sample* even,
                   Sample* odd, std::size_t n) const override {
    Ops s = ops(spe);
    deinterleave(s, in, even, odd, n);
    const std::size_t nl = (n + 1) / 2;
    const std::size_t nh = n - nl;
    if (nh == 0) return;
    // Predict: odd[i] -= (even[i] + even[min(i+1, nl-1)]) >> 1.
    std::size_t i = 0;
    for (; i + 4 <= nh && i + 5 <= nl; i += 4) {
      const auto e0 = s.load(even + i);
      const auto e1 = s.load_shifted(even + i + 1);
      s.store(odd + i, s.sub(s.load(odd + i), s.sra(s.add(e0, e1), 1)));
      s.counters().s_int += 1;
    }
    for (; i < nh; ++i) {
      odd[i] -= (even[i] + even[std::min(i + 1, nl - 1)]) >> 1;
      s.counters().s_int += 4;
    }
    // Update: even[i] += (odd[i ? i-1 : 0] + odd[min(i, nh-1)] + 2) >> 2.
    const auto two = s.splat(Sample{2});
    even[0] += (odd[0] + odd[0] + 2) >> 2;
    s.counters().s_int += 4;
    // Scalar until the even[] pointer is quad aligned again, then vectors
    // (aligned even loads/stores, shuffle-shifted odd loads).
    i = 1;
    for (; i < std::min<std::size_t>(4, nl); ++i) {
      even[i] += (odd[i - 1] + odd[std::min(i, nh - 1)] + 2) >> 2;
      s.counters().s_int += 4;
    }
    for (; i + 4 <= nl && i + 4 <= nh; i += 4) {
      const auto o0 = s.load_shifted(odd + i - 1);
      const auto o1 = s.load(odd + i);
      s.store(even + i, s.add(s.load(even + i),
                              s.sra(s.add(s.add(o0, o1), two), 2)));
      s.counters().s_int += 1;
    }
    for (; i < nl; ++i) {
      even[i] += (odd[i - 1] + odd[std::min(i, nh - 1)] + 2) >> 2;
      s.counters().s_int += 4;
    }
  }

  void dwt97_h_row(cell::Simd& spe, const float* in, float* even, float* odd,
                   std::size_t n) const override {
    Ops s = ops(spe);
    deinterleave(s, in, even, odd, n);
    const std::size_t nl = (n + 1) / 2;
    const std::size_t nh = n - nl;
    if (nh == 0) return;  // single sample: untouched
    const auto predict_like = [&](float* d, const float* e, float c) {
      // d[i] += c * (e[i] + e[min(i+1, nl-1)])
      const auto cv = s.splat(c);
      std::size_t i = 0;
      for (; i + 4 <= nh && i + 5 <= nl; i += 4) {
        const auto e0 = s.load(e + i);
        const auto e1 = s.load_shifted(e + i + 1);
        s.store(d + i, s.madd(cv, s.add(e0, e1), s.load(d + i)));
        s.counters().s_int += 1;
      }
      for (; i < nh; ++i) {
        d[i] += c * (e[i] + e[std::min(i + 1, nl - 1)]);
        s.counters().s_int += 4;
      }
    };
    const auto update_like = [&](float* e, const float* d, float c) {
      // e[i] += c * (d[i ? i-1 : 0] + d[min(i, nh-1)])
      const auto cv = s.splat(c);
      e[0] += c * (d[0] + d[0]);
      s.counters().s_int += 4;
      std::size_t i = 1;
      for (; i < std::min<std::size_t>(4, nl); ++i) {
        e[i] += c * (d[i - 1] + d[std::min(i, nh - 1)]);
        s.counters().s_int += 4;
      }
      for (; i + 4 <= nl && i + 4 <= nh; i += 4) {
        const auto d0 = s.load_shifted(d + i - 1);
        const auto d1 = s.load(d + i);
        s.store(e + i, s.madd(cv, s.add(d0, d1), s.load(e + i)));
        s.counters().s_int += 1;
      }
      for (; i < nl; ++i) {
        e[i] += c * (d[i - 1] + d[std::min(i, nh - 1)]);
        s.counters().s_int += 4;
      }
    };
    predict_like(odd, even, jp2k::dwt97::kAlpha);
    update_like(even, odd, jp2k::dwt97::kBeta);
    predict_like(odd, even, jp2k::dwt97::kGamma);
    update_like(even, odd, jp2k::dwt97::kDelta);
    scale_row(spe, even, 1.0f / jp2k::dwt97::kK, nl);
    scale_row(spe, odd, jp2k::dwt97::kK, nh);
  }

  void dwt97_fixed_h_row(cell::Simd& spe, const Sample* in, Sample* even,
                         Sample* odd, std::size_t n) const override {
    Ops s = ops(spe);
    deinterleave(s, in, even, odd, n);
    const std::size_t nl = (n + 1) / 2;
    const std::size_t nh = n - nl;
    if (nh == 0) return;
    const auto predict_like = [&](Sample* d, const Sample* e, Sample c) {
      const auto cv = s.splat(c);
      std::size_t i = 0;
      for (; i + 4 <= nh && i + 5 <= nl; i += 4) {
        const auto e0 = s.load(e + i);
        const auto e1 = s.load_shifted(e + i + 1);
        s.store(d + i,
                s.add(s.load(d + i), s.mul_fix_q13(cv, s.add(e0, e1))));
        s.counters().s_int += 1;
      }
      for (; i < nh; ++i) {
        d[i] += jp2k::dwt97::fix_mul(c, e[i] + e[std::min(i + 1, nl - 1)]);
        s.counters().s_int += 6;
      }
    };
    const auto update_like = [&](Sample* e, const Sample* d, Sample c) {
      const auto cv = s.splat(c);
      e[0] += jp2k::dwt97::fix_mul(c, d[0] + d[0]);
      s.counters().s_int += 6;
      std::size_t i = 1;
      for (; i < std::min<std::size_t>(4, nl); ++i) {
        e[i] += jp2k::dwt97::fix_mul(c, d[i - 1] + d[std::min(i, nh - 1)]);
        s.counters().s_int += 6;
      }
      for (; i + 4 <= nl && i + 4 <= nh; i += 4) {
        const auto d0 = s.load_shifted(d + i - 1);
        const auto d1 = s.load(d + i);
        s.store(e + i,
                s.add(s.load(e + i), s.mul_fix_q13(cv, s.add(d0, d1))));
        s.counters().s_int += 1;
      }
      for (; i < nl; ++i) {
        e[i] += jp2k::dwt97::fix_mul(c, d[i - 1] + d[std::min(i, nh - 1)]);
        s.counters().s_int += 6;
      }
    };
    predict_like(odd, even, jp2k::dwt97::kFxAlpha);
    update_like(even, odd, jp2k::dwt97::kFxBeta);
    predict_like(odd, even, jp2k::dwt97::kFxGamma);
    update_like(even, odd, jp2k::dwt97::kFxDelta);
    scale_fixed_row(spe, even, jp2k::dwt97::kFxInvK, nl);
    scale_fixed_row(spe, odd, jp2k::dwt97::kFxK, nh);
  }

  void quant_row(cell::Simd& spe, const float* in, Sample* out, std::size_t n,
                 float inv_step) const override {
    Ops s = ops(spe);
    const auto scalar = [&](std::size_t i) {
      const float v = in[i];
      const Sample q = static_cast<Sample>((v < 0 ? -v : v) * inv_step);
      out[i] = v < 0 ? -q : q;
      s.counters().s_int += 4;
    };
    // Scalar prologue until the (co-aligned) pointers reach a quad boundary
    // — subband segments start at arbitrary offsets within the row.
    std::size_t i = 0;
    while (i < n && !is_aligned(in + i, kQuadWordBytes)) scalar(i++);
    const auto inv = s.splat(inv_step);
    const auto zero = s.splat(Sample{0});
    for (; i + 4 <= n; i += 4) {
      const auto v = s.load(in + i);
      const auto q = s.to_int_trunc(s.mul(s.abs(v), inv));
      s.store(out + i, s.select_neg(s.sign_mask(v), s.sub(zero, q), q));
      s.counters().s_int += 1;
    }
    for (; i < n; ++i) scalar(i);
  }

  void quant_fixed_row(cell::Simd& spe, const Sample* in_q13, Sample* out,
                       std::size_t n, std::int64_t inv_q16) const override {
    Ops s = ops(spe);
    const auto quant = [inv_q16](Sample v) {
      const std::int64_t a = v < 0 ? -static_cast<std::int64_t>(v) : v;
      const Sample q = static_cast<Sample>((a * inv_q16) >> 29);
      return v < 0 ? -q : q;
    };
    const auto scalar = [&](std::size_t i) {
      out[i] = quant(in_q13[i]);
      s.counters().s_int += 6;
    };
    std::size_t i = 0;
    while (i < n && !is_aligned(in_q13 + i, kQuadWordBytes)) scalar(i++);
    // The 64-bit reciprocal product costs two emulated 32-bit multiplies
    // per vector plus the shift and sign select; the lanes are computed
    // one by one.
    for (; i + 4 <= n; i += 4) {
      (void)s.load(in_q13 + i);
      s.counters().v_mul_i_emul += 2;  // 64-bit product
      s.counters().v_shift += 1;
      s.counters().v_cmp_sel += 2;  // abs + sign restore
      Sample q[4];
      for (std::size_t k = 0; k < 4; ++k) q[k] = quant(in_q13[i + k]);
      s.store(out + i, s.from_lanes(q));
      s.counters().s_int += 1;
    }
    for (; i < n; ++i) scalar(i);
  }

  void deinterleave_row(cell::Simd& spe, const Sample* in, Sample* even,
                        Sample* odd, std::size_t n) const override {
    Ops s = ops(spe);
    deinterleave(s, in, even, odd, n);
  }
  void deinterleave_row(cell::Simd& spe, const float* in, float* even,
                        float* odd, std::size_t n) const override {
    Ops s = ops(spe);
    deinterleave(s, in, even, odd, n);
  }

  void ls_copy(cell::Simd& spe, void* dst, const void* src,
               std::size_t bytes) const override {
    Ops s = ops(spe);
    std::memcpy(dst, src, bytes);
    const std::uint64_t quads = (bytes + 15) / 16;
    s.counters().v_load += quads;
    s.counters().v_store += quads;
    s.counters().v_shuffle += quads;  // realignment shuffles
  }
};

}  // namespace

const KernelBackend& cell_model() {
  static const RowKernels<cell::Simd> instance;
  return instance;
}

const KernelBackend& native_simd() {
  static const RowKernels<nv::Ops> instance;
  return instance;
}

const char* native_isa() { return nv::isa(); }

}  // namespace cj2k::backend
