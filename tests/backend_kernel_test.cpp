// Kernel-level property tests for the backend trait (DESIGN.md §13): every
// KernelBackend method, on both instantiations of the one kernel source,
// exercised directly against the serial jp2k reference over odd widths and
// exact-size buffers, plus the Cell model's pinned op-counter charges.
//
// The buffers are AlignedBuffers sized to EXACTLY the element count each
// kernel is allowed to touch — no stride padding.  Under the ASan CI leg
// any kernel that reads or writes a pad lane past n faults here, which pins
// the "native path never touches padded_row_elems pad bytes" invariant at
// the kernel level (the pipeline-level sweep would only catch it if the
// stray read changed bytes).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "cell/counters.hpp"
#include "cell/simd.hpp"
#include "cellenc/pipeline.hpp"
#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "common/span2d.hpp"
#include "image/synth.hpp"
#include "jp2k/dwt53.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/mct.hpp"

namespace cj2k {
namespace {

// The awkward sizes: 1-lane, sub-vector, vector-straddling, the unpaddable
// 24 (96 bytes — never a 128-byte-line multiple), primes, and a clean 64.
constexpr std::size_t kRowSizes[] = {1, 2, 3, 5, 8, 24, 31, 33, 64, 97};

/// Exact-size 16-byte-aligned buffer: big enough alignment for the Cell
/// model's quad-word loads, small enough that ASan sees any pad access.
template <typename T>
AlignedBuffer<T> exact(std::size_t n) {
  return AlignedBuffer<T>(n, 16);
}

void fill_samples(Rng& rng, Sample* p, std::size_t n, int span = 255) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<Sample>(rng.next_below(
               static_cast<std::uint64_t>(2 * span + 1))) -
           span;
  }
}

void fill_floats(Rng& rng, float* p, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.next_double() * 256.0 - 128.0);
  }
}

class BackendKernel
    : public ::testing::TestWithParam<backend::BackendKind> {
 protected:
  const backend::KernelBackend& bk() const {
    return backend::get(GetParam());
  }
  cell::OpCounters counters_;
  cell::Simd simd_{counters_};
};

// --- MCT rows --------------------------------------------------------------

TEST_P(BackendKernel, ShiftRctRowMatchesSerialAndRoundTrips) {
  Rng rng(101);
  for (std::size_t n : kRowSizes) {
    auto r = exact<Sample>(n), g = exact<Sample>(n), b = exact<Sample>(n);
    fill_samples(rng, r.data(), n);
    fill_samples(rng, g.data(), n);
    fill_samples(rng, b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {  // unshifted 8-bit samples
      r[i] = (r[i] + 256) % 256;
      g[i] = (g[i] + 256) % 256;
      b[i] = (b[i] + 256) % 256;
    }
    std::vector<Sample> rr(r.data(), r.data() + n), gg(g.data(),
                                                       g.data() + n),
        bb(b.data(), b.data() + n);
    bk().shift_rct_row(simd_, r.data(), g.data(), b.data(), n, 8);

    auto ref_r = rr, ref_g = gg, ref_b = bb;
    jp2k::shift_rct_forward_row(ref_r.data(), ref_g.data(), ref_b.data(), n,
                                8);
    EXPECT_EQ(std::memcmp(r.data(), ref_r.data(), n * sizeof(Sample)), 0)
        << n;
    EXPECT_EQ(std::memcmp(g.data(), ref_g.data(), n * sizeof(Sample)), 0)
        << n;
    EXPECT_EQ(std::memcmp(b.data(), ref_b.data(), n * sizeof(Sample)), 0)
        << n;

    // Perfect reconstruction through the serial inverse.
    jp2k::rct_inverse_row(r.data(), g.data(), b.data(), n);
    jp2k::level_unshift_row(r.data(), n, 8);
    jp2k::level_unshift_row(g.data(), n, 8);
    jp2k::level_unshift_row(b.data(), n, 8);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(r[i], rr[i]) << n << ":" << i;
      EXPECT_EQ(g[i], gg[i]) << n << ":" << i;
      EXPECT_EQ(b[i], bb[i]) << n << ":" << i;
    }
  }
}

TEST_P(BackendKernel, ShiftRowMatchesSerialLevelShift) {
  Rng rng(102);
  for (std::size_t n : kRowSizes) {
    auto x = exact<Sample>(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<Sample>(rng.next_below(256));
    }
    std::vector<Sample> ref(x.data(), x.data() + n);
    bk().shift_row(simd_, x.data(), n, 8);
    jp2k::level_shift_row(ref.data(), n, 8);
    EXPECT_EQ(std::memcmp(x.data(), ref.data(), n * sizeof(Sample)), 0) << n;
  }
}

TEST_P(BackendKernel, ShiftIctRowMatchesSerialBitwise) {
  Rng rng(103);
  for (std::size_t n : kRowSizes) {
    auto r = exact<Sample>(n), g = exact<Sample>(n), b = exact<Sample>(n);
    auto y = exact<float>(n), cb = exact<float>(n), cr = exact<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = static_cast<Sample>(rng.next_below(256));
      g[i] = static_cast<Sample>(rng.next_below(256));
      b[i] = static_cast<Sample>(rng.next_below(256));
    }
    bk().shift_ict_row(simd_, r.data(), g.data(), b.data(), y.data(),
                       cb.data(), cr.data(), n, 8);
    std::vector<float> ry(n), rcb(n), rcr(n);
    jp2k::shift_ict_forward_row(r.data(), g.data(), b.data(), ry.data(),
                                rcb.data(), rcr.data(), n, 8);
    // Bitwise: same operation order under -ffp-contract=off.
    EXPECT_EQ(std::memcmp(y.data(), ry.data(), n * sizeof(float)), 0) << n;
    EXPECT_EQ(std::memcmp(cb.data(), rcb.data(), n * sizeof(float)), 0) << n;
    EXPECT_EQ(std::memcmp(cr.data(), rcr.data(), n * sizeof(float)), 0) << n;
  }
}

TEST_P(BackendKernel, ShiftFixedRowsMatchSerial) {
  Rng rng(104);
  for (std::size_t n : kRowSizes) {
    auto r = exact<Sample>(n), g = exact<Sample>(n), b = exact<Sample>(n);
    auto y = exact<Sample>(n), cb = exact<Sample>(n), cr = exact<Sample>(n);
    for (std::size_t i = 0; i < n; ++i) {
      r[i] = static_cast<Sample>(rng.next_below(256));
      g[i] = static_cast<Sample>(rng.next_below(256));
      b[i] = static_cast<Sample>(rng.next_below(256));
    }
    bk().shift_ict_fixed_row(simd_, r.data(), g.data(), b.data(), y.data(),
                             cb.data(), cr.data(), n, 8);
    std::vector<Sample> ry(n), rcb(n), rcr(n);
    jp2k::shift_ict_forward_row_fixed(r.data(), g.data(), b.data(),
                                      ry.data(), rcb.data(), rcr.data(), n,
                                      8);
    EXPECT_EQ(std::memcmp(y.data(), ry.data(), n * sizeof(Sample)), 0) << n;
    EXPECT_EQ(std::memcmp(cb.data(), rcb.data(), n * sizeof(Sample)), 0)
        << n;
    EXPECT_EQ(std::memcmp(cr.data(), rcr.data(), n * sizeof(Sample)), 0)
        << n;

    auto fx = exact<Sample>(n);
    bk().shift_to_fixed_row(simd_, r.data(), fx.data(), n, 8);
    std::vector<Sample> rfx(n);
    jp2k::shift_to_fixed_row(r.data(), rfx.data(), n, 8);
    EXPECT_EQ(std::memcmp(fx.data(), rfx.data(), n * sizeof(Sample)), 0)
        << n;
  }
}

TEST_P(BackendKernel, ShiftToFloatRowMatchesScalarContract) {
  Rng rng(105);
  for (std::size_t n : kRowSizes) {
    auto x = exact<Sample>(n);
    auto out = exact<float>(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<Sample>(rng.next_below(256));
    }
    bk().shift_to_float_row(simd_, x.data(), out.data(), n, 8);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(out[i], static_cast<float>(x[i] - 128)) << n << ":" << i;
    }
  }
}

// --- DWT vertical lifting rows ---------------------------------------------

TEST_P(BackendKernel, VerticalLiftRowsMatchScalarContracts) {
  Rng rng(106);
  for (std::size_t n : kRowSizes) {
    auto d = exact<Sample>(n), a = exact<Sample>(n), b = exact<Sample>(n);
    fill_samples(rng, d.data(), n, 1 << 12);
    fill_samples(rng, a.data(), n, 1 << 12);
    fill_samples(rng, b.data(), n, 1 << 12);
    std::vector<Sample> pd(d.data(), d.data() + n);
    bk().predict53_row(simd_, d.data(), a.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(d[i], pd[i] - ((a[i] + b[i]) >> 1)) << n << ":" << i;
    }
    std::vector<Sample> ud(d.data(), d.data() + n);
    bk().update53_row(simd_, d.data(), a.data(), b.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(d[i], ud[i] + ((a[i] + b[i] + 2) >> 2)) << n << ":" << i;
    }

    auto x = exact<float>(n), fa = exact<float>(n), fb = exact<float>(n);
    fill_floats(rng, x.data(), n);
    fill_floats(rng, fa.data(), n);
    fill_floats(rng, fb.data(), n);
    std::vector<float> px(x.data(), x.data() + n);
    bk().lift97_row(simd_, x.data(), fa.data(), fb.data(),
                    jp2k::dwt97::kAlpha, n);
    for (std::size_t i = 0; i < n; ++i) {
      // mul-then-add, never fused; the final add commutes bitwise.
      const float expect = jp2k::dwt97::kAlpha * (fa[i] + fb[i]) + px[i];
      EXPECT_EQ(x[i], expect) << n << ":" << i;
    }
    std::vector<float> sx(x.data(), x.data() + n);
    bk().scale_row(simd_, x.data(), jp2k::dwt97::kK, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(x[i], sx[i] * jp2k::dwt97::kK) << n << ":" << i;
    }

    auto fxx = exact<std::int32_t>(n), fxa = exact<std::int32_t>(n),
         fxb = exact<std::int32_t>(n);
    fill_samples(rng, fxx.data(), n, 1 << 20);
    fill_samples(rng, fxa.data(), n, 1 << 20);
    fill_samples(rng, fxb.data(), n, 1 << 20);
    std::vector<std::int32_t> pfx(fxx.data(), fxx.data() + n);
    const std::int32_t c13 = jp2k::dwt97::fix_const(jp2k::dwt97::kGamma);
    bk().lift97_fixed_row(simd_, fxx.data(), fxa.data(), fxb.data(), c13, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(fxx[i], pfx[i] + jp2k::dwt97::fix_mul(c13, fxa[i] + fxb[i]))
          << n << ":" << i;
    }
    auto sfx = exact<Sample>(n);
    fill_samples(rng, sfx.data(), n, 1 << 20);
    std::vector<Sample> psf(sfx.data(), sfx.data() + n);
    bk().scale_fixed_row(simd_, sfx.data(), c13, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(sfx[i], jp2k::dwt97::fix_mul(c13, psf[i])) << n << ":" << i;
    }
  }
}

// --- DWT horizontal full rows ----------------------------------------------

TEST_P(BackendKernel, Dwt53HRowMatchesSerialAnalyzeAndReconstructs) {
  Rng rng(107);
  for (std::size_t n : kRowSizes) {
    if (n < 2) continue;  // the pipeline never splits a 1-sample row
    const std::size_t nl = (n + 1) / 2, nh = n / 2;
    auto in = exact<Sample>(n), even = exact<Sample>(nl),
         odd = exact<Sample>(nh);
    fill_samples(rng, in.data(), n, 1 << 12);
    bk().dwt53_h_row(simd_, in.data(), even.data(), odd.data(), n);

    std::vector<Sample> ref(in.data(), in.data() + n), scratch(n);
    jp2k::dwt53::analyze(ref.data(), n, 1, scratch.data());
    EXPECT_EQ(std::memcmp(even.data(), ref.data(), nl * sizeof(Sample)), 0)
        << n;
    EXPECT_EQ(std::memcmp(odd.data(), ref.data() + nl, nh * sizeof(Sample)),
              0)
        << n;

    // Perfect reconstruction: L|H back through the serial synthesis.
    std::vector<Sample> lh(n);
    std::copy(even.data(), even.data() + nl, lh.begin());
    std::copy(odd.data(), odd.data() + nh, lh.begin() + nl);
    jp2k::dwt53::synthesize(lh.data(), n, 1, scratch.data());
    EXPECT_EQ(std::memcmp(lh.data(), in.data(), n * sizeof(Sample)), 0) << n;
  }
}

TEST_P(BackendKernel, Dwt97HRowMatchesSerialAnalyzeBitwise) {
  Rng rng(108);
  for (std::size_t n : kRowSizes) {
    if (n < 2) continue;
    const std::size_t nl = (n + 1) / 2, nh = n / 2;
    auto in = exact<float>(n), even = exact<float>(nl),
         odd = exact<float>(nh);
    fill_floats(rng, in.data(), n);
    bk().dwt97_h_row(simd_, in.data(), even.data(), odd.data(), n);

    std::vector<float> ref(in.data(), in.data() + n), scratch(n);
    jp2k::dwt97::analyze(ref.data(), n, 1, scratch.data());
    EXPECT_EQ(std::memcmp(even.data(), ref.data(), nl * sizeof(float)), 0)
        << n;
    EXPECT_EQ(std::memcmp(odd.data(), ref.data() + nl, nh * sizeof(float)),
              0)
        << n;
  }
}

TEST_P(BackendKernel, Dwt97FixedHRowMatchesSerialAnalyze) {
  Rng rng(109);
  for (std::size_t n : kRowSizes) {
    if (n < 2) continue;
    const std::size_t nl = (n + 1) / 2, nh = n / 2;
    auto in = exact<Sample>(n), even = exact<Sample>(nl),
         odd = exact<Sample>(nh);
    fill_samples(rng, in.data(), n, 1 << 20);  // Q13-scaled magnitudes
    bk().dwt97_fixed_h_row(simd_, in.data(), even.data(), odd.data(), n);

    std::vector<jp2k::dwt97::Fix> ref(in.data(), in.data() + n), scratch(n);
    jp2k::dwt97::analyze_fixed(ref.data(), n, 1, scratch.data());
    EXPECT_EQ(std::memcmp(even.data(), ref.data(), nl * sizeof(Sample)), 0)
        << n;
    EXPECT_EQ(std::memcmp(odd.data(), ref.data() + nl, nh * sizeof(Sample)),
              0)
        << n;
  }
}

// --- Quantization -----------------------------------------------------------

TEST_P(BackendKernel, QuantRowMatchesScalarContractAndIsMonotone) {
  Rng rng(110);
  for (std::size_t n : kRowSizes) {
    auto in = exact<float>(n);
    auto out = exact<Sample>(n);
    fill_floats(rng, in.data(), n);
    if (n >= 4) {  // adversarial lanes: negative zero, exact ties
      in[0] = -0.0f;
      in[1] = 0.0f;
      in[2] = -1.0f;
      in[3] = 1.0f;
    }
    const float inv = 1.0f / 0.37f;
    bk().quant_row(simd_, in.data(), out.data(), n, inv);
    for (std::size_t i = 0; i < n; ++i) {
      const float v = in[i];
      const float mag = (v < 0.0f ? -v : v) * inv;
      const Sample q = static_cast<Sample>(mag);
      EXPECT_EQ(out[i], v < 0.0f ? -q : q) << n << ":" << i;
    }
  }

  // Monotonicity: |v1| <= |v2|  =>  |q1| <= |q2| (dead-zone quantizer).
  auto in = exact<float>(64);
  auto out = exact<Sample>(64);
  for (std::size_t i = 0; i < 64; ++i) {
    in[i] = 0.05f * static_cast<float>(i);
  }
  bk().quant_row(simd_, in.data(), out.data(), 64, 1.0f / 0.13f);
  for (std::size_t i = 1; i < 64; ++i) {
    EXPECT_LE(out[i - 1], out[i]) << i;
  }
}

TEST_P(BackendKernel, QuantFixedRowMatchesScalarContract) {
  Rng rng(111);
  for (std::size_t n : kRowSizes) {
    auto in = exact<Sample>(n);
    auto out = exact<Sample>(n);
    fill_samples(rng, in.data(), n, 1 << 20);
    const std::int64_t inv = static_cast<std::int64_t>((65536.0 / 0.37) + 0.5);
    bk().quant_fixed_row(simd_, in.data(), out.data(), n, inv);
    for (std::size_t i = 0; i < n; ++i) {
      const Sample v = in[i];
      const std::int64_t a = v < 0 ? -static_cast<std::int64_t>(v) : v;
      const Sample q = static_cast<Sample>((a * inv) >> 29);
      EXPECT_EQ(out[i], v < 0 ? -q : q) << n << ":" << i;
    }
  }
}

// --- Local Store shuffles ---------------------------------------------------

TEST_P(BackendKernel, DeinterleaveAndCopyMatchScalarContracts) {
  Rng rng(112);
  for (std::size_t n : kRowSizes) {
    if (n < 2) continue;  // a 1-sample row has no odd half to deinterleave
    const std::size_t nl = (n + 1) / 2, nh = n / 2;
    auto in = exact<Sample>(n), even = exact<Sample>(nl),
         odd = exact<Sample>(nh);
    fill_samples(rng, in.data(), n);
    bk().deinterleave_row(simd_, in.data(), even.data(), odd.data(), n);
    for (std::size_t i = 0; i < nl; ++i) EXPECT_EQ(even[i], in[2 * i]) << n;
    for (std::size_t i = 0; i < nh; ++i) {
      EXPECT_EQ(odd[i], in[2 * i + 1]) << n;
    }

    auto fin = exact<float>(n), feven = exact<float>(nl),
         fodd = exact<float>(nh);
    fill_floats(rng, fin.data(), n);
    bk().deinterleave_row(simd_, fin.data(), feven.data(), fodd.data(), n);
    for (std::size_t i = 0; i < nl; ++i) {
      EXPECT_EQ(feven[i], fin[2 * i]) << n;
    }
    for (std::size_t i = 0; i < nh; ++i) {
      EXPECT_EQ(fodd[i], fin[2 * i + 1]) << n;
    }

    auto dst = exact<Sample>(n);
    bk().ls_copy(simd_, dst.data(), in.data(), n * sizeof(Sample));
    EXPECT_EQ(std::memcmp(dst.data(), in.data(), n * sizeof(Sample)), 0)
        << n;
  }
}

// --- Cell-model op-counter pins --------------------------------------------

// The Cell model's simulated seconds are computed from the op counters its
// row kernels charge, so the charges are behaviour too.  This table pins one
// call of every Cell-model kernel at each width, and for the two quantizers
// at each 0-3-element start offset past a quad-word boundary (the scalar
// alignment prologue).  Each row lists the twelve SIMD and scalar fields in
// OpCounters declaration order, v_load through s_branch; a row kernel
// charges no Tier-1 or DMA fields.
constexpr std::size_t kPinWidths[] = {1, 3, 4, 7, 24, 97};

struct CounterPin {
  const char* kernel;
  std::size_t n;
  std::size_t offset;
  std::array<std::uint64_t, 12> charges;
};

// clang-format off
constexpr CounterPin kCounterPins[] = {
    {"shift_rct_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0}},
    {"shift_rct_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 12, 0, 0}},
    {"shift_rct_row", 4, 0, {3, 3, 8, 0, 0, 1, 0, 1, 0, 1, 0, 0}},
    {"shift_rct_row", 7, 0, {3, 3, 8, 0, 0, 1, 0, 1, 0, 13, 0, 0}},
    {"shift_rct_row", 24, 0, {18, 18, 48, 0, 0, 6, 0, 1, 0, 6, 0, 0}},
    {"shift_rct_row", 97, 0, {72, 72, 192, 0, 0, 24, 0, 1, 0, 28, 0, 0}},
    {"shift_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0}},
    {"shift_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 12, 0, 0}},
    {"shift_row", 4, 0, {1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 0, 0}},
    {"shift_row", 7, 0, {1, 1, 1, 0, 0, 0, 0, 1, 0, 13, 0, 0}},
    {"shift_row", 24, 0, {6, 6, 6, 0, 0, 0, 0, 1, 0, 6, 0, 0}},
    {"shift_row", 97, 0, {24, 24, 24, 0, 0, 0, 0, 1, 0, 28, 0, 0}},
    {"shift_ict_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 10, 0, 4, 0, 0}},
    {"shift_ict_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 10, 0, 12, 0, 0}},
    {"shift_ict_row", 4, 0, {3, 3, 3, 9, 0, 0, 0, 10, 3, 1, 0, 0}},
    {"shift_ict_row", 7, 0, {3, 3, 3, 9, 0, 0, 0, 10, 3, 13, 0, 0}},
    {"shift_ict_row", 24, 0, {18, 18, 18, 54, 0, 0, 0, 10, 18, 6, 0, 0}},
    {"shift_ict_row", 97, 0, {72, 72, 72, 216, 0, 0, 0, 10, 72, 28, 0, 0}},
    {"shift_to_float_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0}},
    {"shift_to_float_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 12, 0, 0}},
    {"shift_to_float_row", 4, 0, {1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 0, 0}},
    {"shift_to_float_row", 7, 0, {1, 1, 1, 0, 0, 0, 0, 1, 1, 13, 0, 0}},
    {"shift_to_float_row", 24, 0, {6, 6, 6, 0, 0, 0, 0, 1, 6, 6, 0, 0}},
    {"shift_to_float_row", 97, 0, {24, 24, 24, 0, 0, 0, 0, 1, 24, 28, 0, 0}},
    {"shift_ict_fixed_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 10, 0, 4, 0, 0}},
    {"shift_ict_fixed_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 10, 0, 12, 0, 0}},
    {"shift_ict_fixed_row", 4, 0, {3, 3, 9, 0, 9, 0, 0, 10, 0, 1, 0, 0}},
    {"shift_ict_fixed_row", 7, 0, {3, 3, 9, 0, 9, 0, 0, 10, 0, 13, 0, 0}},
    {"shift_ict_fixed_row", 24, 0, {18, 18, 54, 0, 54, 0, 0, 10, 0, 6, 0, 0}},
    {"shift_ict_fixed_row", 97, 0, {72, 72, 216, 0, 216, 0, 0, 10, 0, 28, 0, 0}},
    {"shift_to_fixed_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0}},
    {"shift_to_fixed_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 12, 0, 0}},
    {"shift_to_fixed_row", 4, 0, {1, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0, 0}},
    {"shift_to_fixed_row", 7, 0, {1, 1, 1, 0, 0, 1, 0, 1, 0, 13, 0, 0}},
    {"shift_to_fixed_row", 24, 0, {6, 6, 6, 0, 0, 6, 0, 1, 0, 6, 0, 0}},
    {"shift_to_fixed_row", 97, 0, {24, 24, 24, 0, 0, 24, 0, 1, 0, 28, 0, 0}},
    {"predict53_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0}},
    {"predict53_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0}},
    {"predict53_row", 4, 0, {3, 1, 2, 0, 0, 1, 0, 0, 0, 1, 0, 0}},
    {"predict53_row", 7, 0, {3, 1, 2, 0, 0, 1, 0, 0, 0, 13, 0, 0}},
    {"predict53_row", 24, 0, {18, 6, 12, 0, 0, 6, 0, 0, 0, 6, 0, 0}},
    {"predict53_row", 97, 0, {72, 24, 48, 0, 0, 24, 0, 0, 0, 28, 0, 0}},
    {"update53_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0}},
    {"update53_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 12, 0, 0}},
    {"update53_row", 4, 0, {3, 1, 3, 0, 0, 1, 0, 1, 0, 1, 0, 0}},
    {"update53_row", 7, 0, {3, 1, 3, 0, 0, 1, 0, 1, 0, 13, 0, 0}},
    {"update53_row", 24, 0, {18, 6, 18, 0, 0, 6, 0, 1, 0, 6, 0, 0}},
    {"update53_row", 97, 0, {72, 24, 72, 0, 0, 24, 0, 1, 0, 28, 0, 0}},
    {"lift97_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0}},
    {"lift97_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 12, 0, 0}},
    {"lift97_row", 4, 0, {3, 1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0}},
    {"lift97_row", 7, 0, {3, 1, 1, 1, 0, 0, 0, 1, 0, 13, 0, 0}},
    {"lift97_row", 24, 0, {18, 6, 6, 6, 0, 0, 0, 1, 0, 6, 0, 0}},
    {"lift97_row", 97, 0, {72, 24, 24, 24, 0, 0, 0, 1, 0, 28, 0, 0}},
    {"scale_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0}},
    {"scale_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 12, 0, 0}},
    {"scale_row", 4, 0, {1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0}},
    {"scale_row", 7, 0, {1, 1, 0, 1, 0, 0, 0, 1, 0, 13, 0, 0}},
    {"scale_row", 24, 0, {6, 6, 0, 6, 0, 0, 0, 1, 0, 6, 0, 0}},
    {"scale_row", 97, 0, {24, 24, 0, 24, 0, 0, 0, 1, 0, 28, 0, 0}},
    {"lift97_fixed_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0}},
    {"lift97_fixed_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 12, 0, 0}},
    {"lift97_fixed_row", 4, 0, {3, 1, 2, 0, 1, 1, 0, 1, 0, 1, 0, 0}},
    {"lift97_fixed_row", 7, 0, {3, 1, 2, 0, 1, 1, 0, 1, 0, 13, 0, 0}},
    {"lift97_fixed_row", 24, 0, {18, 6, 12, 0, 6, 6, 0, 1, 0, 6, 0, 0}},
    {"lift97_fixed_row", 97, 0, {72, 24, 48, 0, 24, 24, 0, 1, 0, 28, 0, 0}},
    {"scale_fixed_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 4, 0, 0}},
    {"scale_fixed_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 12, 0, 0}},
    {"scale_fixed_row", 4, 0, {1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0}},
    {"scale_fixed_row", 7, 0, {1, 1, 0, 0, 1, 1, 0, 1, 0, 13, 0, 0}},
    {"scale_fixed_row", 24, 0, {6, 6, 0, 0, 6, 6, 0, 1, 0, 6, 0, 0}},
    {"scale_fixed_row", 97, 0, {24, 24, 0, 0, 24, 24, 0, 1, 0, 28, 0, 0}},
    {"dwt53_h_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0}},
    {"dwt53_h_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 21, 0, 0}},
    {"dwt53_h_row", 4, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 28, 0, 0}},
    {"dwt53_h_row", 7, 0, {0, 0, 0, 0, 0, 0, 0, 1, 0, 49, 0, 0}},
    {"dwt53_h_row", 24, 0, {22, 10, 10, 0, 0, 4, 0, 11, 0, 39, 0, 0}},
    {"dwt53_h_row", 97, 0, {116, 47, 57, 0, 0, 23, 0, 48, 0, 58, 0, 0}},
    {"dwt97_h_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0}},
    {"dwt97_h_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 6, 0, 45, 0, 0}},
    {"dwt97_h_row", 4, 0, {0, 0, 0, 0, 0, 0, 0, 6, 0, 60, 0, 0}},
    {"dwt97_h_row", 7, 0, {1, 1, 0, 1, 0, 0, 0, 6, 0, 90, 0, 0}},
    {"dwt97_h_row", 24, 0, {44, 20, 8, 14, 0, 0, 0, 20, 0, 81, 0, 0}},
    {"dwt97_h_row", 97, 0, {232, 94, 46, 70, 0, 0, 0, 76, 0, 129, 0, 0}},
    {"dwt97_fixed_h_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0}},
    {"dwt97_fixed_h_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 6, 0, 57, 0, 0}},
    {"dwt97_fixed_h_row", 4, 0, {0, 0, 0, 0, 0, 0, 0, 6, 0, 76, 0, 0}},
    {"dwt97_fixed_h_row", 7, 0, {1, 1, 0, 0, 1, 1, 0, 6, 0, 118, 0, 0}},
    {"dwt97_fixed_h_row", 24, 0, {44, 20, 16, 0, 14, 14, 0, 20, 0, 113, 0, 0}},
    {"dwt97_fixed_h_row", 97, 0, {232, 94, 92, 0, 70, 70, 0, 76, 0, 149, 0, 0}},
    {"quant_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 2, 0, 4, 0, 0}},
    {"quant_row", 1, 1, {0, 0, 0, 0, 0, 0, 0, 2, 0, 4, 0, 0}},
    {"quant_row", 1, 2, {0, 0, 0, 0, 0, 0, 0, 2, 0, 4, 0, 0}},
    {"quant_row", 1, 3, {0, 0, 0, 0, 0, 0, 0, 2, 0, 4, 0, 0}},
    {"quant_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 2, 0, 12, 0, 0}},
    {"quant_row", 3, 1, {0, 0, 0, 0, 0, 0, 0, 2, 0, 12, 0, 0}},
    {"quant_row", 3, 2, {0, 0, 0, 0, 0, 0, 0, 2, 0, 12, 0, 0}},
    {"quant_row", 3, 3, {0, 0, 0, 0, 0, 0, 0, 2, 0, 12, 0, 0}},
    {"quant_row", 4, 0, {1, 1, 1, 1, 0, 0, 3, 2, 1, 1, 0, 0}},
    {"quant_row", 4, 1, {0, 0, 0, 0, 0, 0, 0, 2, 0, 16, 0, 0}},
    {"quant_row", 4, 2, {0, 0, 0, 0, 0, 0, 0, 2, 0, 16, 0, 0}},
    {"quant_row", 4, 3, {0, 0, 0, 0, 0, 0, 0, 2, 0, 16, 0, 0}},
    {"quant_row", 7, 0, {1, 1, 1, 1, 0, 0, 3, 2, 1, 13, 0, 0}},
    {"quant_row", 7, 1, {1, 1, 1, 1, 0, 0, 3, 2, 1, 13, 0, 0}},
    {"quant_row", 7, 2, {1, 1, 1, 1, 0, 0, 3, 2, 1, 13, 0, 0}},
    {"quant_row", 7, 3, {1, 1, 1, 1, 0, 0, 3, 2, 1, 13, 0, 0}},
    {"quant_row", 24, 0, {6, 6, 6, 6, 0, 0, 18, 2, 6, 6, 0, 0}},
    {"quant_row", 24, 1, {5, 5, 5, 5, 0, 0, 15, 2, 5, 21, 0, 0}},
    {"quant_row", 24, 2, {5, 5, 5, 5, 0, 0, 15, 2, 5, 21, 0, 0}},
    {"quant_row", 24, 3, {5, 5, 5, 5, 0, 0, 15, 2, 5, 21, 0, 0}},
    {"quant_row", 97, 0, {24, 24, 24, 24, 0, 0, 72, 2, 24, 28, 0, 0}},
    {"quant_row", 97, 1, {23, 23, 23, 23, 0, 0, 69, 2, 23, 43, 0, 0}},
    {"quant_row", 97, 2, {23, 23, 23, 23, 0, 0, 69, 2, 23, 43, 0, 0}},
    {"quant_row", 97, 3, {24, 24, 24, 24, 0, 0, 72, 2, 24, 28, 0, 0}},
    {"quant_fixed_row", 1, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0}},
    {"quant_fixed_row", 1, 1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0}},
    {"quant_fixed_row", 1, 2, {0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0}},
    {"quant_fixed_row", 1, 3, {0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0}},
    {"quant_fixed_row", 3, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 18, 0, 0}},
    {"quant_fixed_row", 3, 1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 18, 0, 0}},
    {"quant_fixed_row", 3, 2, {0, 0, 0, 0, 0, 0, 0, 0, 0, 18, 0, 0}},
    {"quant_fixed_row", 3, 3, {0, 0, 0, 0, 0, 0, 0, 0, 0, 18, 0, 0}},
    {"quant_fixed_row", 4, 0, {1, 1, 0, 0, 2, 1, 2, 0, 0, 1, 0, 0}},
    {"quant_fixed_row", 4, 1, {0, 0, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0}},
    {"quant_fixed_row", 4, 2, {0, 0, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0}},
    {"quant_fixed_row", 4, 3, {0, 0, 0, 0, 0, 0, 0, 0, 0, 24, 0, 0}},
    {"quant_fixed_row", 7, 0, {1, 1, 0, 0, 2, 1, 2, 0, 0, 19, 0, 0}},
    {"quant_fixed_row", 7, 1, {1, 1, 0, 0, 2, 1, 2, 0, 0, 19, 0, 0}},
    {"quant_fixed_row", 7, 2, {1, 1, 0, 0, 2, 1, 2, 0, 0, 19, 0, 0}},
    {"quant_fixed_row", 7, 3, {1, 1, 0, 0, 2, 1, 2, 0, 0, 19, 0, 0}},
    {"quant_fixed_row", 24, 0, {6, 6, 0, 0, 12, 6, 12, 0, 0, 6, 0, 0}},
    {"quant_fixed_row", 24, 1, {5, 5, 0, 0, 10, 5, 10, 0, 0, 29, 0, 0}},
    {"quant_fixed_row", 24, 2, {5, 5, 0, 0, 10, 5, 10, 0, 0, 29, 0, 0}},
    {"quant_fixed_row", 24, 3, {5, 5, 0, 0, 10, 5, 10, 0, 0, 29, 0, 0}},
    {"quant_fixed_row", 97, 0, {24, 24, 0, 0, 48, 24, 48, 0, 0, 30, 0, 0}},
    {"quant_fixed_row", 97, 1, {23, 23, 0, 0, 46, 23, 46, 0, 0, 53, 0, 0}},
    {"quant_fixed_row", 97, 2, {23, 23, 0, 0, 46, 23, 46, 0, 0, 53, 0, 0}},
    {"quant_fixed_row", 97, 3, {24, 24, 0, 0, 48, 24, 48, 0, 0, 30, 0, 0}},
    {"deinterleave_row/int", 1, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0}},
    {"deinterleave_row/int", 3, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0}},
    {"deinterleave_row/int", 4, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0}},
    {"deinterleave_row/int", 7, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 21, 0, 0}},
    {"deinterleave_row/int", 24, 0, {6, 6, 0, 0, 0, 0, 0, 6, 0, 3, 0, 0}},
    {"deinterleave_row/int", 97, 0, {24, 24, 0, 0, 0, 0, 0, 24, 0, 15, 0, 0}},
    {"deinterleave_row/float", 1, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0}},
    {"deinterleave_row/float", 3, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 0, 0}},
    {"deinterleave_row/float", 4, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0}},
    {"deinterleave_row/float", 7, 0, {0, 0, 0, 0, 0, 0, 0, 0, 0, 21, 0, 0}},
    {"deinterleave_row/float", 24, 0, {6, 6, 0, 0, 0, 0, 0, 6, 0, 3, 0, 0}},
    {"deinterleave_row/float", 97, 0, {24, 24, 0, 0, 0, 0, 0, 24, 0, 15, 0, 0}},
    {"ls_copy", 1, 0, {1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}},
    {"ls_copy", 3, 0, {1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}},
    {"ls_copy", 4, 0, {1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0}},
    {"ls_copy", 7, 0, {2, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0}},
    {"ls_copy", 24, 0, {6, 6, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0}},
    {"ls_copy", 97, 0, {25, 25, 0, 0, 0, 0, 0, 25, 0, 0, 0, 0}},
};
// clang-format on

std::array<std::uint64_t, 12> simd_and_scalar_fields(
    const cell::OpCounters& c) {
  return {c.v_load,    c.v_store, c.v_add,     c.v_mul_f,
          c.v_mul_i_emul, c.v_shift, c.v_cmp_sel, c.v_shuffle,
          c.v_cvt,     c.s_int,   c.s_float,   c.s_branch};
}

TEST(BackendKernel, CellCountersPinned) {
  constexpr std::size_t kCap = 128;
  AlignedBuffer<Sample> a(kCap, 16), b(kCap, 16), c(kCap, 16), d(kCap, 16),
      e(kCap, 16), f(kCap, 16);
  AlignedBuffer<float> fa(kCap, 16), fb(kCap, 16), fd(kCap, 16),
      fe(kCap, 16), ff(kCap, 16);
  const auto refill = [&] {
    for (std::size_t i = 0; i < kCap; ++i) {
      a[i] = static_cast<Sample>((i * 37) % 256);
      b[i] = static_cast<Sample>((i * 11 + 5) % 256);
      c[i] = static_cast<Sample>((i * 101 + 17) % 256);
      fa[i] = static_cast<float>(a[i]) - 127.5f;
      fb[i] = static_cast<float>(b[i]) * 0.25f;
    }
  };

  struct Call {
    const char* name;
    bool offsets;  ///< Also run at 1-3-element misaligned starts.
    std::function<void(cell::Simd&, std::size_t n, std::size_t off)> run;
  };
  const backend::KernelBackend& bk = backend::cell_model();
  const Call calls[] = {
      {"shift_rct_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.shift_rct_row(s, a.data(), b.data(), c.data(), n, 8);
       }},
      {"shift_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.shift_row(s, a.data(), n, 8);
       }},
      {"shift_ict_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.shift_ict_row(s, a.data(), b.data(), c.data(), fd.data(),
                          fe.data(), ff.data(), n, 8);
       }},
      {"shift_to_float_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.shift_to_float_row(s, a.data(), fd.data(), n, 8);
       }},
      {"shift_ict_fixed_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.shift_ict_fixed_row(s, a.data(), b.data(), c.data(), d.data(),
                                e.data(), f.data(), n, 8);
       }},
      {"shift_to_fixed_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.shift_to_fixed_row(s, a.data(), d.data(), n, 8);
       }},
      {"predict53_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.predict53_row(s, d.data(), a.data(), b.data(), n);
       }},
      {"update53_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.update53_row(s, d.data(), a.data(), b.data(), n);
       }},
      {"lift97_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.lift97_row(s, fd.data(), fa.data(), fb.data(),
                       jp2k::dwt97::kAlpha, n);
       }},
      {"scale_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.scale_row(s, fa.data(), jp2k::dwt97::kK, n);
       }},
      {"lift97_fixed_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.lift97_fixed_row(s, d.data(), a.data(), b.data(),
                             jp2k::dwt97::kFxGamma, n);
       }},
      {"scale_fixed_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.scale_fixed_row(s, a.data(), jp2k::dwt97::kFxK, n);
       }},
      {"dwt53_h_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.dwt53_h_row(s, a.data(), d.data(), e.data(), n);
       }},
      {"dwt97_h_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.dwt97_h_row(s, fa.data(), fd.data(), fe.data(), n);
       }},
      {"dwt97_fixed_h_row", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.dwt97_fixed_h_row(s, a.data(), d.data(), e.data(), n);
       }},
      {"quant_row", true,
       [&](cell::Simd& s, std::size_t n, std::size_t off) {
         bk.quant_row(s, fa.data() + off, d.data() + off, n, 1.0f / 0.37f);
       }},
      {"quant_fixed_row", true,
       [&](cell::Simd& s, std::size_t n, std::size_t off) {
         bk.quant_fixed_row(s, a.data() + off, d.data() + off, n, 177124);
       }},
      {"deinterleave_row/int", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.deinterleave_row(s, a.data(), d.data(), e.data(), n);
       }},
      {"deinterleave_row/float", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.deinterleave_row(s, fa.data(), fd.data(), fe.data(), n);
       }},
      {"ls_copy", false,
       [&](cell::Simd& s, std::size_t n, std::size_t) {
         bk.ls_copy(s, d.data(), a.data(), n * sizeof(Sample));
       }},
  };

  std::size_t next = 0;
  for (const Call& call : calls) {
    for (const std::size_t n : kPinWidths) {
      for (std::size_t off = 0; off < (call.offsets ? 4u : 1u); ++off) {
        refill();
        cell::OpCounters oc;
        cell::Simd s(oc);
        call.run(s, n, off);
        ASSERT_LT(next, std::size(kCounterPins));
        const CounterPin& pin = kCounterPins[next++];
        ASSERT_STREQ(pin.kernel, call.name);
        ASSERT_EQ(pin.n, n);
        ASSERT_EQ(pin.offset, off);
        EXPECT_EQ(simd_and_scalar_fields(oc), pin.charges)
            << call.name << " n=" << n << " offset=" << off;
        EXPECT_EQ(oc.t1_symbols, 0u) << call.name;
        EXPECT_EQ(oc.dma_bytes_in + oc.dma_bytes_out + oc.dma_transfers +
                      oc.dma_unaligned + oc.dma_tagged_transfers +
                      oc.dma_bytes_tagged,
                  0u)
            << call.name;
      }
    }
  }
  EXPECT_EQ(next, std::size(kCounterPins));
}

// --- The unpaddable column-group geometry, end to end -----------------------

// colgroup_elems=24 forces 96-byte column groups whose row transfers can
// never round up to a 128-byte line: the geometry where a kernel that
// touches padded_row_elems pad lanes has nowhere to hide.  Full encodes
// must still match the serial reference byte for byte on both backends.
TEST_P(BackendKernel, UnpaddableColgroupPipelineMatchesSerial) {
  const Image img = synth::photographic(100, 84, 3, 4242);
  for (const bool lossy : {false, true}) {
    jp2k::CodingParams p;
    p.levels = 3;
    if (lossy) {
      p.wavelet = jp2k::WaveletKind::kIrreversible97;
      p.rate = 0.25;
    }
    const auto serial = jp2k::encode(img, p);

    cell::MachineConfig cfg;
    cfg.num_spes = 3;
    cfg.num_ppe_threads = 1;
    cellenc::CellEncoder enc(cfg);
    cellenc::PipelineOptions opt;
    opt.backend = GetParam();
    opt.dwt.colgroup_elems = 24;
    const auto res = enc.encode(img, p, opt);
    EXPECT_EQ(res.codestream, serial)
        << (lossy ? "lossy" : "lossless") << " backend="
        << backend::get(GetParam()).name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    BothBackends, BackendKernel,
    ::testing::Values(backend::BackendKind::kCellModel,
                      backend::BackendKind::kNative),
    [](const ::testing::TestParamInfo<backend::BackendKind>& info) {
      return std::string(backend::get(info.param).name());
    });

}  // namespace
}  // namespace cj2k
