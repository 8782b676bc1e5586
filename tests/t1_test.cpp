// Tier-1 EBCOT block coder tests: context tables, encoder/decoder
// roundtrip across sizes/orientations/content, pass structure, truncation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "image/image.hpp"
#include "jp2k/ht_block.hpp"
#include "jp2k/mq_encoder.hpp"
#include "jp2k/t1_decoder.hpp"
#include "jp2k/t1_encoder.hpp"

namespace cj2k::jp2k {
namespace {

std::vector<Sample> random_block(std::size_t w, std::size_t h, int maxmag,
                                 std::uint64_t seed, int sparsity = 2) {
  Rng rng(seed);
  std::vector<Sample> v(w * h, 0);
  for (auto& x : v) {
    if (static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
            sparsity))) == 0) {
      const Sample mag =
          static_cast<Sample>(rng.next_below(static_cast<std::uint64_t>(
              maxmag) + 1));
      x = rng.next_below(2) ? -mag : mag;
    }
  }
  return v;
}

void roundtrip_block(const std::vector<Sample>& coeffs, std::size_t w,
                     std::size_t h, SubbandOrient orient) {
  Span2d<const Sample> in(coeffs.data(), w, h);
  const T1EncodedBlock enc = t1_encode_block(in, orient);

  std::vector<Sample> out(w * h, -12345);
  Span2d<Sample> ov(out.data(), w, h);
  t1_decode_block(enc.data.data(), enc.data.size(), enc.num_bitplanes,
                  static_cast<int>(enc.passes.size()), orient, ov);
  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      ASSERT_EQ(out[y * w + x], coeffs[y * w + x])
          << "(" << x << "," << y << ") " << w << "x" << h;
    }
  }
}

TEST(T1ZcContext, CoversAllNeighborhoods) {
  for (const auto orient : {SubbandOrient::LL, SubbandOrient::HL,
                            SubbandOrient::LH, SubbandOrient::HH}) {
    for (int hn = 0; hn <= 2; ++hn) {
      for (int v = 0; v <= 2; ++v) {
        for (int d = 0; d <= 4; ++d) {
          const int c = zc_context(orient, hn, v, d);
          EXPECT_GE(c, 0);
          EXPECT_LE(c, 8);
        }
      }
    }
  }
  // The all-clear neighborhood is context 0 in every band.
  for (const auto orient : {SubbandOrient::LL, SubbandOrient::HL,
                            SubbandOrient::LH, SubbandOrient::HH}) {
    EXPECT_EQ(zc_context(orient, 0, 0, 0), 0);
  }
}

TEST(T1ZcContext, HlIsTransposedLh) {
  for (int hn = 0; hn <= 2; ++hn) {
    for (int v = 0; v <= 2; ++v) {
      for (int d = 0; d <= 4; ++d) {
        EXPECT_EQ(zc_context(SubbandOrient::HL, hn, v, d),
                  zc_context(SubbandOrient::LH, v, hn, d));
      }
    }
  }
}

TEST(T1ScContext, NegationFlipsXorBitOnly) {
  for (int hc = -1; hc <= 1; ++hc) {
    for (int vc = -1; vc <= 1; ++vc) {
      const ScLookup a = sc_lookup(hc, vc);
      const ScLookup b = sc_lookup(-hc, -vc);
      EXPECT_EQ(a.context, b.context);
      if (hc != 0 || vc != 0) {
        EXPECT_NE(a.xor_bit, b.xor_bit);
      }
      EXPECT_GE(a.context, kCtxScBase);
      EXPECT_LE(a.context, kCtxScBase + 4);
    }
  }
}

TEST(T1Roundtrip, AllZeroBlockHasNoPasses) {
  std::vector<Sample> z(64 * 64, 0);
  Span2d<const Sample> in(z.data(), 64, 64);
  const auto enc = t1_encode_block(in, SubbandOrient::LL);
  EXPECT_EQ(enc.num_bitplanes, 0);
  EXPECT_TRUE(enc.passes.empty());
  EXPECT_TRUE(enc.data.empty());
  roundtrip_block(z, 64, 64, SubbandOrient::LL);
}

TEST(T1Roundtrip, SingleCoefficient) {
  for (Sample v : {1, -1, 2, -2, 255, -255, 1 << 20, -(1 << 20)}) {
    std::vector<Sample> b(16 * 16, 0);
    b[5 * 16 + 7] = v;
    roundtrip_block(b, 16, 16, SubbandOrient::HH);
  }
}

TEST(T1Roundtrip, DenseRandom64x64) {
  for (const auto orient : {SubbandOrient::LL, SubbandOrient::HL,
                            SubbandOrient::LH, SubbandOrient::HH}) {
    roundtrip_block(random_block(64, 64, 1000, 17, 1), 64, 64, orient);
  }
}

TEST(T1Roundtrip, SparseRandom64x64) {
  roundtrip_block(random_block(64, 64, 1 << 15, 19, 8), 64, 64,
                  SubbandOrient::LH);
}

struct T1Shape {
  std::size_t w, h;
};
class T1ShapeTest : public ::testing::TestWithParam<T1Shape> {};

TEST_P(T1ShapeTest, RoundtripOddShapes) {
  const auto [w, h] = GetParam();
  roundtrip_block(random_block(w, h, 300, w * 1000 + h, 2), w, h,
                  SubbandOrient::HL);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, T1ShapeTest,
    ::testing::Values(T1Shape{1, 1}, T1Shape{1, 7}, T1Shape{7, 1},
                      T1Shape{3, 3}, T1Shape{4, 4}, T1Shape{5, 4},
                      T1Shape{4, 5}, T1Shape{13, 9}, T1Shape{32, 32},
                      T1Shape{33, 31}, T1Shape{64, 3}, T1Shape{3, 64},
                      T1Shape{64, 64}, T1Shape{17, 64}));

TEST(T1Passes, StructureFollowsTheStandard) {
  const auto b = random_block(32, 32, 500, 23, 1);
  Span2d<const Sample> in(b.data(), 32, 32);
  const auto enc = t1_encode_block(in, SubbandOrient::LL);
  ASSERT_GT(enc.num_bitplanes, 0);
  ASSERT_EQ(enc.passes.size(),
            static_cast<std::size_t>(1 + 3 * (enc.num_bitplanes - 1)));
  // First pass is a cleanup on the top plane; then SPP/MRP/CP triples.
  EXPECT_EQ(enc.passes[0].type, PassType::kCleanup);
  EXPECT_EQ(enc.passes[0].bitplane, enc.num_bitplanes - 1);
  for (std::size_t i = 1; i < enc.passes.size(); i += 3) {
    EXPECT_EQ(enc.passes[i].type, PassType::kSignificance);
    EXPECT_EQ(enc.passes[i + 1].type, PassType::kRefinement);
    EXPECT_EQ(enc.passes[i + 2].type, PassType::kCleanup);
  }
}

TEST(T1Passes, TruncationLengthsAreNonDecreasing) {
  const auto b = random_block(64, 64, 4000, 29, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  const auto enc = t1_encode_block(in, SubbandOrient::HH);
  std::size_t prev = 0;
  for (const auto& p : enc.passes) {
    EXPECT_GE(p.trunc_len, prev);
    prev = p.trunc_len;
  }
  EXPECT_LE(prev, enc.data.size());
}

TEST(T1Passes, DistortionReductionIsNonNegativeAndSums) {
  const auto b = random_block(64, 64, 4000, 31, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  const auto enc = t1_encode_block(in, SubbandOrient::LL);
  double total = 0;
  for (const auto& p : enc.passes) {
    EXPECT_GE(p.dist_reduction, 0.0) << static_cast<int>(p.type);
    total += p.dist_reduction;
  }
  // Coding everything removes all (midpoint-reconstruction) error, so the
  // summed reductions must equal the initial squared magnitude energy.
  double energy = 0;
  for (Sample v : b) energy += static_cast<double>(v) * v;
  EXPECT_NEAR(total, energy, energy * 1e-9 + 1e-6);
}

TEST(T1Truncated, FewerPassesMeansNoWorseThanNothingAndConverges) {
  const auto b = random_block(64, 64, 2000, 37, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  const auto enc = t1_encode_block(in, SubbandOrient::LL);
  const int total = static_cast<int>(enc.passes.size());

  double prev_err = 1e300;
  for (int np : {1, total / 4, total / 2, total - 1, total}) {
    if (np < 1) continue;
    std::vector<Sample> out(64 * 64, 0);
    Span2d<Sample> ov(out.data(), 64, 64);
    const std::size_t len = enc.passes[static_cast<std::size_t>(np - 1)]
                                .trunc_len;
    t1_decode_block(enc.data.data(), std::min(len, enc.data.size()),
                    enc.num_bitplanes, np, SubbandOrient::LL, ov);
    double err = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double d = static_cast<double>(out[i]) - b[i];
      err += d * d;
    }
    EXPECT_LE(err, prev_err * 1.02 + 1e-9) << "passes=" << np;
    prev_err = err;
  }
  EXPECT_EQ(prev_err, 0.0);  // full decode is exact
}

TEST(T1Symbols, CountsArePlausible) {
  const auto b = random_block(64, 64, 255, 41, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  const auto enc = t1_encode_block(in, SubbandOrient::LL);
  EXPECT_GT(enc.total_symbols, 64u * 64u);        // at least one per coeff
  EXPECT_LT(enc.total_symbols, 64u * 64u * 100u); // sane upper bound
  std::uint64_t sum = 0;
  for (const auto& p : enc.passes) sum += p.symbols;
  EXPECT_EQ(sum, enc.total_symbols);
}


struct T1OptCase {
  bool reset;
  bool causal;
};
class T1OptionsTest : public ::testing::TestWithParam<T1OptCase> {};

TEST_P(T1OptionsTest, RoundtripWithCodeBlockStyles) {
  const auto [reset, causal] = GetParam();
  T1Options opt;
  opt.reset_contexts = reset;
  opt.vertically_causal = causal;
  for (const auto orient : {SubbandOrient::LL, SubbandOrient::HL,
                            SubbandOrient::LH, SubbandOrient::HH}) {
    for (auto [w, h] : {std::pair<std::size_t, std::size_t>{64, 64},
                        {33, 31},
                        {7, 9},
                        {64, 5}}) {
      const auto b = random_block(w, h, 800, w * 131 + h, 2);
      Span2d<const Sample> in(b.data(), w, h);
      const auto enc = t1_encode_block(in, orient, opt);
      std::vector<Sample> out(w * h, -1);
      Span2d<Sample> ov(out.data(), w, h);
      t1_decode_block(enc.data.data(), enc.data.size(), enc.num_bitplanes,
                      static_cast<int>(enc.passes.size()), orient, ov, opt);
      EXPECT_EQ(out, b) << w << "x" << h << " orient="
                        << static_cast<int>(orient) << " reset=" << reset
                        << " causal=" << causal;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Styles, T1OptionsTest,
                         ::testing::Values(T1OptCase{false, false},
                                           T1OptCase{true, false},
                                           T1OptCase{false, true},
                                           T1OptCase{true, true}));

TEST(T1Options, MismatchedOptionsCorruptTheDecode) {
  // Decoding with the wrong style flags must NOT reproduce the input —
  // proves the flags genuinely change the coded stream.
  const auto b = random_block(64, 64, 800, 997, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  T1Options reset_on;
  reset_on.reset_contexts = true;
  const auto enc = t1_encode_block(in, SubbandOrient::LL, reset_on);
  std::vector<Sample> out(64 * 64, 0);
  Span2d<Sample> ov(out.data(), 64, 64);
  t1_decode_block(enc.data.data(), enc.data.size(), enc.num_bitplanes,
                  static_cast<int>(enc.passes.size()), SubbandOrient::LL,
                  ov, T1Options{});  // wrong: RESET off
  EXPECT_NE(out, b);
}

TEST(T1Options, ResetChangesStreamButNotMuch) {
  // On dense random content adaptation barely matters either way; the
  // contract is that RESET yields a *different* stream of comparable size.
  const auto b = random_block(64, 64, 2000, 555, 1);
  Span2d<const Sample> in(b.data(), 64, 64);
  const auto plain = t1_encode_block(in, SubbandOrient::LL);
  T1Options opt;
  opt.reset_contexts = true;
  const auto reset = t1_encode_block(in, SubbandOrient::LL, opt);
  EXPECT_NE(reset.data, plain.data);
  EXPECT_GT(reset.data.size(), plain.data.size() * 9 / 10);
  EXPECT_LT(reset.data.size(), plain.data.size() * 11 / 10);
}

// --- Pinned encoder output ------------------------------------------------

/// One pinned block: the coefficients and code-block style a pin row is
/// built from.
struct PinCase {
  std::size_t w, h;
  SubbandOrient orient;
  std::vector<Sample> coeffs;
  T1Options opt;
  std::string label;  ///< Shape, orientation, style and content class.

  Span2d<const Sample> view() const {
    return Span2d<const Sample>(coeffs.data(), w, h);
  }
};

PinCase pin_case(std::size_t w, std::size_t h, SubbandOrient orient,
                 int style, int content) {
  static const char* const kOrient[] = {"LL", "HL", "LH", "HH"};
  static const char* const kStyle[] = {"none", "reset", "vsc", "reset+vsc"};
  static const char* const kContent[] = {"dense", "sparse", "single"};
  PinCase c{w, h, orient, {}, {}, {}};
  const std::uint64_t seed = w * 1009 + h * 31 + static_cast<unsigned>(style);
  if (content == 0) c.coeffs = random_block(w, h, 3000, seed, 1);
  if (content == 1) c.coeffs = random_block(w, h, 1 << 14, seed, 9);
  if (content == 2) {
    c.coeffs.assign(w * h, 0);
    c.coeffs[(h / 2) * w + w / 3] = -1237;
  }
  c.opt.reset_contexts = (style & 1) != 0;
  c.opt.vertically_causal = (style & 2) != 0;
  char label[64];
  std::snprintf(label, sizeof label, "%zux%zu %s %s %s", w, h,
                kOrient[static_cast<int>(orient)], kStyle[style],
                kContent[content]);
  c.label = label;
  return c;
}

/// The 288 pinned blocks: every shape, orientation, style and content class.
std::vector<PinCase> pin_cases() {
  std::vector<PinCase> cases;
  for (const auto& [w, h] : {std::pair<std::size_t, std::size_t>{64, 64},
                            {1, 1},
                            {3, 70},
                            {17, 5},
                            {64, 4},
                            {33, 31}}) {
    for (const auto orient : {SubbandOrient::LL, SubbandOrient::HL,
                              SubbandOrient::LH, SubbandOrient::HH}) {
      for (int style = 0; style < 4; ++style) {
        for (int content = 0; content < 3; ++content) {
          cases.push_back(pin_case(w, h, orient, style, content));
        }
      }
    }
  }
  return cases;
}

/// One pin row: the case label, then the first 16 hex digits of the
/// codeword's SHA-256, the bit plane count, the symbol count, and the first
/// 16 hex digits of a SHA-256 over every PassInfo field (dist_reduction by
/// its bit pattern).
std::string pinned_row(const PinCase& c) {
  const T1EncodedBlock enc = t1_encode_block(c.view(), c.orient, c.opt);

  std::vector<std::uint8_t> pass_bytes;
  const auto put = [&pass_bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      pass_bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  };
  for (const PassInfo& pi : enc.passes) {
    std::uint64_t dist_bits = 0;
    std::memcpy(&dist_bits, &pi.dist_reduction, sizeof dist_bits);
    put(static_cast<std::uint64_t>(pi.type));
    put(static_cast<std::uint64_t>(pi.bitplane));
    put(pi.trunc_len);
    put(dist_bits);
    put(pi.symbols);
  }
  char row[160];
  std::snprintf(row, sizeof row, "%s %.16s %d %llu %.16s", c.label.c_str(),
                common::sha256_hex(enc.data).c_str(), enc.num_bitplanes,
                static_cast<unsigned long long>(enc.total_symbols),
                common::sha256_hex(pass_bytes).c_str());
  return row;
}

// Captured from the encoder before the flag-word rewrite of the Tier-1 core;
// every rewrite of the context modelling or the MQ coder must keep them.
const char* const kPinnedT1Rows[] = {
    "64x64 LL none dense 922469797d0cfd82 12 53259 9cfef9037eba083f",
    "64x64 LL none sparse 3726ac0e1f8f2a82 14 50122 e5618d891fbb1fe2",
    "64x64 LL none single a9541a5fa7c337bc 11 11453 d0b4efef527edcf4",
    "64x64 LL reset dense cf09a6dd35d3acef 12 53206 cf194863dc9e7444",
    "64x64 LL reset sparse 4e26473201fdca7f 14 50944 2aa2a7f76d49bf26",
    "64x64 LL reset single 186a9b0149575340 11 11453 6d632fea9ad8e8bd",
    "64x64 LL vsc dense 993c53a5013d91b3 12 53258 77fb61f573b33e50",
    "64x64 LL vsc sparse c73d655c1badf4a7 14 48596 d8c6c6277585a06a",
    "64x64 LL vsc single d3974f109ab6fa5c 11 11363 73ac72c9b06f7a07",
    "64x64 LL reset+vsc dense 67cb990db0d2092a 12 53290 eb2eaa978c5b7cbb",
    "64x64 LL reset+vsc sparse 041623dbeb8ca886 14 47631 412e33930e8c74d3",
    "64x64 LL reset+vsc single 4cdfaf4bd86561c5 11 11363 896f57783392d6e8",
    "64x64 HL none dense f9bd1e2c07952920 12 53259 5ef4b9c06bf7d023",
    "64x64 HL none sparse 792ed9c4e998e8bb 14 50122 e65668b8f2b78c90",
    "64x64 HL none single a9541a5fa7c337bc 11 11453 d0b4efef527edcf4",
    "64x64 HL reset dense 7a1cc8027131e4d6 12 53206 a09fd4ffdeef64de",
    "64x64 HL reset sparse 2fd794c644fecaa0 14 50944 c48f49b8d18d3f71",
    "64x64 HL reset single 186a9b0149575340 11 11453 6d632fea9ad8e8bd",
    "64x64 HL vsc dense 09f6c5ad4c7b88b7 12 53258 31ad6258c3269e31",
    "64x64 HL vsc sparse b83c4475dcb3ac21 14 48596 e9556ebee55c9355",
    "64x64 HL vsc single d3974f109ab6fa5c 11 11363 73ac72c9b06f7a07",
    "64x64 HL reset+vsc dense 6de704e11e2924a6 12 53290 4c4c56be62442cc7",
    "64x64 HL reset+vsc sparse 8d75b502e604fa14 14 47631 57364b20e952f828",
    "64x64 HL reset+vsc single 4cdfaf4bd86561c5 11 11363 896f57783392d6e8",
    "64x64 LH none dense 922469797d0cfd82 12 53259 9cfef9037eba083f",
    "64x64 LH none sparse 3726ac0e1f8f2a82 14 50122 e5618d891fbb1fe2",
    "64x64 LH none single a9541a5fa7c337bc 11 11453 d0b4efef527edcf4",
    "64x64 LH reset dense cf09a6dd35d3acef 12 53206 cf194863dc9e7444",
    "64x64 LH reset sparse 4e26473201fdca7f 14 50944 2aa2a7f76d49bf26",
    "64x64 LH reset single 186a9b0149575340 11 11453 6d632fea9ad8e8bd",
    "64x64 LH vsc dense 993c53a5013d91b3 12 53258 77fb61f573b33e50",
    "64x64 LH vsc sparse c73d655c1badf4a7 14 48596 d8c6c6277585a06a",
    "64x64 LH vsc single d3974f109ab6fa5c 11 11363 73ac72c9b06f7a07",
    "64x64 LH reset+vsc dense 67cb990db0d2092a 12 53290 eb2eaa978c5b7cbb",
    "64x64 LH reset+vsc sparse 041623dbeb8ca886 14 47631 412e33930e8c74d3",
    "64x64 LH reset+vsc single 4cdfaf4bd86561c5 11 11363 896f57783392d6e8",
    "64x64 HH none dense d88f030f830fffb6 12 53259 03a3fdd6b90723d5",
    "64x64 HH none sparse 6026cc8cb6e4463f 14 50122 b1738a26ea9ce287",
    "64x64 HH none single 407c5f2990cb074a 11 11453 101b68f6c64343d8",
    "64x64 HH reset dense b71aaa62cad660b9 12 53206 eaf4f4bb3f70c82d",
    "64x64 HH reset sparse 00d977c080f820c6 14 50944 6cd80f2dada08036",
    "64x64 HH reset single c7a7c36349e1c299 11 11453 6b08838bd1c98bb3",
    "64x64 HH vsc dense 0c31b378af581f56 12 53258 91afd76ee2229a25",
    "64x64 HH vsc sparse 4adf8c84ed5856bb 14 48596 86dd8c27946dda60",
    "64x64 HH vsc single 6d2d8e3961fc308b 11 11363 73ac72c9b06f7a07",
    "64x64 HH reset+vsc dense 29e273f71d51ad4c 12 53290 4d556ea891c475e5",
    "64x64 HH reset+vsc sparse 8a02bc4c13f554b1 14 47631 b38175af2cea1a96",
    "64x64 HH reset+vsc single d6cc57fc8d0caa0d 11 11363 a7cf0dbae679eeb3",
    "1x1 LL none dense ba4bc5c080642591 11 12 4ead3da8cafabd8e",
    "1x1 LL none sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 LL none single 5372443f362ab785 11 12 7fc0be1009a38b79",
    "1x1 LL reset dense 7f85b05c75a6d5d1 11 12 1c8dd0ce5e25cba9",
    "1x1 LL reset sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 LL reset single 7335d954e89a19d6 11 12 b5aea7382ddd112c",
    "1x1 LL vsc dense 9eed490162cfe532 12 13 a1fa1d18a7712b52",
    "1x1 LL vsc sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 LL vsc single 5372443f362ab785 11 12 7fc0be1009a38b79",
    "1x1 LL reset+vsc dense abd784380578502e 11 12 36d95d409902bff1",
    "1x1 LL reset+vsc sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 LL reset+vsc single 7335d954e89a19d6 11 12 b5aea7382ddd112c",
    "1x1 HL none dense ba4bc5c080642591 11 12 4ead3da8cafabd8e",
    "1x1 HL none sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 HL none single 5372443f362ab785 11 12 7fc0be1009a38b79",
    "1x1 HL reset dense 7f85b05c75a6d5d1 11 12 1c8dd0ce5e25cba9",
    "1x1 HL reset sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 HL reset single 7335d954e89a19d6 11 12 b5aea7382ddd112c",
    "1x1 HL vsc dense 9eed490162cfe532 12 13 a1fa1d18a7712b52",
    "1x1 HL vsc sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 HL vsc single 5372443f362ab785 11 12 7fc0be1009a38b79",
    "1x1 HL reset+vsc dense abd784380578502e 11 12 36d95d409902bff1",
    "1x1 HL reset+vsc sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 HL reset+vsc single 7335d954e89a19d6 11 12 b5aea7382ddd112c",
    "1x1 LH none dense ba4bc5c080642591 11 12 4ead3da8cafabd8e",
    "1x1 LH none sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 LH none single 5372443f362ab785 11 12 7fc0be1009a38b79",
    "1x1 LH reset dense 7f85b05c75a6d5d1 11 12 1c8dd0ce5e25cba9",
    "1x1 LH reset sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 LH reset single 7335d954e89a19d6 11 12 b5aea7382ddd112c",
    "1x1 LH vsc dense 9eed490162cfe532 12 13 a1fa1d18a7712b52",
    "1x1 LH vsc sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 LH vsc single 5372443f362ab785 11 12 7fc0be1009a38b79",
    "1x1 LH reset+vsc dense abd784380578502e 11 12 36d95d409902bff1",
    "1x1 LH reset+vsc sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 LH reset+vsc single 7335d954e89a19d6 11 12 b5aea7382ddd112c",
    "1x1 HH none dense ba4bc5c080642591 11 12 4ead3da8cafabd8e",
    "1x1 HH none sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 HH none single 5372443f362ab785 11 12 7fc0be1009a38b79",
    "1x1 HH reset dense 7f85b05c75a6d5d1 11 12 1c8dd0ce5e25cba9",
    "1x1 HH reset sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 HH reset single 7335d954e89a19d6 11 12 b5aea7382ddd112c",
    "1x1 HH vsc dense 9eed490162cfe532 12 13 a1fa1d18a7712b52",
    "1x1 HH vsc sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 HH vsc single 5372443f362ab785 11 12 7fc0be1009a38b79",
    "1x1 HH reset+vsc dense abd784380578502e 11 12 36d95d409902bff1",
    "1x1 HH reset+vsc sparse e3b0c44298fc1c14 0 0 e3b0c44298fc1c14",
    "1x1 HH reset+vsc single 7335d954e89a19d6 11 12 b5aea7382ddd112c",
    "3x70 LL none dense 50e273632af21af3 12 2735 63eb794334f245c6",
    "3x70 LL none sparse c5c84525d650269a 14 2467 ca5f98e43d06e086",
    "3x70 LL none single 0be491c9c33b16cd 11 822 ec399d82ca3e0eef",
    "3x70 LL reset dense d77e1f2adefa8d94 12 2728 17cadd3187a69610",
    "3x70 LL reset sparse 839e0176e00f54fd 14 2377 b73ee2b54da24621",
    "3x70 LL reset single 7860fae5b0d36c06 11 822 df69497a629ed248",
    "3x70 LL vsc dense 6d8d861a19ea64cd 12 2739 cbcc46f93a56b740",
    "3x70 LL vsc sparse a8ae0219ffdb5fdb 14 2404 0491ca4d08b294d1",
    "3x70 LL vsc single 0be491c9c33b16cd 11 822 ec399d82ca3e0eef",
    "3x70 LL reset+vsc dense efb80f5649641aa2 12 2733 4a4b3230440d4c02",
    "3x70 LL reset+vsc sparse c8b8920799fccef3 14 2677 c497b796268bc306",
    "3x70 LL reset+vsc single 7860fae5b0d36c06 11 822 df69497a629ed248",
    "3x70 HL none dense 16a330e1bb671bdf 12 2735 1bd81dd85af202e9",
    "3x70 HL none sparse 518685184a195c75 14 2467 c36dbafd2c13444c",
    "3x70 HL none single 0be491c9c33b16cd 11 822 ec399d82ca3e0eef",
    "3x70 HL reset dense a55dd82b353a1b8f 12 2728 03dcb7d0fdf1b3ab",
    "3x70 HL reset sparse 73974239da3cf4e9 14 2377 37a2b7e5ad7fcd39",
    "3x70 HL reset single 7860fae5b0d36c06 11 822 df69497a629ed248",
    "3x70 HL vsc dense 0ba5ea15eb372338 12 2739 a37a518d0187d130",
    "3x70 HL vsc sparse 57b7a5e087051c36 14 2404 97979abb8be16f65",
    "3x70 HL vsc single 0be491c9c33b16cd 11 822 ec399d82ca3e0eef",
    "3x70 HL reset+vsc dense 5dec7d9e60cdc520 12 2733 d1f82373f3aa320e",
    "3x70 HL reset+vsc sparse 92d30d9d6bf5db05 14 2677 3c5fd00fa519dcdc",
    "3x70 HL reset+vsc single 7860fae5b0d36c06 11 822 df69497a629ed248",
    "3x70 LH none dense 50e273632af21af3 12 2735 63eb794334f245c6",
    "3x70 LH none sparse c5c84525d650269a 14 2467 ca5f98e43d06e086",
    "3x70 LH none single 0be491c9c33b16cd 11 822 ec399d82ca3e0eef",
    "3x70 LH reset dense d77e1f2adefa8d94 12 2728 17cadd3187a69610",
    "3x70 LH reset sparse 839e0176e00f54fd 14 2377 b73ee2b54da24621",
    "3x70 LH reset single 7860fae5b0d36c06 11 822 df69497a629ed248",
    "3x70 LH vsc dense 6d8d861a19ea64cd 12 2739 cbcc46f93a56b740",
    "3x70 LH vsc sparse a8ae0219ffdb5fdb 14 2404 0491ca4d08b294d1",
    "3x70 LH vsc single 0be491c9c33b16cd 11 822 ec399d82ca3e0eef",
    "3x70 LH reset+vsc dense efb80f5649641aa2 12 2733 4a4b3230440d4c02",
    "3x70 LH reset+vsc sparse c8b8920799fccef3 14 2677 c497b796268bc306",
    "3x70 LH reset+vsc single 7860fae5b0d36c06 11 822 df69497a629ed248",
    "3x70 HH none dense e88e3787ed9aae4e 12 2735 f2c6e69f779578a5",
    "3x70 HH none sparse f944d2e6a47cb278 14 2467 0a05c9bd1ef35b00",
    "3x70 HH none single b7022e1f10d562ff 11 822 ec399d82ca3e0eef",
    "3x70 HH reset dense b3ff56f280086836 12 2728 3808fe4155b8e177",
    "3x70 HH reset sparse dc752a0bcafbc8ae 14 2377 d2fd21b0bdb1044d",
    "3x70 HH reset single 30bf65205578f4ef 11 822 f5d2802ae6cb7ac3",
    "3x70 HH vsc dense ff8b1f5230172354 12 2739 9d95621d40843691",
    "3x70 HH vsc sparse c617cf7b7e4dee74 14 2404 dd4a1bfeecc1180a",
    "3x70 HH vsc single b7022e1f10d562ff 11 822 ec399d82ca3e0eef",
    "3x70 HH reset+vsc dense 3ee0e07029501a54 12 2733 b36bad5c6935c74d",
    "3x70 HH reset+vsc sparse 58c1beb1fc8cd440 14 2677 90e8b03146747455",
    "3x70 HH reset+vsc single 30bf65205578f4ef 11 822 f5d2802ae6cb7ac3",
    "17x5 LL none dense 2468f09603c61db5 12 1109 35865c410388d2f3",
    "17x5 LL none sparse ab646830fcc62b91 14 1062 63315deb7fdba98f",
    "17x5 LL none single a6e2fe8ad2ab2ac6 11 471 9d9f14def136e143",
    "17x5 LL reset dense 5fcc7582806c7a07 12 1094 75db740bb220875d",
    "17x5 LL reset sparse 68ce9bdc35c1633c 14 987 213ea76c9eb4824e",
    "17x5 LL reset single 36301ca891ae03b6 11 471 6601582fd2def90f",
    "17x5 LL vsc dense 8b8c24d075eaa04d 12 1103 ce260eea987f0b9c",
    "17x5 LL vsc sparse 44a1ec417e26d3f7 14 1068 65887419f5bc3252",
    "17x5 LL vsc single a6e2fe8ad2ab2ac6 11 471 9d9f14def136e143",
    "17x5 LL reset+vsc dense be0dbc2cfd073bb9 12 1111 cfbfb66313291902",
    "17x5 LL reset+vsc sparse 5c2e770a5bf8ad40 14 958 e07d07281073cf27",
    "17x5 LL reset+vsc single 36301ca891ae03b6 11 471 6601582fd2def90f",
    "17x5 HL none dense 00900f2da6f2320b 12 1109 6951a1f1d17b19de",
    "17x5 HL none sparse cb09f21d1ceb7fd0 14 1062 766cc861cdf5f375",
    "17x5 HL none single a6e2fe8ad2ab2ac6 11 471 9d9f14def136e143",
    "17x5 HL reset dense 86ad1502f3623fb9 12 1094 4e457ce352f62c84",
    "17x5 HL reset sparse 9a1405ab32ebb517 14 987 2c291eee46b9b17c",
    "17x5 HL reset single 36301ca891ae03b6 11 471 6601582fd2def90f",
    "17x5 HL vsc dense 3b7773fd086b9da6 12 1103 1c834ebe21216b5c",
    "17x5 HL vsc sparse adc59e961fe3b00d 14 1068 0fad69746e88cf02",
    "17x5 HL vsc single a6e2fe8ad2ab2ac6 11 471 9d9f14def136e143",
    "17x5 HL reset+vsc dense d1f3d52cfcece079 12 1111 721367bd75562aec",
    "17x5 HL reset+vsc sparse 12fc4aeb34afba9b 14 958 a90b591495f27624",
    "17x5 HL reset+vsc single 36301ca891ae03b6 11 471 6601582fd2def90f",
    "17x5 LH none dense 2468f09603c61db5 12 1109 35865c410388d2f3",
    "17x5 LH none sparse ab646830fcc62b91 14 1062 63315deb7fdba98f",
    "17x5 LH none single a6e2fe8ad2ab2ac6 11 471 9d9f14def136e143",
    "17x5 LH reset dense 5fcc7582806c7a07 12 1094 75db740bb220875d",
    "17x5 LH reset sparse 68ce9bdc35c1633c 14 987 213ea76c9eb4824e",
    "17x5 LH reset single 36301ca891ae03b6 11 471 6601582fd2def90f",
    "17x5 LH vsc dense 8b8c24d075eaa04d 12 1103 ce260eea987f0b9c",
    "17x5 LH vsc sparse 44a1ec417e26d3f7 14 1068 65887419f5bc3252",
    "17x5 LH vsc single a6e2fe8ad2ab2ac6 11 471 9d9f14def136e143",
    "17x5 LH reset+vsc dense be0dbc2cfd073bb9 12 1111 cfbfb66313291902",
    "17x5 LH reset+vsc sparse 5c2e770a5bf8ad40 14 958 e07d07281073cf27",
    "17x5 LH reset+vsc single 36301ca891ae03b6 11 471 6601582fd2def90f",
    "17x5 HH none dense 12d9c89dcbd5bbbf 12 1109 b6f0d30366cba805",
    "17x5 HH none sparse 6e5ff8478db2c520 14 1062 233c437ff8578d8e",
    "17x5 HH none single a2d489da6617c296 11 471 d9cc26a53d29fed4",
    "17x5 HH reset dense 508a4a3e1af6094f 12 1094 40024ffe0046039f",
    "17x5 HH reset sparse 4d9ea28a63c4578c 14 987 8d12ef41e0b03399",
    "17x5 HH reset single d984b54ef9904396 11 471 2eb3f222df22763e",
    "17x5 HH vsc dense 67744990c8478eea 12 1103 0a0a304bc92a7ef0",
    "17x5 HH vsc sparse e362fa22b1679b8e 14 1068 8c47f58638a0beb6",
    "17x5 HH vsc single a2d489da6617c296 11 471 d9cc26a53d29fed4",
    "17x5 HH reset+vsc dense ea2728f1d1166e6c 12 1111 dadc9e1a2552a5fb",
    "17x5 HH reset+vsc sparse 56f35499420c9c97 14 958 26275c222ebe45dc",
    "17x5 HH reset+vsc single d984b54ef9904396 11 471 2eb3f222df22763e",
    "64x4 LL none dense 91d5ef5e05ff6720 12 3335 92b428b49ec1b107",
    "64x4 LL none sparse 27775c15f0c10e0e 14 3075 3c8fead9b5b7ad4a",
    "64x4 LL none single 990d5b195d0ca2a2 11 801 4245c8bc4358ec60",
    "64x4 LL reset dense 2f9bda432c8e8a57 12 3329 dcdcf5bce96506b1",
    "64x4 LL reset sparse f0ac9b7d32dfdb34 14 2896 a3c5bdce1342c833",
    "64x4 LL reset single cd5da02f29808bef 11 801 335e2b655e020744",
    "64x4 LL vsc dense 0657242195029464 12 3330 3048c344d7a5f950",
    "64x4 LL vsc sparse 76f7caad494d2574 14 3088 d06799960db4b547",
    "64x4 LL vsc single 990d5b195d0ca2a2 11 801 4245c8bc4358ec60",
    "64x4 LL reset+vsc dense d9564e99314e400e 12 3332 ad7aac72385d68e7",
    "64x4 LL reset+vsc sparse f987c63ad4082e1e 14 3024 fe3b8567ac627338",
    "64x4 LL reset+vsc single cd5da02f29808bef 11 801 335e2b655e020744",
    "64x4 HL none dense 65edc6bbfe14bb12 12 3335 4f253027e1411eb7",
    "64x4 HL none sparse c3f47bdaa3041b4a 14 3075 faa34a259f188f94",
    "64x4 HL none single 990d5b195d0ca2a2 11 801 4245c8bc4358ec60",
    "64x4 HL reset dense 34cb3d978efd2fa3 12 3329 5232e00024874737",
    "64x4 HL reset sparse e9887917d321ea23 14 2896 577840d76359a028",
    "64x4 HL reset single cd5da02f29808bef 11 801 335e2b655e020744",
    "64x4 HL vsc dense 44e0af0038f88ae1 12 3330 0cb5f394ef5ba4c5",
    "64x4 HL vsc sparse 16352de950ac1465 14 3088 29dcddc8df1ed7ea",
    "64x4 HL vsc single 990d5b195d0ca2a2 11 801 4245c8bc4358ec60",
    "64x4 HL reset+vsc dense ac1ac4f431edcffb 12 3332 4aeb7158f6e72cd9",
    "64x4 HL reset+vsc sparse 483adbbd9428ec01 14 3024 8592ed7818dbf7ff",
    "64x4 HL reset+vsc single cd5da02f29808bef 11 801 335e2b655e020744",
    "64x4 LH none dense 91d5ef5e05ff6720 12 3335 92b428b49ec1b107",
    "64x4 LH none sparse 27775c15f0c10e0e 14 3075 3c8fead9b5b7ad4a",
    "64x4 LH none single 990d5b195d0ca2a2 11 801 4245c8bc4358ec60",
    "64x4 LH reset dense 2f9bda432c8e8a57 12 3329 dcdcf5bce96506b1",
    "64x4 LH reset sparse f0ac9b7d32dfdb34 14 2896 a3c5bdce1342c833",
    "64x4 LH reset single cd5da02f29808bef 11 801 335e2b655e020744",
    "64x4 LH vsc dense 0657242195029464 12 3330 3048c344d7a5f950",
    "64x4 LH vsc sparse 76f7caad494d2574 14 3088 d06799960db4b547",
    "64x4 LH vsc single 990d5b195d0ca2a2 11 801 4245c8bc4358ec60",
    "64x4 LH reset+vsc dense d9564e99314e400e 12 3332 ad7aac72385d68e7",
    "64x4 LH reset+vsc sparse f987c63ad4082e1e 14 3024 fe3b8567ac627338",
    "64x4 LH reset+vsc single cd5da02f29808bef 11 801 335e2b655e020744",
    "64x4 HH none dense d3e998040588de10 12 3335 cf18530981cc6fe5",
    "64x4 HH none sparse 767b123ccc02a8ae 14 3075 81ab2257a3c23285",
    "64x4 HH none single 008b538ecf5e318b 11 801 9581460b4c2145b6",
    "64x4 HH reset dense f0203cdcb0f15d0c 12 3329 cc1a2e0c81ae80e9",
    "64x4 HH reset sparse 7cf27d20ad128a27 14 2896 23dd3c026ceb0bf7",
    "64x4 HH reset single f4cfd586a70652cf 11 801 5a8578c5d330867f",
    "64x4 HH vsc dense a40b9425137ecb64 12 3330 886903bd26268e73",
    "64x4 HH vsc sparse 3c028bd83cb87378 14 3088 4cda6bec4b52a921",
    "64x4 HH vsc single 008b538ecf5e318b 11 801 9581460b4c2145b6",
    "64x4 HH reset+vsc dense 1d4b5d4f1bdde960 12 3332 088112a035e8bf37",
    "64x4 HH reset+vsc sparse 51393b42d84fd642 14 3024 5fae322298e84b68",
    "64x4 HH reset+vsc single f4cfd586a70652cf 11 801 5a8578c5d330867f",
    "33x31 LL none dense d794c31a899df366 12 13293 62140353b2fddcf9",
    "33x31 LL none sparse cba80276c4a00e90 14 12632 6cc6a6001c9e725d",
    "33x31 LL none single bfd5269569a555d7 11 3825 4c1339559bbe9db8",
    "33x31 LL reset dense fdd9079c8d01caad 12 13310 41ac0e5515f94043",
    "33x31 LL reset sparse e85acd5e2f381c1a 14 12955 4c0c871cbf5a41d8",
    "33x31 LL reset single e5068a6cfcebd388 11 3825 29aa457347585ba7",
    "33x31 LL vsc dense 025741cacfd74df5 12 13308 5b1dcc905147ddec",
    "33x31 LL vsc sparse 3fd280aaa3dd702c 14 12309 3fcb1db103a32b21",
    "33x31 LL vsc single bfd5269569a555d7 11 3825 4c1339559bbe9db8",
    "33x31 LL reset+vsc dense ee8843b7868e6b17 12 13315 f41df916cb169a8b",
    "33x31 LL reset+vsc sparse 01ddbda5c06e35b9 14 12177 39a5363d24f1e428",
    "33x31 LL reset+vsc single e5068a6cfcebd388 11 3825 29aa457347585ba7",
    "33x31 HL none dense 72883d262b8978ce 12 13293 552067d80b287b32",
    "33x31 HL none sparse c5a2535676ec8dbc 14 12632 968fa8e1fd3c2c92",
    "33x31 HL none single bfd5269569a555d7 11 3825 4c1339559bbe9db8",
    "33x31 HL reset dense 5e03b2f755b1afee 12 13310 2041e411ad4a5421",
    "33x31 HL reset sparse e59a776a8c53cbfa 14 12955 e3cd59549cdbbac0",
    "33x31 HL reset single e5068a6cfcebd388 11 3825 29aa457347585ba7",
    "33x31 HL vsc dense 95d55600e40d03ea 12 13308 af3c90daf0705127",
    "33x31 HL vsc sparse 4bd7237405d3d265 14 12309 ff095ced0d7edfea",
    "33x31 HL vsc single bfd5269569a555d7 11 3825 4c1339559bbe9db8",
    "33x31 HL reset+vsc dense 06135c9ecc6ec8b0 12 13315 78a0b7f015fcd5d4",
    "33x31 HL reset+vsc sparse d1f3ef84f390485d 14 12177 e2197c27aa90b193",
    "33x31 HL reset+vsc single e5068a6cfcebd388 11 3825 29aa457347585ba7",
    "33x31 LH none dense d794c31a899df366 12 13293 62140353b2fddcf9",
    "33x31 LH none sparse cba80276c4a00e90 14 12632 6cc6a6001c9e725d",
    "33x31 LH none single bfd5269569a555d7 11 3825 4c1339559bbe9db8",
    "33x31 LH reset dense fdd9079c8d01caad 12 13310 41ac0e5515f94043",
    "33x31 LH reset sparse e85acd5e2f381c1a 14 12955 4c0c871cbf5a41d8",
    "33x31 LH reset single e5068a6cfcebd388 11 3825 29aa457347585ba7",
    "33x31 LH vsc dense 025741cacfd74df5 12 13308 5b1dcc905147ddec",
    "33x31 LH vsc sparse 3fd280aaa3dd702c 14 12309 3fcb1db103a32b21",
    "33x31 LH vsc single bfd5269569a555d7 11 3825 4c1339559bbe9db8",
    "33x31 LH reset+vsc dense ee8843b7868e6b17 12 13315 f41df916cb169a8b",
    "33x31 LH reset+vsc sparse 01ddbda5c06e35b9 14 12177 39a5363d24f1e428",
    "33x31 LH reset+vsc single e5068a6cfcebd388 11 3825 29aa457347585ba7",
    "33x31 HH none dense 33fc4eec2de44e83 12 13293 8dcd7a2e994002f9",
    "33x31 HH none sparse 3b8fbb1823830a8f 14 12632 dde00459013252dd",
    "33x31 HH none single f0cc5edbf78259c8 11 3825 4c1339559bbe9db8",
    "33x31 HH reset dense 48b32f7bcc1a428d 12 13310 fbfec04c153ac149",
    "33x31 HH reset sparse b3d429457250f3a5 14 12955 b1b504cc8b411971",
    "33x31 HH reset single f6a302af8f8b99ba 11 3825 41127ec8f3810238",
    "33x31 HH vsc dense 842286cd444a7eff 12 13308 6f6f2183f236a5eb",
    "33x31 HH vsc sparse 150bf16a3d679865 14 12309 7edace8778efe5b7",
    "33x31 HH vsc single f0cc5edbf78259c8 11 3825 4c1339559bbe9db8",
    "33x31 HH reset+vsc dense 1436ec7e99ef878e 12 13315 433ba8dc9f41b58c",
    "33x31 HH reset+vsc sparse cce6568e3efe45c3 14 12177 1b1c6b91f71c2992",
    "33x31 HH reset+vsc single f6a302af8f8b99ba 11 3825 41127ec8f3810238",
};

TEST(T1Block, EncoderOutputPinned) {
  std::vector<std::string> rows;
  for (const PinCase& c : pin_cases()) rows.push_back(pinned_row(c));
  ASSERT_EQ(rows.size(), std::size(kPinnedT1Rows));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], kPinnedT1Rows[i]) << "row " << i;
  }
}

// The symbol buffer holds one pass at 10 decisions per stripe column.  A
// 1x4 block whose samples all carry the top plane codes exactly that many
// in its first cleanup pass: run-length, two uniform, the first sign, then
// ZC and sign for each of the three samples below.  The encode runs on a
// fresh thread, whose buffer is allocated at exactly 10 bytes, so under
// ASan a pass that writes one more faults.
TEST(T1Block, OnePassFillsTheSymbolBufferBoundExactly) {
  const std::vector<Sample> b = {9, -12, 15, -8};
  T1EncodedBlock enc;
  std::thread([&] {
    enc = t1_encode_block(Span2d<const Sample>(b.data(), 1, 4),
                          SubbandOrient::LL);
  }).join();
  ASSERT_EQ(enc.num_bitplanes, 4);
  ASSERT_FALSE(enc.passes.empty());
  EXPECT_EQ(enc.passes[0].type, PassType::kCleanup);
  EXPECT_EQ(enc.passes[0].symbols, 10u);
  std::vector<Sample> out(4, 0);
  t1_decode_block(enc.data.data(), enc.data.size(), enc.num_bitplanes,
                  static_cast<int>(enc.passes.size()), SubbandOrient::LL,
                  Span2d<Sample>(out.data(), 1, 4));
  EXPECT_EQ(out, b);
}

// The two halves run apart give the same codeword: the recorded symbols,
// MQ-coded pass by pass (contexts reset before each under RESET).
TEST(T1Block, ModelThenCodeMatchesEncode) {
  for (const PinCase& c : pin_cases()) {
    const T1EncodedBlock enc = t1_encode_block(c.view(), c.orient, c.opt);
    const T1Symbols sym = t1_model_block(c.view(), c.orient, c.opt);
    ASSERT_EQ(sym.pass_sizes.size(), enc.passes.size()) << c.label;
    MqEncoder mq;
    T1ContextBank ctx;
    std::size_t at = 0;
    for (std::size_t i = 0; i < sym.pass_sizes.size(); ++i) {
      if (c.opt.reset_contexts) ctx.reset();
      mq.code({sym.bytes.data() + at, sym.pass_sizes[i]}, ctx.data());
      at += sym.pass_sizes[i];
      EXPECT_EQ(sym.pass_sizes[i], enc.passes[i].symbols) << c.label;
    }
    EXPECT_EQ(at, sym.bytes.size()) << c.label;
    if (enc.passes.empty()) continue;  // all-zero block: no codeword
    mq.flush();
    const auto bytes = mq.bytes();
    EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.end()), enc.data)
        << c.label;
  }
}

// --- Pinned decoder output ------------------------------------------------

/// The first 16 hex digits of the SHA-256 of the coefficients decoded from
/// `size` bytes of `data` at `passes` passes, or "throw".
std::string decoded_digest(const PinCase& c, const T1EncodedBlock& enc,
                           const std::uint8_t* data, std::size_t size,
                           int passes) {
  std::vector<Sample> out(c.w * c.h, Sample{-777});
  try {
    t1_decode_block(data, size, enc.num_bitplanes, passes, c.orient,
                    Span2d<Sample>(out.data(), c.w, c.h), c.opt);
  } catch (const Error&) {
    return "throw";
  }
  std::vector<std::uint8_t> bytes;
  bytes.reserve(out.size() * 4);
  for (const Sample s : out) {
    const auto u = static_cast<std::uint32_t>(s);
    for (int k = 0; k < 4; ++k) {
      bytes.push_back(static_cast<std::uint8_t>(u >> (8 * k)));
    }
  }
  return common::sha256_hex(bytes).substr(0, 16);
}

/// One decoder pin row: the case label; the first 16 hex digits of a SHA-256
/// over the decoded digests at every pass boundary, each decode given the
/// codeword truncated at that pass's trunc_len as Tier-2 would send it; the
/// digest of one pass past the plane budget ("throw"); then each aimed bit
/// flip (first byte, the middle pass boundary, last byte) as
/// position.bit=digest of a full decode.
std::string decoder_row(const PinCase& c) {
  const T1EncodedBlock enc = t1_encode_block(c.view(), c.orient, c.opt);
  const int n = static_cast<int>(enc.passes.size());
  std::string cuts;
  for (int k = 0; k <= n; ++k) {
    const std::size_t len = k == 0 ? 0 : enc.passes[k - 1].trunc_len;
    cuts += decoded_digest(c, enc, enc.data.data(), len, k) + " ";
  }
  std::string row = c.label + " " +
                    common::sha256_hex(reinterpret_cast<const std::uint8_t*>(
                                           cuts.data()),
                                       cuts.size())
                        .substr(0, 16) +
                    " " +
                    decoded_digest(c, enc, enc.data.data(), enc.data.size(),
                                   n + 1);
  if (enc.data.empty()) return row;
  const std::size_t last = enc.data.size() - 1;
  const std::size_t mid =
      std::min(last, enc.passes[static_cast<std::size_t>(n / 2)].trunc_len);
  int bit = 7;
  for (const std::size_t pos : {std::size_t{0}, mid, last}) {
    std::vector<std::uint8_t> seg = enc.data;
    seg[pos] ^= static_cast<std::uint8_t>(1u << bit);
    row += " " + std::to_string(pos) + "." + std::to_string(bit) + "=" +
           decoded_digest(c, enc, seg.data(), seg.size(), n);
    bit -= 3;
  }
  return row;
}

// Captured from the decoder before its stripe-column skips and inline MQ
// decode; every rewrite of the decoder's passes must keep them.
const char* const kPinnedT1DecoderRows[] = {
    "64x64 LL none dense e09c2fbbc2b09b8b throw "
    "0.7=d741d9cc494eb88e 4063.4=b01ed6b03d194a6c 6749.1=3a53e571f0b6a6e7",
    "64x64 LL none sparse 890e8ebae4f5aa20 throw "
    "0.7=8ebacb5e7bc79278 813.4=0d48aa3f75e14c4f 1178.1=724b9372bde25322",
    "64x64 LL none single bb28eb55f2958b9f throw "
    "0.7=fd50197ade01e3e8 5.4=b01612a4e0a988df 5.1=86a1661a62c83264",
    "64x64 LL reset dense 018fd014f8b89569 throw "
    "0.7=6fc567dd84af95ca 4067.4=8070af0c289756b7 6744.1=9501ea4d2614448d",
    "64x64 LL reset sparse dbbb709f09663d39 throw "
    "0.7=57b7a4ebd744c8f7 913.4=8b44a8b6e304954a 1345.1=44322edbc9a1167d",
    "64x64 LL reset single bb28eb55f2958b9f throw "
    "0.7=f32892aff95d9eb1 13.4=72f249a1b14c97bb 17.1=ff4dc2c008fd3c8c",
    "64x64 LL vsc dense 517afac3aa354dc7 throw "
    "0.7=513726fe975dc270 4065.4=f8f64802d59044df 6739.1=8e98c45fc9a78513",
    "64x64 LL vsc sparse 4501d5df58237686 throw "
    "0.7=f33ba1ce3fd5bb98 854.4=11f57db76513a44d 1224.1=2bf516034e6c959a",
    "64x64 LL vsc single bb28eb55f2958b9f throw "
    "0.7=62a74dcd9125b918 5.4=950420a7adca249f 5.1=2b6ee7301114fe72",
    "64x64 LL reset+vsc dense f0d1375756338bbe throw "
    "0.7=4ac061638e3dc603 4060.4=ddf5bdc87cb1173d 6746.1=ce25015f78ef6c59",
    "64x64 LL reset+vsc sparse 02d97b1dc2bf50f4 throw "
    "0.7=467bd29832963b38 833.4=e06c9beff3a730b7 1238.1=90702891f4c5c4ce",
    "64x64 LL reset+vsc single bb28eb55f2958b9f throw "
    "0.7=afc0e4868f51bdd0 13.4=3ba9e760f4a266e1 15.1=c27af75d68e0b39c",
    "64x64 HL none dense e09c2fbbc2b09b8b throw "
    "0.7=b935baa44d167897 4063.4=a54802d39fa75961 6748.1=3a53e571f0b6a6e7",
    "64x64 HL none sparse 890e8ebae4f5aa20 throw "
    "0.7=e4c7b895632629e5 813.4=d2265ed35f76dc13 1177.1=724b9372bde25322",
    "64x64 HL none single bb28eb55f2958b9f throw "
    "0.7=2fad6dde2c45ed4b 5.4=baed7a8593b9974a 5.1=86a1661a62c83264",
    "64x64 HL reset dense 018fd014f8b89569 throw "
    "0.7=271f03d108b49f58 4075.4=2de4f577406761d6 6752.1=9501ea4d2614448d",
    "64x64 HL reset sparse dbbb709f09663d39 throw "
    "0.7=7a5d0339d47678fe 914.4=9e09d6c470418704 1346.1=44322edbc9a1167d",
    "64x64 HL reset single bb28eb55f2958b9f throw "
    "0.7=a8f2571bdfbda5e1 13.4=44064e75dc8fd0e0 17.1=ff4dc2c008fd3c8c",
    "64x64 HL vsc dense 517afac3aa354dc7 throw "
    "0.7=81a91187a8ddb13a 4056.4=dae5ec1e034a5794 6730.1=8e98c45fc9a78513",
    "64x64 HL vsc sparse 4501d5df58237686 throw "
    "0.7=d2b6223b379e7487 853.4=a3fd968feb8718a5 1223.1=2bf516034e6c959a",
    "64x64 HL vsc single bb28eb55f2958b9f throw "
    "0.7=b5a3406e7b2d4528 5.4=c577ca7c27e5ce31 5.1=2b6ee7301114fe72",
    "64x64 HL reset+vsc dense f0d1375756338bbe throw "
    "0.7=4f3ffccac529658d 4068.4=dc0023a489777d46 6754.1=71ee80c44b3f0741",
    "64x64 HL reset+vsc sparse 02d97b1dc2bf50f4 throw "
    "0.7=0723dfbabe5d0df3 834.4=29f5140dded0201d 1239.1=6148cd7c2423dbb4",
    "64x64 HL reset+vsc single bb28eb55f2958b9f throw "
    "0.7=22e8db40bcd24ed2 13.4=c2167ffa40ae2837 15.1=1a88e468e3a0dbde",
    "64x64 LH none dense e09c2fbbc2b09b8b throw "
    "0.7=d741d9cc494eb88e 4063.4=b01ed6b03d194a6c 6749.1=3a53e571f0b6a6e7",
    "64x64 LH none sparse 890e8ebae4f5aa20 throw "
    "0.7=8ebacb5e7bc79278 813.4=0d48aa3f75e14c4f 1178.1=724b9372bde25322",
    "64x64 LH none single bb28eb55f2958b9f throw "
    "0.7=fd50197ade01e3e8 5.4=b01612a4e0a988df 5.1=86a1661a62c83264",
    "64x64 LH reset dense 018fd014f8b89569 throw "
    "0.7=6fc567dd84af95ca 4067.4=8070af0c289756b7 6744.1=9501ea4d2614448d",
    "64x64 LH reset sparse dbbb709f09663d39 throw "
    "0.7=57b7a4ebd744c8f7 913.4=8b44a8b6e304954a 1345.1=44322edbc9a1167d",
    "64x64 LH reset single bb28eb55f2958b9f throw "
    "0.7=f32892aff95d9eb1 13.4=72f249a1b14c97bb 17.1=ff4dc2c008fd3c8c",
    "64x64 LH vsc dense 517afac3aa354dc7 throw "
    "0.7=513726fe975dc270 4065.4=f8f64802d59044df 6739.1=8e98c45fc9a78513",
    "64x64 LH vsc sparse 4501d5df58237686 throw "
    "0.7=f33ba1ce3fd5bb98 854.4=11f57db76513a44d 1224.1=2bf516034e6c959a",
    "64x64 LH vsc single bb28eb55f2958b9f throw "
    "0.7=62a74dcd9125b918 5.4=950420a7adca249f 5.1=2b6ee7301114fe72",
    "64x64 LH reset+vsc dense f0d1375756338bbe throw "
    "0.7=4ac061638e3dc603 4060.4=ddf5bdc87cb1173d 6746.1=ce25015f78ef6c59",
    "64x64 LH reset+vsc sparse 02d97b1dc2bf50f4 throw "
    "0.7=467bd29832963b38 833.4=e06c9beff3a730b7 1238.1=90702891f4c5c4ce",
    "64x64 LH reset+vsc single bb28eb55f2958b9f throw "
    "0.7=afc0e4868f51bdd0 13.4=3ba9e760f4a266e1 15.1=c27af75d68e0b39c",
    "64x64 HH none dense e09c2fbbc2b09b8b throw "
    "0.7=f1221d2c166e461e 4063.4=a5c047600fd1bab8 6748.1=3a53e571f0b6a6e7",
    "64x64 HH none sparse 890e8ebae4f5aa20 throw "
    "0.7=8005120fa5adb61e 812.4=d04e1c531252573a 1175.1=724b9372bde25322",
    "64x64 HH none single bb28eb55f2958b9f throw "
    "0.7=71c530df72b04c4d 6.4=ff4dc2c008fd3c8c 6.1=ff4dc2c008fd3c8c",
    "64x64 HH reset dense 018fd014f8b89569 throw "
    "0.7=041afdb6a09ab522 4076.4=9ae3e17aa0c859ae 6753.1=9501ea4d2614448d",
    "64x64 HH reset sparse dbbb709f09663d39 throw "
    "0.7=b9b2031bf15c7543 909.4=99560c257f46f3b7 1340.1=44322edbc9a1167d",
    "64x64 HH reset single bb28eb55f2958b9f throw "
    "0.7=cec0423c891e2688 13.4=8d4ede29c98b6682 16.1=ff4dc2c008fd3c8c",
    "64x64 HH vsc dense 517afac3aa354dc7 throw "
    "0.7=a498cf1c2a89152b 4056.4=5c6f17475fd6ee50 6730.1=8e98c45fc9a78513",
    "64x64 HH vsc sparse 4501d5df58237686 throw "
    "0.7=b4cfa5b9927be9b3 850.4=4d0f30a5d21dfabe 1220.1=2bf516034e6c959a",
    "64x64 HH vsc single bb28eb55f2958b9f throw "
    "0.7=1b9cafc8f97597c1 5.4=6837222ae6ed6d0e 5.1=ff4dc2c008fd3c8c",
    "64x64 HH reset+vsc dense f0d1375756338bbe throw "
    "0.7=0df83446de3dcbf7 4052.4=ec31d88a3b4b5a6d 6738.1=ce25015f78ef6c59",
    "64x64 HH reset+vsc sparse 02d97b1dc2bf50f4 throw "
    "0.7=9bbed3340a615c78 829.4=201afed04600e399 1233.1=6148cd7c2423dbb4",
    "64x64 HH reset+vsc single bb28eb55f2958b9f throw "
    "0.7=0f8cc47969c508f7 12.4=f7a94a3f7c19ae64 15.1=ff4dc2c008fd3c8c",
    "1x1 LL none dense 41b2f0691ca1a67e throw "
    "0.7=df3f619804a92fdb 1.4=426fce4d7c97e816 1.1=bddf4d48ce5b74d0",
    "1x1 LL none sparse c8cfd85cf8bb6939 throw",
    "1x1 LL none single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 2.4=b46c13a290d393ae 2.1=b46c13a290d393ae",
    "1x1 LL reset dense 1a1b54a36becbb63 throw "
    "0.7=df3f619804a92fdb 1.4=222bc363d8b4c9cf 1.1=148c24e26b1eb5d1",
    "1x1 LL reset sparse c8cfd85cf8bb6939 throw",
    "1x1 LL reset single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 1.4=4dd42b836a668313 1.1=069273a7aec082fb",
    "1x1 LL vsc dense ebf9647bbc45ffd1 throw "
    "0.7=df3f619804a92fdb 1.4=2d888197db7feed4 1.1=fba014366df54555",
    "1x1 LL vsc sparse c8cfd85cf8bb6939 throw",
    "1x1 LL vsc single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 2.4=b46c13a290d393ae 2.1=b46c13a290d393ae",
    "1x1 LL reset+vsc dense 1ec14e0a898e9288 throw "
    "0.7=df3f619804a92fdb 1.4=a92d44b9561d8289 1.1=ba22fa5bbce3d4d2",
    "1x1 LL reset+vsc sparse c8cfd85cf8bb6939 throw",
    "1x1 LL reset+vsc single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 1.4=4dd42b836a668313 1.1=069273a7aec082fb",
    "1x1 HL none dense 41b2f0691ca1a67e throw "
    "0.7=df3f619804a92fdb 1.4=426fce4d7c97e816 1.1=bddf4d48ce5b74d0",
    "1x1 HL none sparse c8cfd85cf8bb6939 throw",
    "1x1 HL none single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 2.4=b46c13a290d393ae 2.1=b46c13a290d393ae",
    "1x1 HL reset dense 1a1b54a36becbb63 throw "
    "0.7=df3f619804a92fdb 1.4=222bc363d8b4c9cf 1.1=148c24e26b1eb5d1",
    "1x1 HL reset sparse c8cfd85cf8bb6939 throw",
    "1x1 HL reset single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 1.4=4dd42b836a668313 1.1=069273a7aec082fb",
    "1x1 HL vsc dense ebf9647bbc45ffd1 throw "
    "0.7=df3f619804a92fdb 1.4=2d888197db7feed4 1.1=fba014366df54555",
    "1x1 HL vsc sparse c8cfd85cf8bb6939 throw",
    "1x1 HL vsc single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 2.4=b46c13a290d393ae 2.1=b46c13a290d393ae",
    "1x1 HL reset+vsc dense 1ec14e0a898e9288 throw "
    "0.7=df3f619804a92fdb 1.4=a92d44b9561d8289 1.1=ba22fa5bbce3d4d2",
    "1x1 HL reset+vsc sparse c8cfd85cf8bb6939 throw",
    "1x1 HL reset+vsc single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 1.4=4dd42b836a668313 1.1=069273a7aec082fb",
    "1x1 LH none dense 41b2f0691ca1a67e throw "
    "0.7=df3f619804a92fdb 1.4=426fce4d7c97e816 1.1=bddf4d48ce5b74d0",
    "1x1 LH none sparse c8cfd85cf8bb6939 throw",
    "1x1 LH none single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 2.4=b46c13a290d393ae 2.1=b46c13a290d393ae",
    "1x1 LH reset dense 1a1b54a36becbb63 throw "
    "0.7=df3f619804a92fdb 1.4=222bc363d8b4c9cf 1.1=148c24e26b1eb5d1",
    "1x1 LH reset sparse c8cfd85cf8bb6939 throw",
    "1x1 LH reset single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 1.4=4dd42b836a668313 1.1=069273a7aec082fb",
    "1x1 LH vsc dense ebf9647bbc45ffd1 throw "
    "0.7=df3f619804a92fdb 1.4=2d888197db7feed4 1.1=fba014366df54555",
    "1x1 LH vsc sparse c8cfd85cf8bb6939 throw",
    "1x1 LH vsc single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 2.4=b46c13a290d393ae 2.1=b46c13a290d393ae",
    "1x1 LH reset+vsc dense 1ec14e0a898e9288 throw "
    "0.7=df3f619804a92fdb 1.4=a92d44b9561d8289 1.1=ba22fa5bbce3d4d2",
    "1x1 LH reset+vsc sparse c8cfd85cf8bb6939 throw",
    "1x1 LH reset+vsc single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 1.4=4dd42b836a668313 1.1=069273a7aec082fb",
    "1x1 HH none dense 41b2f0691ca1a67e throw "
    "0.7=df3f619804a92fdb 1.4=426fce4d7c97e816 1.1=bddf4d48ce5b74d0",
    "1x1 HH none sparse c8cfd85cf8bb6939 throw",
    "1x1 HH none single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 2.4=b46c13a290d393ae 2.1=b46c13a290d393ae",
    "1x1 HH reset dense 1a1b54a36becbb63 throw "
    "0.7=df3f619804a92fdb 1.4=222bc363d8b4c9cf 1.1=148c24e26b1eb5d1",
    "1x1 HH reset sparse c8cfd85cf8bb6939 throw",
    "1x1 HH reset single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 1.4=4dd42b836a668313 1.1=069273a7aec082fb",
    "1x1 HH vsc dense ebf9647bbc45ffd1 throw "
    "0.7=df3f619804a92fdb 1.4=2d888197db7feed4 1.1=fba014366df54555",
    "1x1 HH vsc sparse c8cfd85cf8bb6939 throw",
    "1x1 HH vsc single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 2.4=b46c13a290d393ae 2.1=b46c13a290d393ae",
    "1x1 HH reset+vsc dense 1ec14e0a898e9288 throw "
    "0.7=df3f619804a92fdb 1.4=a92d44b9561d8289 1.1=ba22fa5bbce3d4d2",
    "1x1 HH reset+vsc sparse c8cfd85cf8bb6939 throw",
    "1x1 HH reset+vsc single 96207236c0823b06 throw "
    "0.7=df3f619804a92fdb 1.4=4dd42b836a668313 1.1=069273a7aec082fb",
    "3x70 LL none dense 38d947cceee54e15 throw "
    "0.7=51a358e298eabe14 218.4=1d4cd5e8e224d3bc 351.1=0bb38f7d6cd340b4",
    "3x70 LL none sparse 87d3450cc69ff7f7 throw "
    "0.7=10057c7913b41c0a 45.4=1c01916d80f8e818 60.1=67e5b2c4caf8f6e6",
    "3x70 LL none single 2c4423b3d4f34715 throw "
    "0.7=65a212d1ec24f857 5.4=6a3b2ceae447453c 5.1=5ae9778b7c531b66",
    "3x70 LL reset dense 89270015c7433a77 throw "
    "0.7=40277b572c4f2394 218.4=50a1f90d264a91eb 352.1=d477c1a6df00df13",
    "3x70 LL reset sparse 18b62d90a5a3a406 throw "
    "0.7=aa6fc11547db90f5 62.4=01a4b80ff940c8d3 93.1=cde235919b4e96e4",
    "3x70 LL reset single 2c4423b3d4f34715 throw "
    "0.7=cae68e336921384d 11.4=defd35086feddb98 13.1=5ae9778b7c531b66",
    "3x70 LL vsc dense 5df52fbb84c50c0b throw "
    "0.7=192e431d1f78cf56 218.4=5fcae043a4e250a4 350.1=1c7096a62fb00ef0",
    "3x70 LL vsc sparse 541602f71ad3831f throw "
    "0.7=9ec0cb0684bdd96c 58.4=17480f8bad6a9d91 78.1=b8d032fcdb7355b8",
    "3x70 LL vsc single 2c4423b3d4f34715 throw "
    "0.7=5b3898a3af1d5c9e 5.4=6a3b2ceae447453c 5.1=5ae9778b7c531b66",
    "3x70 LL reset+vsc dense 337b7cfc830e876f throw "
    "0.7=5c2c455c2ee99761 217.4=c4bc0e8dc489433a 351.1=4521addb2d9f1b72",
    "3x70 LL reset+vsc sparse eb9ac29224c4f608 throw "
    "0.7=bd4a6ece2503f829 83.4=919c9dd3a50ca0a7 124.1=fe551396dee431a0",
    "3x70 LL reset+vsc single 2c4423b3d4f34715 throw "
    "0.7=4c29056f39f33058 11.4=1c61678a2e6ea5f7 13.1=5ae9778b7c531b66",
    "3x70 HL none dense 38d947cceee54e15 throw "
    "0.7=bcc625f44585e994 216.4=30bf79f26cebb6c6 350.1=747e2f62184d60ac",
    "3x70 HL none sparse 87d3450cc69ff7f7 throw "
    "0.7=5c19e06da0d88a1a 46.4=f62f40430d2f073f 60.1=67e5b2c4caf8f6e6",
    "3x70 HL none single 2c4423b3d4f34715 throw "
    "0.7=0a42e705fc23c964 5.4=6a3b2ceae447453c 5.1=5ae9778b7c531b66",
    "3x70 HL reset dense 89270015c7433a77 throw "
    "0.7=d7b9d58b7aa3dfa6 218.4=85feb4422d3b8543 352.1=d477c1a6df00df13",
    "3x70 HL reset sparse 18b62d90a5a3a406 throw "
    "0.7=b518966874613c10 62.4=7c61d261a6ac81c5 94.1=fbdfbfe99228ec9e",
    "3x70 HL reset single 2c4423b3d4f34715 throw "
    "0.7=be98be0cbaca9bc2 11.4=0b6e0be4ef3464c3 13.1=5ae9778b7c531b66",
    "3x70 HL vsc dense 5df52fbb84c50c0b throw "
    "0.7=901fa73ad97c4367 218.4=2d69abc7173b51f5 350.1=7c52642f63676cac",
    "3x70 HL vsc sparse 541602f71ad3831f throw "
    "0.7=d348e02610878414 58.4=cfc7932504608513 79.1=6ea5698fb8c0e10f",
    "3x70 HL vsc single 2c4423b3d4f34715 throw "
    "0.7=f5697aaa8c9e0e78 5.4=6a3b2ceae447453c 5.1=5ae9778b7c531b66",
    "3x70 HL reset+vsc dense 337b7cfc830e876f throw "
    "0.7=a1cd19a3a0e3a6fb 218.4=3c3f87e991a713f9 352.1=4521addb2d9f1b72",
    "3x70 HL reset+vsc sparse eb9ac29224c4f608 throw "
    "0.7=a22e2b955a570cd2 84.4=a2572fae251ad14f 125.1=cd6f53abb786793c",
    "3x70 HL reset+vsc single 2c4423b3d4f34715 throw "
    "0.7=c2d387f8695d8adb 11.4=4dd088fb86520aaf 13.1=5ae9778b7c531b66",
    "3x70 LH none dense 38d947cceee54e15 throw "
    "0.7=51a358e298eabe14 218.4=1d4cd5e8e224d3bc 351.1=0bb38f7d6cd340b4",
    "3x70 LH none sparse 87d3450cc69ff7f7 throw "
    "0.7=10057c7913b41c0a 45.4=1c01916d80f8e818 60.1=67e5b2c4caf8f6e6",
    "3x70 LH none single 2c4423b3d4f34715 throw "
    "0.7=65a212d1ec24f857 5.4=6a3b2ceae447453c 5.1=5ae9778b7c531b66",
    "3x70 LH reset dense 89270015c7433a77 throw "
    "0.7=40277b572c4f2394 218.4=50a1f90d264a91eb 352.1=d477c1a6df00df13",
    "3x70 LH reset sparse 18b62d90a5a3a406 throw "
    "0.7=aa6fc11547db90f5 62.4=01a4b80ff940c8d3 93.1=cde235919b4e96e4",
    "3x70 LH reset single 2c4423b3d4f34715 throw "
    "0.7=cae68e336921384d 11.4=defd35086feddb98 13.1=5ae9778b7c531b66",
    "3x70 LH vsc dense 5df52fbb84c50c0b throw "
    "0.7=192e431d1f78cf56 218.4=5fcae043a4e250a4 350.1=1c7096a62fb00ef0",
    "3x70 LH vsc sparse 541602f71ad3831f throw "
    "0.7=9ec0cb0684bdd96c 58.4=17480f8bad6a9d91 78.1=b8d032fcdb7355b8",
    "3x70 LH vsc single 2c4423b3d4f34715 throw "
    "0.7=5b3898a3af1d5c9e 5.4=6a3b2ceae447453c 5.1=5ae9778b7c531b66",
    "3x70 LH reset+vsc dense 337b7cfc830e876f throw "
    "0.7=5c2c455c2ee99761 217.4=c4bc0e8dc489433a 351.1=4521addb2d9f1b72",
    "3x70 LH reset+vsc sparse eb9ac29224c4f608 throw "
    "0.7=bd4a6ece2503f829 83.4=919c9dd3a50ca0a7 124.1=fe551396dee431a0",
    "3x70 LH reset+vsc single 2c4423b3d4f34715 throw "
    "0.7=4c29056f39f33058 11.4=1c61678a2e6ea5f7 13.1=5ae9778b7c531b66",
    "3x70 HH none dense 38d947cceee54e15 throw "
    "0.7=3a6d052fbd6d4598 217.4=1d4cd5e8e224d3bc 350.1=0bb38f7d6cd340b4",
    "3x70 HH none sparse 87d3450cc69ff7f7 throw "
    "0.7=0f6c7004d728d391 46.4=b76a48d47eae07c7 60.1=67e5b2c4caf8f6e6",
    "3x70 HH none single 2c4423b3d4f34715 throw "
    "0.7=45994004f7358cbf 5.4=5ae9778b7c531b66 5.1=5ae9778b7c531b66",
    "3x70 HH reset dense 89270015c7433a77 throw "
    "0.7=582c9857403630fe 218.4=732919844c62553b 352.1=d477c1a6df00df13",
    "3x70 HH reset sparse 18b62d90a5a3a406 throw "
    "0.7=5633ca313fbbc643 60.4=9b891c3914c664f4 90.1=fbdfbfe99228ec9e",
    "3x70 HH reset single 2c4423b3d4f34715 throw "
    "0.7=d7a27f8f7a47b07f 10.4=65454378a673578b 11.1=8c3b62c4cd4ea0e1",
    "3x70 HH vsc dense 5df52fbb84c50c0b throw "
    "0.7=7d3cf0945c71adb7 217.4=c5fa277828ec28a5 349.1=3fd68480246ce7d3",
    "3x70 HH vsc sparse 541602f71ad3831f throw "
    "0.7=db90187e96ae7c25 57.4=81658bd049bf65a0 78.1=6ea5698fb8c0e10f",
    "3x70 HH vsc single 2c4423b3d4f34715 throw "
    "0.7=1a961f43a6d7f237 5.4=5ae9778b7c531b66 5.1=5ae9778b7c531b66",
    "3x70 HH reset+vsc dense 337b7cfc830e876f throw "
    "0.7=04d64d733164f9d1 217.4=c4bc0e8dc489433a 351.1=4521addb2d9f1b72",
    "3x70 HH reset+vsc sparse eb9ac29224c4f608 throw "
    "0.7=0ef9302ffc9c6607 81.4=513343b210e02ec9 121.1=925b2523378d5e3a",
    "3x70 HH reset+vsc single 2c4423b3d4f34715 throw "
    "0.7=3c0379242e5d878f 10.4=fa1a9f770ee4e179 11.1=8c3b62c4cd4ea0e1",
    "17x5 LL none dense 8a1f3210e417c2a4 throw "
    "0.7=7ee1a62a6dc1a679 91.4=30e601be1cbb0d2f 144.1=0adea9610d047ddf",
    "17x5 LL none sparse b8227b2e0cfe6f27 throw "
    "0.7=595f59184451781d 26.4=73a5130cf201c25f 32.1=49836fd0cee908ec",
    "17x5 LL none single 70cf3646420c56b2 throw "
    "0.7=67d88fd9b936718f 5.4=d3407916eaaec0d3 5.1=d3407916eaaec0d3",
    "17x5 LL reset dense 85a7ddd0807f13f8 throw "
    "0.7=f5e7c09423666de9 90.4=cd7762c4ceafd03a 141.1=23a6177e269ca784",
    "17x5 LL reset sparse aef20fc79c2a10eb throw "
    "0.7=ca4d2abd5315fe5e 37.4=2ceb869e64208dbb 56.1=c730feacdd517588",
    "17x5 LL reset single 70cf3646420c56b2 throw "
    "0.7=b3d166831a20d39d 10.4=3effa028574735dc 11.1=d3407916eaaec0d3",
    "17x5 LL vsc dense 80d3d4d4e6fbdb12 throw "
    "0.7=017481a16026d9c5 92.4=d08507345d8646bc 145.1=17c34ab253c7e7d6",
    "17x5 LL vsc sparse 045a5069a82c00c9 throw "
    "0.7=31c853df949108fd 30.4=dba452bb2537ad4a 37.1=774248317f88c0eb",
    "17x5 LL vsc single 70cf3646420c56b2 throw "
    "0.7=11a92461ffd14874 5.4=d3407916eaaec0d3 5.1=d3407916eaaec0d3",
    "17x5 LL reset+vsc dense 76843cc2beb2913e throw "
    "0.7=4b6fa917d1237885 90.4=0c4a16783ae3df56 143.1=d93961e2647092c7",
    "17x5 LL reset+vsc sparse 21d3cda4b8e441e6 throw "
    "0.7=93a36b19b4323991 30.4=9a928517da62cea9 46.1=a7e3295f553a874e",
    "17x5 LL reset+vsc single 70cf3646420c56b2 throw "
    "0.7=c4538df3a7e7b360 10.4=3effa028574735dc 11.1=d3407916eaaec0d3",
    "17x5 HL none dense 8a1f3210e417c2a4 throw "
    "0.7=6c94056cc6a91844 91.4=ddd4708ec61dac57 143.1=449c7d6e9275c3f0",
    "17x5 HL none sparse b8227b2e0cfe6f27 throw "
    "0.7=fa799cd890c58416 25.4=b0ae2da6c5af7415 31.1=c6e5e67d3eb599e6",
    "17x5 HL none single 70cf3646420c56b2 throw "
    "0.7=a40ee017d24b67ce 5.4=d3407916eaaec0d3 5.1=d3407916eaaec0d3",
    "17x5 HL reset dense 85a7ddd0807f13f8 throw "
    "0.7=7e184c87d55b0b04 91.4=b7175a152e54a825 141.1=505258e64900650b",
    "17x5 HL reset sparse aef20fc79c2a10eb throw "
    "0.7=75827e7db49467c9 36.4=6b7093401ada99b1 54.1=c730feacdd517588",
    "17x5 HL reset single 70cf3646420c56b2 throw "
    "0.7=af0ac3fd1ae81d89 10.4=d4c8ab658aed6aca 11.1=d3407916eaaec0d3",
    "17x5 HL vsc dense 80d3d4d4e6fbdb12 throw "
    "0.7=41a75d8d033f6ea7 94.4=8488052db59f45e8 147.1=17c34ab253c7e7d6",
    "17x5 HL vsc sparse 045a5069a82c00c9 throw "
    "0.7=bbdf6520b2dd22c3 31.4=b2813723e7a28808 38.1=78c26f3d728129a4",
    "17x5 HL vsc single 70cf3646420c56b2 throw "
    "0.7=ec292d995ee0a434 5.4=d3407916eaaec0d3 5.1=d3407916eaaec0d3",
    "17x5 HL reset+vsc dense 76843cc2beb2913e throw "
    "0.7=7d796e92e11dc50e 90.4=c60cf7f52ad5302f 143.1=d93961e2647092c7",
    "17x5 HL reset+vsc sparse 21d3cda4b8e441e6 throw "
    "0.7=18dac173cdbff1ab 31.4=174b7fb0b72ed97c 47.1=a7656fb9f14820c7",
    "17x5 HL reset+vsc single 70cf3646420c56b2 throw "
    "0.7=288299760ea97f14 10.4=7ca38b2b0223f703 11.1=d3407916eaaec0d3",
    "17x5 LH none dense 8a1f3210e417c2a4 throw "
    "0.7=7ee1a62a6dc1a679 91.4=30e601be1cbb0d2f 144.1=0adea9610d047ddf",
    "17x5 LH none sparse b8227b2e0cfe6f27 throw "
    "0.7=595f59184451781d 26.4=73a5130cf201c25f 32.1=49836fd0cee908ec",
    "17x5 LH none single 70cf3646420c56b2 throw "
    "0.7=67d88fd9b936718f 5.4=d3407916eaaec0d3 5.1=d3407916eaaec0d3",
    "17x5 LH reset dense 85a7ddd0807f13f8 throw "
    "0.7=f5e7c09423666de9 90.4=cd7762c4ceafd03a 141.1=23a6177e269ca784",
    "17x5 LH reset sparse aef20fc79c2a10eb throw "
    "0.7=ca4d2abd5315fe5e 37.4=2ceb869e64208dbb 56.1=c730feacdd517588",
    "17x5 LH reset single 70cf3646420c56b2 throw "
    "0.7=b3d166831a20d39d 10.4=3effa028574735dc 11.1=d3407916eaaec0d3",
    "17x5 LH vsc dense 80d3d4d4e6fbdb12 throw "
    "0.7=017481a16026d9c5 92.4=d08507345d8646bc 145.1=17c34ab253c7e7d6",
    "17x5 LH vsc sparse 045a5069a82c00c9 throw "
    "0.7=31c853df949108fd 30.4=dba452bb2537ad4a 37.1=774248317f88c0eb",
    "17x5 LH vsc single 70cf3646420c56b2 throw "
    "0.7=11a92461ffd14874 5.4=d3407916eaaec0d3 5.1=d3407916eaaec0d3",
    "17x5 LH reset+vsc dense 76843cc2beb2913e throw "
    "0.7=4b6fa917d1237885 90.4=0c4a16783ae3df56 143.1=d93961e2647092c7",
    "17x5 LH reset+vsc sparse 21d3cda4b8e441e6 throw "
    "0.7=93a36b19b4323991 30.4=9a928517da62cea9 46.1=a7e3295f553a874e",
    "17x5 LH reset+vsc single 70cf3646420c56b2 throw "
    "0.7=c4538df3a7e7b360 10.4=3effa028574735dc 11.1=d3407916eaaec0d3",
    "17x5 HH none dense 8a1f3210e417c2a4 throw "
    "0.7=14d5c21bb1c852fa 92.4=ddd4708ec61dac57 144.1=449c7d6e9275c3f0",
    "17x5 HH none sparse b8227b2e0cfe6f27 throw "
    "0.7=db866bf6c5f65a5a 24.4=dbb4fc10da167339 31.1=49836fd0cee908ec",
    "17x5 HH none single 70cf3646420c56b2 throw "
    "0.7=f7798862e7eec083 4.4=760249b27422aa63 4.1=9f8b4dbfe1d837e7",
    "17x5 HH reset dense 85a7ddd0807f13f8 throw "
    "0.7=fc4c41ea577f0ea9 90.4=0c0c0998ab027052 142.1=ec12e72690fca529",
    "17x5 HH reset sparse aef20fc79c2a10eb throw "
    "0.7=e0841c8a5842fef6 36.4=41a5461891b63958 53.1=c730feacdd517588",
    "17x5 HH reset single 70cf3646420c56b2 throw "
    "0.7=e68f3005334f3496 9.4=63318cacec5ccf75 10.1=d3407916eaaec0d3",
    "17x5 HH vsc dense 80d3d4d4e6fbdb12 throw "
    "0.7=127141b3d48c5605 93.4=08127f23e9127c96 146.1=17c34ab253c7e7d6",
    "17x5 HH vsc sparse 045a5069a82c00c9 throw "
    "0.7=b23923a555e80c0c 31.4=34e8f51bb8914ac1 39.1=65ba3c0ac32ee088",
    "17x5 HH vsc single 70cf3646420c56b2 throw "
    "0.7=5a3d64f5908eed84 4.4=38f6bcac7b3526f2 4.1=9f8b4dbfe1d837e7",
    "17x5 HH reset+vsc dense 76843cc2beb2913e throw "
    "0.7=07fe63c149a44e3d 90.4=154008fafd3ef0e7 144.1=e625503e700ec928",
    "17x5 HH reset+vsc sparse 21d3cda4b8e441e6 throw "
    "0.7=6c7e22cf43fe911e 30.4=7593aa2befaf5815 46.1=a7656fb9f14820c7",
    "17x5 HH reset+vsc single 70cf3646420c56b2 throw "
    "0.7=ab7101808b39383b 9.4=7c7bc8ef63d30717 10.1=d3407916eaaec0d3",
    "64x4 LL none dense 641d61eca599424e throw "
    "0.7=fd00b572fa8ad5a6 263.4=ed25e9b4a46f9999 427.1=32284c6b0461c71f",
    "64x4 LL none sparse 8519745d2f4f29fd throw "
    "0.7=2b4ed6697fe2248b 76.4=08349d0db022ccba 105.1=0cc8a9c6e5655638",
    "64x4 LL none single dc92d1fd1adf2b50 throw "
    "0.7=5f70bf18a0860070 5.4=8f245835e7f157f7 5.1=d4352d8e6c473717",
    "64x4 LL reset dense 171397f0484363d0 throw "
    "0.7=891597c1d708793f 262.4=3e316c0af1038e5a 426.1=73060f659aad9fd5",
    "64x4 LL reset sparse 0fa6bcdb4d8e4053 throw "
    "0.7=6eae24cec8e66732 63.4=50c6d7a4ed1feb7b 94.1=a7677d58d72d14ec",
    "64x4 LL reset single dc92d1fd1adf2b50 throw "
    "0.7=9c26201496c5eed0 10.4=5ae76434dda5c9f6 11.1=60553eb4f79f4ba1",
    "64x4 LL vsc dense e4819063c557083f throw "
    "0.7=c1d33aad1868b1d6 266.4=3916b31f171546a0 431.1=f4f8bceea8c6a628",
    "64x4 LL vsc sparse 018febd26fad99b9 throw "
    "0.7=aee206e8c54a79ca 72.4=f2bd82d7ebe5efa4 98.1=53e45e118a0c9342",
    "64x4 LL vsc single dc92d1fd1adf2b50 throw "
    "0.7=5f70bf18a0860070 5.4=8f245835e7f157f7 5.1=d4352d8e6c473717",
    "64x4 LL reset+vsc dense cfe65e8fb7e93077 throw "
    "0.7=023313af840145c8 262.4=c5314bd6f8a5def8 421.1=90cda8cf4e125a89",
    "64x4 LL reset+vsc sparse d748867bfaee6c79 throw "
    "0.7=922f1ce4d6ad81e2 89.4=70c8347d85d33f1d 134.1=4129ea3c961c3806",
    "64x4 LL reset+vsc single dc92d1fd1adf2b50 throw "
    "0.7=9c26201496c5eed0 10.4=5ae76434dda5c9f6 11.1=60553eb4f79f4ba1",
    "64x4 HL none dense 641d61eca599424e throw "
    "0.7=68d1ee117de9385a 263.4=728ca171312dbdea 427.1=32284c6b0461c71f",
    "64x4 HL none sparse 8519745d2f4f29fd throw "
    "0.7=4decd38b877a649f 75.4=51311c1fcbc85c8a 104.1=0cc8a9c6e5655638",
    "64x4 HL none single dc92d1fd1adf2b50 throw "
    "0.7=5f70bf18a0860070 5.4=8f245835e7f157f7 5.1=d4352d8e6c473717",
    "64x4 HL reset dense 171397f0484363d0 throw "
    "0.7=fef35fa16aa27331 263.4=f5bb0b0097106791 427.1=0781a1bcc49821d7",
    "64x4 HL reset sparse 0fa6bcdb4d8e4053 throw "
    "0.7=71c5dd465d136b1c 66.4=a871c683b6da6b67 97.1=80135ffb2da25e79",
    "64x4 HL reset single dc92d1fd1adf2b50 throw "
    "0.7=5a1eaf0aac043a24 10.4=00ab2d919436d8c1 11.1=5c1af7352d5ba40f",
    "64x4 HL vsc dense e4819063c557083f throw "
    "0.7=01c3443571724501 265.4=2679bbbfc73dab77 430.1=f4f8bceea8c6a628",
    "64x4 HL vsc sparse 018febd26fad99b9 throw "
    "0.7=524783a89fe232f2 72.4=b2250e7a74c03466 97.1=53e45e118a0c9342",
    "64x4 HL vsc single dc92d1fd1adf2b50 throw "
    "0.7=5f70bf18a0860070 5.4=8f245835e7f157f7 5.1=d4352d8e6c473717",
    "64x4 HL reset+vsc dense cfe65e8fb7e93077 throw "
    "0.7=986f8eaedb49c61a 263.4=b75183e7b291876a 422.1=90cda8cf4e125a89",
    "64x4 HL reset+vsc sparse d748867bfaee6c79 throw "
    "0.7=55333aa8af20a740 89.4=9f671c501da62271 134.1=01f0450a59046e54",
    "64x4 HL reset+vsc single dc92d1fd1adf2b50 throw "
    "0.7=5a1eaf0aac043a24 10.4=00ab2d919436d8c1 11.1=5c1af7352d5ba40f",
    "64x4 LH none dense 641d61eca599424e throw "
    "0.7=fd00b572fa8ad5a6 263.4=ed25e9b4a46f9999 427.1=32284c6b0461c71f",
    "64x4 LH none sparse 8519745d2f4f29fd throw "
    "0.7=2b4ed6697fe2248b 76.4=08349d0db022ccba 105.1=0cc8a9c6e5655638",
    "64x4 LH none single dc92d1fd1adf2b50 throw "
    "0.7=5f70bf18a0860070 5.4=8f245835e7f157f7 5.1=d4352d8e6c473717",
    "64x4 LH reset dense 171397f0484363d0 throw "
    "0.7=891597c1d708793f 262.4=3e316c0af1038e5a 426.1=73060f659aad9fd5",
    "64x4 LH reset sparse 0fa6bcdb4d8e4053 throw "
    "0.7=6eae24cec8e66732 63.4=50c6d7a4ed1feb7b 94.1=a7677d58d72d14ec",
    "64x4 LH reset single dc92d1fd1adf2b50 throw "
    "0.7=9c26201496c5eed0 10.4=5ae76434dda5c9f6 11.1=60553eb4f79f4ba1",
    "64x4 LH vsc dense e4819063c557083f throw "
    "0.7=c1d33aad1868b1d6 266.4=3916b31f171546a0 431.1=f4f8bceea8c6a628",
    "64x4 LH vsc sparse 018febd26fad99b9 throw "
    "0.7=aee206e8c54a79ca 72.4=f2bd82d7ebe5efa4 98.1=53e45e118a0c9342",
    "64x4 LH vsc single dc92d1fd1adf2b50 throw "
    "0.7=5f70bf18a0860070 5.4=8f245835e7f157f7 5.1=d4352d8e6c473717",
    "64x4 LH reset+vsc dense cfe65e8fb7e93077 throw "
    "0.7=023313af840145c8 262.4=c5314bd6f8a5def8 421.1=90cda8cf4e125a89",
    "64x4 LH reset+vsc sparse d748867bfaee6c79 throw "
    "0.7=922f1ce4d6ad81e2 89.4=70c8347d85d33f1d 134.1=4129ea3c961c3806",
    "64x4 LH reset+vsc single dc92d1fd1adf2b50 throw "
    "0.7=9c26201496c5eed0 10.4=5ae76434dda5c9f6 11.1=60553eb4f79f4ba1",
    "64x4 HH none dense 641d61eca599424e throw "
    "0.7=c6eabe1742f1cb55 263.4=497a27f7d8daddfa 427.1=526ac17e92947e8d",
    "64x4 HH none sparse 8519745d2f4f29fd throw "
    "0.7=fff44ba39892a685 75.4=ac0291cd3d4c3c26 103.1=f9e59a2162755eb3",
    "64x4 HH none single dc92d1fd1adf2b50 throw "
    "0.7=5f70bf18a0860070 4.4=9b6968cd0ed47507 4.1=c0746919560aeb92",
    "64x4 HH reset dense 171397f0484363d0 throw "
    "0.7=8b06773f3cc6235d 264.4=32a77e234ff2a7c2 428.1=73060f659aad9fd5",
    "64x4 HH reset sparse 0fa6bcdb4d8e4053 throw "
    "0.7=3efd23b913d8b598 64.4=eeb2bd7ea8ad2bd6 94.1=80135ffb2da25e79",
    "64x4 HH reset single dc92d1fd1adf2b50 throw "
    "0.7=2dfb589ff78c481f 10.4=47f8bc1a4c160e43 10.1=d4352d8e6c473717",
    "64x4 HH vsc dense e4819063c557083f throw "
    "0.7=53235410b2f60d4d 265.4=279e59df63c431eb 430.1=f4f8bceea8c6a628",
    "64x4 HH vsc sparse 018febd26fad99b9 throw "
    "0.7=9db54b1011fb6a96 71.4=380795ee27802525 97.1=8c355dec888cda77",
    "64x4 HH vsc single dc92d1fd1adf2b50 throw "
    "0.7=5f70bf18a0860070 4.4=9b6968cd0ed47507 4.1=c0746919560aeb92",
    "64x4 HH reset+vsc dense cfe65e8fb7e93077 throw "
    "0.7=3b41f243b69cf2bc 262.4=2d1b52c04afcf4ff 421.1=90cda8cf4e125a89",
    "64x4 HH reset+vsc sparse d748867bfaee6c79 throw "
    "0.7=383f1d98f8cdc1e7 86.4=b0c8839f96660989 129.1=062e9c7199194181",
    "64x4 HH reset+vsc single dc92d1fd1adf2b50 throw "
    "0.7=2dfb589ff78c481f 10.4=47f8bc1a4c160e43 10.1=d4352d8e6c473717",
    "33x31 LL none dense e9f3c449ff100016 throw "
    "0.7=783856fb15048355 1022.4=e94b95f98a7d9905 1689.1=de408ec02eefa30f",
    "33x31 LL none sparse ddc8ec8426245ffe throw "
    "0.7=6c79da60057e1569 200.4=ad6b59a64437cbea 284.1=10e19e9e1ce2436b",
    "33x31 LL none single 5bbf9d1e5b920e05 throw "
    "0.7=1b1c3cabac5450fd 5.4=8b65f3bbb955c422 5.1=184a3968ec7c5c24",
    "33x31 LL reset dense de58d508695e7158 throw "
    "0.7=7b8e969425b0acb8 1021.4=f49605d9c1474bfd 1686.1=28c06dbd156a2111",
    "33x31 LL reset sparse 0dfbf79e24960b05 throw "
    "0.7=6b2ee3d6291638a0 236.4=4ae1b313d5be24e1 353.1=1a6ace935d4c728e",
    "33x31 LL reset single 5bbf9d1e5b920e05 throw "
    "0.7=5e29914c1484b65f 13.4=a0281d2fc1179273 16.1=c48e773cbf396602",
    "33x31 LL vsc dense 7e2d5fddc6db96c7 throw "
    "0.7=07c476c69a7cbc13 1028.4=41f9a68faa13a6e8 1694.1=56bda4b3468794e0",
    "33x31 LL vsc sparse 09b3d8c789767e9f throw "
    "0.7=d03e94a30838b556 221.4=0d3a90371d8da84b 311.1=695fa2d417942fdc",
    "33x31 LL vsc single 5bbf9d1e5b920e05 throw "
    "0.7=dee22c80cbc2308f 5.4=8b65f3bbb955c422 5.1=f7725fcbeff2cbe7",
    "33x31 LL reset+vsc dense 016ccdafd0a32f76 throw "
    "0.7=7a828f4237d82446 1026.4=5a8e3da7a9a8b25f 1687.1=6a95d3aa865fa00c",
    "33x31 LL reset+vsc sparse 73d93eddfd5a45e2 throw "
    "0.7=c6f10ac6e3901eeb 235.4=a2d1ab554342f37c 355.1=2f439338398742b1",
    "33x31 LL reset+vsc single 5bbf9d1e5b920e05 throw "
    "0.7=e65a5599370f041e 13.4=35550513c2085b76 16.1=c48e773cbf396602",
    "33x31 HL none dense e9f3c449ff100016 throw "
    "0.7=e1f9e8b13023a52d 1022.4=8bf86db720e7f563 1689.1=53c492d77a786907",
    "33x31 HL none sparse ddc8ec8426245ffe throw "
    "0.7=b934b76ab7423cdc 199.4=71644a050ef59531 284.1=ca2fd620e704b385",
    "33x31 HL none single 5bbf9d1e5b920e05 throw "
    "0.7=753c7699fd12e356 5.4=a096e746d510102b 5.1=d03b046a63b9e173",
    "33x31 HL reset dense de58d508695e7158 throw "
    "0.7=23601df2521bad5a 1022.4=eafcf6f2aa30b5cc 1687.1=28c06dbd156a2111",
    "33x31 HL reset sparse 0dfbf79e24960b05 throw "
    "0.7=7da5a01a7956f80f 237.4=cbe821014d0657c9 355.1=1a6ace935d4c728e",
    "33x31 HL reset single 5bbf9d1e5b920e05 throw "
    "0.7=56f68fc00bd62cd8 13.4=46390fbb6b23a961 16.1=c48e773cbf396602",
    "33x31 HL vsc dense 7e2d5fddc6db96c7 throw "
    "0.7=5e3cd3f690f5dea2 1030.4=9afc0c3e4b6f084d 1696.1=56bda4b3468794e0",
    "33x31 HL vsc sparse 09b3d8c789767e9f throw "
    "0.7=bc80e86e0d64d78e 223.4=b122d764e3f523a2 312.1=695fa2d417942fdc",
    "33x31 HL vsc single 5bbf9d1e5b920e05 throw "
    "0.7=e60a146489d6abca 5.4=d8bcfa81b9c0ed5c 5.1=332fea7d1d8c73b9",
    "33x31 HL reset+vsc dense 016ccdafd0a32f76 throw "
    "0.7=8df90fd012926ed6 1026.4=1f4bd39fb9dd9d75 1688.1=3a0929789690d719",
    "33x31 HL reset+vsc sparse 73d93eddfd5a45e2 throw "
    "0.7=05521b3d036344eb 236.4=2e3af099197c36a0 355.1=dce6bcd417a0ea56",
    "33x31 HL reset+vsc single 5bbf9d1e5b920e05 throw "
    "0.7=3c2be1d0365de95a 13.4=5b6519b46b184397 16.1=c48e773cbf396602",
    "33x31 LH none dense e9f3c449ff100016 throw "
    "0.7=783856fb15048355 1022.4=e94b95f98a7d9905 1689.1=de408ec02eefa30f",
    "33x31 LH none sparse ddc8ec8426245ffe throw "
    "0.7=6c79da60057e1569 200.4=ad6b59a64437cbea 284.1=10e19e9e1ce2436b",
    "33x31 LH none single 5bbf9d1e5b920e05 throw "
    "0.7=1b1c3cabac5450fd 5.4=8b65f3bbb955c422 5.1=184a3968ec7c5c24",
    "33x31 LH reset dense de58d508695e7158 throw "
    "0.7=7b8e969425b0acb8 1021.4=f49605d9c1474bfd 1686.1=28c06dbd156a2111",
    "33x31 LH reset sparse 0dfbf79e24960b05 throw "
    "0.7=6b2ee3d6291638a0 236.4=4ae1b313d5be24e1 353.1=1a6ace935d4c728e",
    "33x31 LH reset single 5bbf9d1e5b920e05 throw "
    "0.7=5e29914c1484b65f 13.4=a0281d2fc1179273 16.1=c48e773cbf396602",
    "33x31 LH vsc dense 7e2d5fddc6db96c7 throw "
    "0.7=07c476c69a7cbc13 1028.4=41f9a68faa13a6e8 1694.1=56bda4b3468794e0",
    "33x31 LH vsc sparse 09b3d8c789767e9f throw "
    "0.7=d03e94a30838b556 221.4=0d3a90371d8da84b 311.1=695fa2d417942fdc",
    "33x31 LH vsc single 5bbf9d1e5b920e05 throw "
    "0.7=dee22c80cbc2308f 5.4=8b65f3bbb955c422 5.1=f7725fcbeff2cbe7",
    "33x31 LH reset+vsc dense 016ccdafd0a32f76 throw "
    "0.7=7a828f4237d82446 1026.4=5a8e3da7a9a8b25f 1687.1=6a95d3aa865fa00c",
    "33x31 LH reset+vsc sparse 73d93eddfd5a45e2 throw "
    "0.7=c6f10ac6e3901eeb 235.4=a2d1ab554342f37c 355.1=2f439338398742b1",
    "33x31 LH reset+vsc single 5bbf9d1e5b920e05 throw "
    "0.7=e65a5599370f041e 13.4=35550513c2085b76 16.1=c48e773cbf396602",
    "33x31 HH none dense e9f3c449ff100016 throw "
    "0.7=2061b29666e5c4e1 1023.4=e17e7aef49078293 1690.1=de408ec02eefa30f",
    "33x31 HH none sparse ddc8ec8426245ffe throw "
    "0.7=96f4e0a91a423819 199.4=e1f0b90c4da911c5 283.1=ca2fd620e704b385",
    "33x31 HH none single 5bbf9d1e5b920e05 throw "
    "0.7=74691d24f3e69c2c 5.4=21b3da205cf367ed 5.1=743c95c4bb845831",
    "33x31 HH reset dense de58d508695e7158 throw "
    "0.7=7fca4d28898384b2 1025.4=1386b3d040a9e0eb 1690.1=28c06dbd156a2111",
    "33x31 HH reset sparse 0dfbf79e24960b05 throw "
    "0.7=fe9229f0622a729f 234.4=05058a7778622f22 351.1=1a6ace935d4c728e",
    "33x31 HH reset single 5bbf9d1e5b920e05 throw "
    "0.7=13e379afbed3ce6c 12.4=95951e09ffbbaf0a 14.1=56782b962bb935ee",
    "33x31 HH vsc dense 7e2d5fddc6db96c7 throw "
    "0.7=e88a903a4279faa1 1029.4=f86b35bcccbc2f2d 1694.1=ed1794a0777159ae",
    "33x31 HH vsc sparse 09b3d8c789767e9f throw "
    "0.7=83caa77656ff3fdc 219.4=88225ee77ccccd9b 308.1=695fa2d417942fdc",
    "33x31 HH vsc single 5bbf9d1e5b920e05 throw "
    "0.7=c7413cc519c66955 5.4=21b3da205cf367ed 5.1=c3ce735a550a58a7",
    "33x31 HH reset+vsc dense 016ccdafd0a32f76 throw "
    "0.7=8f4a14dbb4590882 1025.4=caa6307bfe8206fa 1687.1=3a0929789690d719",
    "33x31 HH reset+vsc sparse 73d93eddfd5a45e2 throw "
    "0.7=ec789f4a95bf5ff8 234.4=6b24ba9a69d0026f 353.1=2f439338398742b1",
    "33x31 HH reset+vsc single 5bbf9d1e5b920e05 throw "
    "0.7=7b4183d9b2e02ebd 12.4=e63d0aa6e65706fb 14.1=56782b962bb935ee",
};

TEST(T1Block, DecoderOutputPinned) {
  std::vector<std::string> rows;
  for (const PinCase& c : pin_cases()) rows.push_back(decoder_row(c));
  ASSERT_EQ(rows.size(), std::size(kPinnedT1DecoderRows));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], kPinnedT1DecoderRows[i]) << "row " << i;
  }
}

// --- Block prescan ---------------------------------------------------------

// The host-SIMD prescan both block coders share, checked against the scalar
// loop it replaces.  The coefficient plane is allocated exact-size (no
// stride padding), so under ASan a vector lane past the block faults.
TEST(T1Prescan, SimdMatchesScalarPrescan) {
  Rng rng(113);
  for (const auto& [w, h] : {std::pair<std::size_t, std::size_t>{1, 1},
                            {7, 5},
                            {24, 24},
                            {33, 31},
                            {64, 17}}) {
    AlignedBuffer<Sample> coeffs(w * h, 16);
    for (std::size_t i = 0; i < w * h; ++i) {
      coeffs[i] = static_cast<Sample>(rng.next_below(2 * 65536 + 1)) - 65536;
    }
    Span2d<const Sample> view(coeffs.data(), w, h, w);

    T1Flags flags(w, h);
    std::vector<std::uint32_t> mag(w * h, 0xDEADBEEF);
    const int planes = block_prescan(view, mag.data(), &flags);

    std::uint32_t ref_max = 0;
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        const Sample v = view(y, x);
        const auto m = static_cast<std::uint32_t>(v < 0 ? -v : v);
        EXPECT_EQ(mag[y * w + x], m) << w << "x" << h;
        EXPECT_EQ(flags.at(y, x), v < 0 ? kFlagSign : 0) << w << "x" << h;
        if (m > ref_max) ref_max = m;
      }
    }
    EXPECT_EQ(planes, std::bit_width(ref_max)) << w << "x" << h;
    EXPECT_EQ(block_prescan(view), planes) << w << "x" << h;
  }

  // The all-zero block: both forms report zero and flag nothing.
  AlignedBuffer<Sample> zeros(12 * 9, 16);
  std::memset(zeros.data(), 0, 12 * 9 * sizeof(Sample));
  Span2d<const Sample> zview(zeros.data(), 12, 9, 12);
  T1Flags zflags(12, 9);
  std::vector<std::uint32_t> zmag(12 * 9);
  EXPECT_EQ(block_prescan(zview, zmag.data(), &zflags), 0);
  EXPECT_EQ(block_prescan(zview), 0);
  for (const std::uint32_t f : zflags.cells) EXPECT_EQ(f, 0u);
}

// INT32_MIN has no int32 magnitude: a block holding it must fail the
// shared prescan's check in either coder, whether the value sits in a SIMD
// lane or in the scalar tail, rather than code as an all-zero block.
TEST(T1Prescan, Int32MinFailsBothCoders) {
  for (const std::size_t x : {std::size_t{1}, std::size_t{4}}) {
    std::vector<Sample> b(5 * 4, 3);
    b[2 * 5 + x] = std::numeric_limits<Sample>::min();
    const Span2d<const Sample> view(b.data(), 5, 4);
    EXPECT_THROW((void)block_prescan(view), Error) << x;
    EXPECT_THROW((void)ht_encode_block(view), Error) << x;
    EXPECT_THROW((void)t1_encode_block(view, SubbandOrient::LL), Error) << x;
  }
  // The largest magnitude that does fit still codes.
  std::vector<Sample> b(4 * 4, 0);
  b[5] = -std::numeric_limits<Sample>::max();
  const Span2d<const Sample> view(b.data(), 4, 4);
  EXPECT_EQ(block_prescan(view), 31);
  EXPECT_EQ(ht_encode_block(view).num_bitplanes, 31);
}

}  // namespace
}  // namespace cj2k::jp2k
