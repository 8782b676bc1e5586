// Tier-1 EBCOT block coder tests: context tables, encoder/decoder
// roundtrip across sizes/orientations/content, pass structure, truncation.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "image/image.hpp"
#include "jp2k/ht_block.hpp"
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

/// One pin row: block shape, orientation, code-block style and content
/// class, then the first 16 hex digits of the codeword's SHA-256, the bit
/// plane count, the symbol count, and the first 16 hex digits of a SHA-256
/// over every PassInfo field (dist_reduction by its bit pattern).
std::string pinned_row(std::size_t w, std::size_t h, SubbandOrient orient,
                       int style, int content) {
  static const char* const kOrient[] = {"LL", "HL", "LH", "HH"};
  static const char* const kStyle[] = {"none", "reset", "vsc", "reset+vsc"};
  static const char* const kContent[] = {"dense", "sparse", "single"};
  std::vector<Sample> b;
  const std::uint64_t seed = w * 1009 + h * 31 + static_cast<unsigned>(style);
  if (content == 0) b = random_block(w, h, 3000, seed, 1);
  if (content == 1) b = random_block(w, h, 1 << 14, seed, 9);
  if (content == 2) {
    b.assign(w * h, 0);
    b[(h / 2) * w + w / 3] = -1237;
  }
  T1Options opt;
  opt.reset_contexts = (style & 1) != 0;
  opt.vertically_causal = (style & 2) != 0;
  const T1EncodedBlock enc =
      t1_encode_block(Span2d<const Sample>(b.data(), w, h), orient, opt);

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
  std::snprintf(row, sizeof row, "%zux%zu %s %s %s %.16s %d %llu %.16s", w, h,
                kOrient[static_cast<int>(orient)],
                kStyle[style], kContent[content],
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
          rows.push_back(pinned_row(w, h, orient, style, content));
        }
      }
    }
  }
  ASSERT_EQ(rows.size(), std::size(kPinnedT1Rows));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], kPinnedT1Rows[i]) << "row " << i;
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
