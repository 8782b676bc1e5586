// Robustness: corrupted codestreams must fail cleanly (throw cj2k::Error)
// or decode to *some* image — never crash, hang, or exhaust memory.  Also
// exercises the paper's §2 constant-Local-Store property as an executable
// invariant.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

#include "cell/machine.hpp"
#include "cellenc/stage_dwt.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "image/synth.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/encoder.hpp"

namespace cj2k {
namespace {

TEST(Fuzz, SingleByteCorruptionNeverCrashes) {
  const Image img = synth::photographic(96, 96, 3, 11);
  jp2k::CodingParams p;
  p.levels = 3;
  const auto good = jp2k::encode(img, p);

  Rng rng(99);
  int threw = 0, decoded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    auto bad = good;
    const std::size_t pos = rng.next_below(bad.size());
    bad[pos] ^= static_cast<std::uint8_t>(1 + rng.next_below(255));
    try {
      const Image out = jp2k::decode(bad);
      EXPECT_EQ(out.width(), img.width());
      ++decoded;
    } catch (const Error&) {
      ++threw;
    }
  }
  // Both outcomes are acceptable; both must occur over 300 trials (a
  // decoder that never throws is not validating, one that always throws is
  // too brittle for single-bit payload damage).
  EXPECT_GT(threw, 0);
  EXPECT_GT(decoded, 0);
}

TEST(Fuzz, TruncationAtEveryRegionFailsCleanly) {
  const Image img = synth::photographic(64, 64, 1, 13);
  jp2k::CodingParams p;
  p.mct = false;
  const auto good = jp2k::encode(img, p);
  for (std::size_t keep = 0; keep < good.size(); keep += 7) {
    auto cut = good;
    cut.resize(keep);
    try {
      (void)jp2k::decode(cut);
    } catch (const Error&) {
      // expected for most prefixes
    }
  }
  SUCCEED();
}

TEST(Fuzz, RandomGarbageIsRejected) {
  Rng rng(17);
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(4096));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_THROW((void)jp2k::decode(junk), Error) << trial;
  }
}

TEST(Fuzz, LossyStreamCorruptionNeverCrashes) {
  const Image img = synth::photographic(96, 96, 3, 19);
  jp2k::CodingParams p;
  p.wavelet = jp2k::WaveletKind::kIrreversible97;
  p.rate = 0.2;
  p.layers = 3;
  const auto good = jp2k::encode(img, p);
  Rng rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    auto bad = good;
    // Corrupt a small burst.
    const std::size_t pos = rng.next_below(bad.size());
    for (std::size_t k = 0; k < 4 && pos + k < bad.size(); ++k) {
      bad[pos + k] ^= static_cast<std::uint8_t>(rng.next_below(256));
    }
    try {
      (void)jp2k::decode(bad);
    } catch (const Error&) {
    }
  }
  SUCCEED();
}

/// Overwrites the big-endian u32 at `pos`.
void put_u32(std::vector<std::uint8_t>& bytes, std::size_t pos,
             std::uint32_t v) {
  for (int k = 0; k < 4; ++k) {
    bytes[pos + k] = static_cast<std::uint8_t>(v >> (8 * (3 - k)));
  }
}

// The codec writes and reads images up to kMaxSamples samples.  A SIZ
// declaring more must be refused with CodestreamError before the decoder
// sizes anything from it, not reach an allocation, and the writer must
// refuse to produce one.
TEST(Fuzz, OversizedSizIsRejectedBeforeAllocation) {
  static_assert(jp2k::within_max_samples(1u << 14, 1u << 14, 1));
  static_assert(!jp2k::within_max_samples(1u << 14, (1u << 14) + 1, 1));
  static_assert(jp2k::within_max_samples(9459, 9459, 3));
  static_assert(!jp2k::within_max_samples(9459, 9460, 3));
  static_assert(!jp2k::within_max_samples(0xFFFFFFFFu, 0xFFFFFFFFu, 16384));

  const Image img = synth::photographic(32, 32, 1, 29);
  jp2k::CodingParams p;
  p.levels = 2;
  const auto good = jp2k::encode(img, p);
  // SOC, SIZ marker and length, then Xsiz @6, Ysiz @10, Csiz @14, depth
  // @16, XTsiz @17, YTsiz @21.  Each case is one tile the size of the image.
  ASSERT_EQ(good[2], 0xFF);
  ASSERT_EQ(good[3], 0x51);
  for (const auto& [w, h] : {std::pair<std::uint32_t, std::uint32_t>{
                                 0xFFFFFFFFu, 0xFFFFFFFFu},
                             {1u << 30, 1u << 30},
                             {1u << 14, (1u << 14) + 1}}) {
    auto bad = good;
    put_u32(bad, 6, w);
    put_u32(bad, 10, h);
    put_u32(bad, 17, w);
    put_u32(bad, 21, h);
    EXPECT_THROW((void)jp2k::decode(bad), CodestreamError) << w << "x" << h;
  }

  jp2k::StreamHeader hdr;
  hdr.width = hdr.tile_w = std::size_t{1} << 14;
  hdr.height = hdr.tile_h = (std::size_t{1} << 14) + 1;
  hdr.components = 1;
  EXPECT_THROW((void)jp2k::write_codestream(hdr, {jp2k::TilePart{}}),
               InvalidArgument);
}

TEST(ConstantLocalStore, DwtFootprintIsIndependentOfImageHeight) {
  // Paper §2: "the Local Store space requirement becomes constant
  // independent of the data array size."  The DWT kernels must use the
  // same peak Local Store for a 128-row and a 2048-row image of the same
  // width.
  cell::MachineConfig cfg;
  cfg.num_spes = 2;
  const std::size_t w = 512;

  std::size_t peak_small = 0, peak_tall = 0;
  {
    cell::Machine m(cfg);
    Plane plane(w, 128);
    cellenc::stage_dwt53(m, plane.view(), 1);
    for (int i = 0; i < m.num_spes(); ++i) {
      peak_small = std::max(peak_small, m.spe(i).ls.peak_used());
    }
  }
  {
    cell::Machine m(cfg);
    Plane plane(w, 2048);
    cellenc::stage_dwt53(m, plane.view(), 1);
    for (int i = 0; i < m.num_spes(); ++i) {
      peak_tall = std::max(peak_tall, m.spe(i).ls.peak_used());
    }
  }
  EXPECT_EQ(peak_small, peak_tall);
  EXPECT_GT(peak_small, 0u);
  EXPECT_LT(peak_tall, cell::LocalStore::kCapacity);
}

TEST(ConstantLocalStore, HugeImageStillFits) {
  // A 4096-wide, 4096-tall single-component plane streams through the
  // pipeline without ever exhausting the 256 KB Local Store.
  cell::MachineConfig cfg;
  cfg.num_spes = 8;
  cell::Machine m(cfg);
  Plane plane(4096, 4096);
  EXPECT_NO_THROW(cellenc::stage_dwt53(m, plane.view(), 2));
}

}  // namespace
}  // namespace cj2k
