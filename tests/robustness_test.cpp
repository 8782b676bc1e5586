// Robustness: corrupted codestreams and image files must fail cleanly
// (throw cj2k::Error) or decode to *some* image — never crash, hang, or
// exhaust memory.  Also
// exercises the paper's §2 constant-Local-Store property as an executable
// invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>

#include "cell/machine.hpp"
#include "cellenc/stage_dwt.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "image/bmp.hpp"
#include "image/pgx.hpp"
#include "image/pnm.hpp"
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

// --- Reader and main-header mutation ---------------------------------------

/// One seeded mutation of `bytes`, aimed at its first `header` bytes: a bit
/// flip, a byte set to a digit, a space or 0xFF, a 32-bit field set to an
/// extreme, a run of digits spliced in (text headers), or a truncation
/// anywhere.
std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> bytes,
                                 std::size_t header, Rng& rng) {
  header = std::min(header, bytes.size());
  const std::size_t pos = rng.next_below(header);
  switch (rng.next_below(5)) {
    case 0:
      bytes[pos] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
      break;
    case 1: {
      static const std::uint8_t kBytes[] = {'0', '9', ' ', '\n', '#', 0xFF};
      bytes[pos] = kBytes[rng.next_below(std::size(kBytes))];
      break;
    }
    case 2: {
      static const std::uint32_t kValues[] = {0, 1, 0x7FFFFFFF, 0x80000000,
                                              0xFFFFFFFF};
      const std::uint32_t v = kValues[rng.next_below(std::size(kValues))];
      for (std::size_t k = 0; k < 4 && pos + k < bytes.size(); ++k) {
        bytes[pos + k] = static_cast<std::uint8_t>(v >> (8 * k));
      }
      break;
    }
    case 3: {
      const std::string digits(1 + rng.next_below(24), '9');
      bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(pos),
                   digits.begin(), digits.end());
      break;
    }
    default:
      bytes.resize(rng.next_below(bytes.size()));
      break;
  }
  return bytes;
}

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Writes a small image with `write`, then reads 300 seeded mutants of the
/// file back with `read`.  Each must throw IoError or decode to an image of
/// no more samples than the file has bytes (so nothing was sized from an
/// unchecked header field); any other exception fails the test.  Both
/// outcomes must occur.
template <class Write, class Read>
void fuzz_reader(const char* name, std::size_t header, std::size_t comps,
                 Write write, Read read) {
  const std::string path =
      (std::filesystem::temp_directory_path() / name).string();
  write(path, synth::photographic(7, 5, comps, 31));
  const std::vector<std::uint8_t> good = file_bytes(path);
  Rng rng(good.size() * 977 + header);
  int threw = 0, decoded = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<std::uint8_t> bad = mutate(good, header, rng);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bad.data()),
                static_cast<std::streamsize>(bad.size()));
    }
    try {
      const Image img = read(path);
      EXPECT_LE(img.width() * img.height() * img.components(), bad.size())
          << name << " trial " << trial;
      ++decoded;
    } catch (const IoError&) {
      ++threw;
    }
  }
  std::filesystem::remove(path);
  EXPECT_GT(threw, 0) << name;
  EXPECT_GT(decoded, 0) << name;
}

TEST(Fuzz, BmpReaderMutationsFailCleanly) {
  fuzz_reader("cj2k_fuzz.bmp", 54, 3, bmp::write, bmp::read);
}

TEST(Fuzz, PnmReaderMutationsFailCleanly) {
  fuzz_reader("cj2k_fuzz.ppm", 12, 3, pnm::write, pnm::read);
  fuzz_reader("cj2k_fuzz.pgm", 12, 1, pnm::write, pnm::read);
}

TEST(Fuzz, PgxReaderMutationsFailCleanly) {
  fuzz_reader("cj2k_fuzz.pgx", 14, 1, pgx::write, pgx::read);
}

// Mutants of the main header (SOC up to the first SOT) must parse, with a
// geometry within kMaxSamples, or throw CodestreamError; any other
// exception fails the test.
TEST(Fuzz, MainHeaderMutationsFailCleanly) {
  const Image img = synth::photographic(24, 16, 3, 37);
  jp2k::CodingParams p;
  p.levels = 2;
  p.tiles_x = 2;
  const auto good = jp2k::encode(img, p);
  std::size_t sot = 2;
  while (sot + 1 < good.size() &&
         !(good[sot] == 0xFF && good[sot + 1] == 0x90)) {
    ++sot;
  }
  ASSERT_LT(sot + 1, good.size());

  Rng rng(41);
  int threw = 0, parsed = 0;
  for (int trial = 0; trial < 500; ++trial) {
    const std::vector<std::uint8_t> bad = mutate(good, sot, rng);
    std::vector<jp2k::TilePart> tiles;
    try {
      const jp2k::StreamHeader hdr = jp2k::parse_codestream(bad, tiles);
      EXPECT_TRUE(jp2k::within_max_samples(hdr.width, hdr.height,
                                           hdr.components))
          << "trial " << trial;
      ++parsed;
    } catch (const CodestreamError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0);
  EXPECT_GT(parsed, 0);
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
