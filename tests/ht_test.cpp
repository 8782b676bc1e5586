// HT (Part 15) block-coder tests: block-level roundtrips over random and
// adversarial content, the HT<->EBCOT lossless cross-check (same pixels
// from either backend), CAP-marker signaling, the HT-disabled decoder
// rejection, and the coder's validate() rules.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/sha256.hpp"
#include "common/span2d.hpp"
#include "image/synth.hpp"
#include "jp2k/codestream.hpp"
#include "jp2k/decoder.hpp"
#include "jp2k/encoder.hpp"
#include "jp2k/ht_block.hpp"

namespace cj2k::jp2k {
namespace {

/// Encode -> decode one block and require bit-exact coefficients.
void roundtrip(const std::vector<Sample>& coeffs, std::size_t w,
               std::size_t h) {
  ASSERT_EQ(coeffs.size(), w * h);
  const Span2d<const Sample> in(coeffs.data(), w, h, w);
  const T1EncodedBlock enc = ht_encode_block(in);
  EXPECT_EQ(enc.total_symbols, static_cast<std::uint64_t>(w * h));

  std::vector<Sample> back(w * h, Sample{-12345});
  Span2d<Sample> out(back.data(), w, h, w);
  ht_decode_block(enc.data.data(), enc.data.size(), enc.num_bitplanes, out);
  EXPECT_EQ(back, coeffs) << w << "x" << h;
}

TEST(HtBlock, RoundTripsRandomBlocksAcrossShapesAndMagnitudes) {
  std::mt19937 rng(42);
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {1, 1}, {1, 7}, {5, 1}, {2, 2}, {3, 5}, {17, 13}, {33, 31}, {64, 64}};
  for (const auto& [w, h] : shapes) {
    for (int bits : {1, 4, 12}) {
      std::uniform_int_distribution<Sample> mag(-(1 << bits), 1 << bits);
      std::vector<Sample> coeffs(w * h);
      for (auto& c : coeffs) c = mag(rng);
      roundtrip(coeffs, w, h);
    }
  }
}

TEST(HtBlock, RoundTripsSparseBlocks) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pos(0, 31 * 29 - 1);
  std::vector<Sample> coeffs(31 * 29, 0);
  for (int i = 0; i < 8; ++i) coeffs[pos(rng)] = (i % 2) ? 30000 : -30000;
  roundtrip(coeffs, 31, 29);
}

TEST(HtBlock, AllZeroBlockEncodesEmptyAndDecodesToZero) {
  const std::vector<Sample> coeffs(16 * 16, 0);
  const Span2d<const Sample> in(coeffs.data(), 16, 16, 16);
  const T1EncodedBlock enc = ht_encode_block(in);
  EXPECT_TRUE(enc.data.empty());
  EXPECT_EQ(enc.num_bitplanes, 0);

  std::vector<Sample> back(16 * 16, Sample{99});
  Span2d<Sample> out(back.data(), 16, 16, 16);
  ht_decode_block(enc.data.data(), enc.data.size(), 0, out);
  EXPECT_EQ(back, coeffs);
}

TEST(HtBlock, DecoderRejectsTruncatedOrCorruptSegments) {
  std::vector<Sample> coeffs(8 * 8);
  for (std::size_t i = 0; i < coeffs.size(); ++i) {
    coeffs[i] = static_cast<Sample>((i * 37) % 255) - 127;
  }
  const Span2d<const Sample> in(coeffs.data(), 8, 8, 8);
  const T1EncodedBlock enc = ht_encode_block(in);
  ASSERT_GE(enc.data.size(), 5u);

  std::vector<Sample> back(8 * 8);
  Span2d<Sample> out(back.data(), 8, 8, 8);
  // Shorter than the 4-byte Scup trailer.
  EXPECT_THROW(ht_decode_block(enc.data.data(), 3, 0, out), CodestreamError);
  // Scup trailer claiming more bytes than the segment holds.
  std::vector<std::uint8_t> bad(enc.data);
  bad[bad.size() - 1] = 0xff;
  bad[bad.size() - 2] = 0xff;
  EXPECT_THROW(ht_decode_block(bad.data(), bad.size(), 0, out),
               CodestreamError);
}

// --- Pinned coder output ----------------------------------------------------
//
// The HT coder's bytes, pass record and decoded coefficients, captured from
// the bit-serial coder before its word-wide rewrite.  Every rewrite of the
// stream writers, readers or the quad walk must keep them.

/// A w x h block inside a plane of row pitch `stride`; the padding holds a
/// value no coder may read.
struct PinBlock {
  std::size_t w, h, stride;
  std::vector<Sample> cells;
  Span2d<const Sample> view() const {
    return Span2d<const Sample>(cells.data(), w, h, stride);
  }
};

const char* const kPinContent[] = {"dense4", "dense12", "sparse", "single",
                                   "huge"};

PinBlock pin_block(std::size_t w, std::size_t h, std::size_t stride,
                   int content) {
  PinBlock b{w, h, stride, std::vector<Sample>((h - 1) * stride + w, 0)};
  Rng rng(w * 1009 + h * 31 + stride * 7 + static_cast<unsigned>(content));
  const auto draw = [&rng](std::int64_t maxmag, std::uint64_t sparsity) {
    if (rng.next_below(sparsity) != 0) return Sample{0};
    return static_cast<Sample>(rng.next_in(-maxmag, maxmag));
  };
  for (std::size_t y = 0; y < h; ++y) {
    Sample* row = b.cells.data() + y * stride;
    for (std::size_t x = 0; x < stride && (y + 1 < h || x < w); ++x) {
      if (x >= w) {
        row[x] = 0x5A5A5A5A;
        continue;
      }
      if (content == 0) row[x] = draw(15, 1);
      if (content == 1) row[x] = draw(4095, 1);
      if (content == 2) row[x] = draw(1 << 14, 9);
      if (content == 4) row[x] = draw(1 << 20, 4);
    }
  }
  if (content == 3) b.cells[(h / 2) * stride + w / 3] = -1237;
  if (content == 4) {
    b.cells[(h - 1) * stride + w - 1] = std::numeric_limits<Sample>::max();
    b.cells[0] = -(Sample{1} << 30);
  }
  return b;
}

std::string hex16(const std::vector<std::uint8_t>& bytes) {
  return common::sha256_hex(bytes).substr(0, 16);
}

std::string ht_encoder_row(const PinBlock& b, int content) {
  const T1EncodedBlock enc = ht_encode_block(b.view());
  std::string row = std::to_string(b.w) + "x" + std::to_string(b.h) + "/" +
                    std::to_string(b.stride) + " " + kPinContent[content] +
                    " " + hex16(enc.data) + " " +
                    std::to_string(enc.num_bitplanes) + " " +
                    std::to_string(enc.total_symbols);
  for (const PassInfo& pi : enc.passes) {
    std::uint64_t dist_bits = 0;
    std::memcpy(&dist_bits, &pi.dist_reduction, sizeof dist_bits);
    char pass[96];
    std::snprintf(pass, sizeof pass, " | %d %d %zu %016llx %llu",
                  static_cast<int>(pi.type), pi.bitplane, pi.trunc_len,
                  static_cast<unsigned long long>(dist_bits),
                  static_cast<unsigned long long>(pi.symbols));
    row += pass;
  }
  return row;
}

const std::pair<std::size_t, std::size_t> kPinShapes[] = {
    {64, 64}, {1, 1}, {3, 70}, {17, 5}, {64, 4}, {33, 31}};

const char* const kPinnedHtEncoderRows[] = {
    "64x64/64 dense4 effbd3ebd2b787a8 4 4096 | 2 0 3970 41141cb000000000 4096",
    "64x64/64 dense12 9de33fd8d6b78a35 12 4096 | 2 0 8156 421502ae5fe80000 4096",
    "64x64/64 sparse df35e9c13d36ecf5 14 4096 | 2 0 1629 42230ef90aa20000 4096",
    "64x64/64 single 8205d2e381362b71 11 4096 | 2 0 16 4137593900000000 4096",
    "64x64/64 huge f9b43e51dbe5b61a 31 4096 | 2 0 3789 43d4005693d5a0d8 4096",
    "1x1/1 dense4 995a0eca009b3d22 4 1 | 2 0 8 406c200000000000 1",
    "1x1/1 dense12 af668f4c186b0391 11 1 | 2 0 9 414ebb4880000000 1",
    "1x1/1 sparse e3b0c44298fc1c14 0 1",
    "1x1/1 single db4cb7c95ac0aa0f 11 1 | 2 0 9 4137593900000000 1",
    "1x1/1 huge 1e8baa429bc7e00b 31 1 | 2 0 11 43b0000000000000 1",
    "3x70/3 dense4 4354710228333a8d 4 210 | 2 0 227 40d0974000000000 210",
    "3x70/3 dense12 0ae42e0f9c0285f7 12 210 | 2 0 448 41d3fa2a15800000 210",
    "3x70/3 sparse 37dd982263f0512c 14 210 | 2 0 65 41d2198f8c800000 210",
    "3x70/3 single 71046f4b949c398e 11 210 | 2 0 12 4137593900000000 210",
    "3x70/3 huge cea0023c7f4fe3bc 31 210 | 2 0 257 43d400050e3c5eab 210",
    "17x5/17 dense4 f281efd7e9604ba8 4 85 | 2 0 91 40b8250000000000 85",
    "17x5/17 dense12 ab6eef0b6ec25249 12 85 | 2 0 184 41bf008469000000 85",
    "17x5/17 sparse fd71c88c9223aaa6 14 85 | 2 0 34 41c849b6ac000000 85",
    "17x5/17 single 9468c27cf30ba9f1 11 85 | 2 0 11 4137593900000000 85",
    "17x5/17 huge ac47c90a073a9faa 31 85 | 2 0 86 43d4000105a122bd 85",
    "64x4/64 dense4 ed83486a6afb657f 4 256 | 2 0 251 40d593c000000000 256",
    "64x4/64 dense12 f3d6602b9b34783c 12 256 | 2 0 516 41d624572ac00000 256",
    "64x4/64 sparse 12e793beaf42380f 14 256 | 2 0 108 41e30f374ca00000 256",
    "64x4/64 single 2941b4d3c2e0075d 11 256 | 2 0 11 4137593900000000 256",
    "64x4/64 huge 40ac721668abc192 31 256 | 2 0 251 43d400049f500b05 256",
    "33x31/33 dense4 c67405c49c7c2e41 4 1023 | 2 0 1010 40f473a000000000 1023",
    "33x31/33 dense12 94b456bf40ecd71e 12 1023 | 2 0 2068 41f5ccf5ce100000 1023",
    "33x31/33 sparse f529999eb2ec8536 14 1023 | 2 0 418 42033db9d2700000 1023",
    "33x31/33 single 594a92d5839429d6 11 1023 | 2 0 13 4137593900000000 1023",
    "33x31/33 huge b298b2cb36536630 31 1023 | 2 0 1023 43d40016d57655f2 1023",
    "21x9/27 dense4 e01de907ecab6fb1 4 189 | 2 0 196 40cbac8000000000 189",
    "21x9/27 dense12 790f7e7f2351f037 12 189 | 2 0 392 41cdfc9d7b800000 189",
    "21x9/27 sparse b16256d7c0af5f9d 14 189 | 2 0 69 41d5956de1000000 189",
    "21x9/27 single e91df4fb139af2e5 11 189 | 2 0 12 4137593900000000 189",
    "21x9/27 huge 7eb99bfeb989825d 31 189 | 2 0 184 43d4000325614a61 189",
};

TEST(HtBlock, EncoderOutputPinned) {
  std::vector<std::string> rows;
  for (const auto& [w, h] : kPinShapes) {
    for (int content = 0; content < 5; ++content) {
      rows.push_back(ht_encoder_row(pin_block(w, h, w, content), content));
    }
  }
  for (int content = 0; content < 5; ++content) {
    rows.push_back(ht_encoder_row(pin_block(21, 9, 27, content), content));
  }
  ASSERT_EQ(rows.size(), std::size(kPinnedHtEncoderRows));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], kPinnedHtEncoderRows[i]) << "row " << i;
  }
}

/// Decodes `seg` into a w x h block: the SHA-256 prefix of the coefficients
/// (little-endian), or "throw" when the decoder rejects the segment.
std::string decoded_digest(const std::vector<std::uint8_t>& seg,
                           std::size_t w, std::size_t h) {
  std::vector<Sample> out(w * h, Sample{-777});
  try {
    ht_decode_block(seg.data(), seg.size(), 0,
                    Span2d<Sample>(out.data(), w, h, w));
  } catch (const CodestreamError&) {
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
  return hex16(bytes);
}

std::size_t scup_of(const std::vector<std::uint8_t>& seg) {
  const std::size_t n = seg.size();
  return (std::size_t{seg[n - 4]} << 24) | (std::size_t{seg[n - 3]} << 16) |
         (std::size_t{seg[n - 2]} << 8) | std::size_t{seg[n - 1]};
}

void set_scup(std::vector<std::uint8_t>& seg, std::size_t scup) {
  const std::size_t n = seg.size();
  for (int k = 0; k < 4; ++k) {
    seg[n - 1 - k] = static_cast<std::uint8_t>(scup >> (8 * k));
  }
}

/// Seeded hostile variants of one encoded block: bit flips aimed at each
/// stream, truncation at every length class, a shortened MagSgn stream under
/// an intact trailer, and Scup rewrites.  One row per variant.
void hostile_rows(const PinBlock& b, const char* label,
                  std::vector<std::string>& rows) {
  const std::vector<std::uint8_t> good = ht_encode_block(b.view()).data;
  const std::size_t n = good.size();
  const std::size_t scup = scup_of(good);
  const std::size_t magsgn_len = n - scup;
  Rng rng(n * 131 + scup);
  const auto emit = [&](const std::string& what,
                        const std::vector<std::uint8_t>& seg) {
    rows.push_back(std::string(label) + " " + what + " " +
                   decoded_digest(seg, b.w, b.h));
  };
  emit("intact", good);

  // Bit flips: MagSgn from the front, MEL from its start, VLC from the byte
  // before the trailer (its first byte read), then anywhere.
  const auto flip_in = [&](const char* name, std::size_t lo, std::size_t hi) {
    for (int t = 0; t < 4 && lo < hi; ++t) {
      std::vector<std::uint8_t> seg = good;
      const std::size_t pos = lo + rng.next_below(hi - lo);
      const int bit = static_cast<int>(rng.next_below(8));
      seg[pos] ^= static_cast<std::uint8_t>(1u << bit);
      emit(std::string("flip-") + name + "@" + std::to_string(pos) + "." +
               std::to_string(bit),
           seg);
    }
  };
  flip_in("magsgn", 0, magsgn_len);
  flip_in("mel", magsgn_len, std::min(magsgn_len + 3, n - 4));
  flip_in("vlc", std::max(magsgn_len, n - 7), n - 4);
  flip_in("any", 0, n - 4);

  // Truncation: the buffer simply ends early, trailer included.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{4},
        std::size_t{5}, n / 4, n / 2, magsgn_len, n - 5, n - 4, n - 1}) {
    if (keep > n) continue;
    emit("cut@" + std::to_string(keep),
         std::vector<std::uint8_t>(good.begin(), good.begin() + keep));
  }

  // A shortened MagSgn stream under an intact MEL/VLC/trailer: the reader
  // must see zero bits past its end, not the MEL bytes that follow.
  for (const std::size_t keep : {std::size_t{0}, std::size_t{1},
                                 magsgn_len / 2, magsgn_len - 1}) {
    if (keep >= magsgn_len) continue;
    std::vector<std::uint8_t> seg(good.begin(), good.begin() + keep);
    seg.insert(seg.end(), good.begin() + magsgn_len, good.end());
    emit("magsgn-cut@" + std::to_string(keep), seg);
  }

  // Scup rewrites: below the trailer, the bare trailer, off by one and by a
  // few bytes either way, the whole segment, one past it, and random.
  std::vector<std::size_t> scups = {0, 3, 4, 5, scup - 1, scup + 1,
                                    scup + 8, n, n + 1, 0xFFFFFFFF};
  if (scup >= 12) scups.push_back(scup - 8);
  for (int t = 0; t < 3; ++t) scups.push_back(4 + rng.next_below(n - 3));
  for (const std::size_t s : scups) {
    std::vector<std::uint8_t> seg = good;
    set_scup(seg, s);
    emit("scup=" + std::to_string(s), seg);
  }
}

const char* const kPinnedHtDecoderRows[] = {
    "17x13-dense12 intact eca6347828b2eb49",
    "17x13-dense12 flip-magsgn@148.4 734f4b1dfba81afe",
    "17x13-dense12 flip-magsgn@335.0 28298a0bf007cb62",
    "17x13-dense12 flip-magsgn@318.4 3013f40c6180a616",
    "17x13-dense12 flip-magsgn@193.4 b372fe722fd2abab",
    "17x13-dense12 flip-mel@357.4 e7843f82bf499ba0",
    "17x13-dense12 flip-mel@355.6 eca6347828b2eb49",
    "17x13-dense12 flip-mel@357.0 cc5a52817f8ab426",
    "17x13-dense12 flip-mel@357.3 throw",
    "17x13-dense12 flip-vlc@449.2 0c0bcf1a55c98e82",
    "17x13-dense12 flip-vlc@450.6 throw",
    "17x13-dense12 flip-vlc@450.0 2900cfa860fc81bc",
    "17x13-dense12 flip-vlc@450.3 a2571012b3e2bf57",
    "17x13-dense12 flip-any@35.3 7c93b68fa6e65f95",
    "17x13-dense12 flip-any@314.6 fff8f035b81c8460",
    "17x13-dense12 flip-any@60.7 82f900d5d5bf5d50",
    "17x13-dense12 flip-any@138.3 0d853975c71c5ae5",
    "17x13-dense12 cut@0 6ca83adefc47fc9a",
    "17x13-dense12 cut@1 throw",
    "17x13-dense12 cut@3 throw",
    "17x13-dense12 cut@4 throw",
    "17x13-dense12 cut@5 throw",
    "17x13-dense12 cut@113 throw",
    "17x13-dense12 cut@227 throw",
    "17x13-dense12 cut@355 throw",
    "17x13-dense12 cut@450 throw",
    "17x13-dense12 cut@451 throw",
    "17x13-dense12 cut@454 throw",
    "17x13-dense12 magsgn-cut@0 f94c32ea4557c5be",
    "17x13-dense12 magsgn-cut@1 23c3da3beb62192c",
    "17x13-dense12 magsgn-cut@177 eac13596d7acdc09",
    "17x13-dense12 magsgn-cut@354 e23734e177dd2913",
    "17x13-dense12 scup=0 throw",
    "17x13-dense12 scup=3 throw",
    "17x13-dense12 scup=4 6ca83adefc47fc9a",
    "17x13-dense12 scup=5 7986658b942ef0d9",
    "17x13-dense12 scup=99 eca6347828b2eb49",
    "17x13-dense12 scup=101 e23734e177dd2913",
    "17x13-dense12 scup=108 eafb5c7d638079a4",
    "17x13-dense12 scup=455 throw",
    "17x13-dense12 scup=456 throw",
    "17x13-dense12 scup=4294967295 throw",
    "17x13-dense12 scup=92 throw",
    "17x13-dense12 scup=185 520aa37c8beddbe5",
    "17x13-dense12 scup=383 throw",
    "17x13-dense12 scup=378 4fe1341a108d21be",
    "64x64-dense4 intact 84e90a8a33b98206",
    "64x64-dense4 flip-magsgn@718.0 b940875841ff48b2",
    "64x64-dense4 flip-magsgn@1005.7 4c37fc1ca16f64e6",
    "64x64-dense4 flip-magsgn@627.2 738275b123353deb",
    "64x64-dense4 flip-magsgn@966.3 caa4ca43b7a7607e",
    "64x64-dense4 flip-mel@2456.6 84e90a8a33b98206",
    "64x64-dense4 flip-mel@2458.2 71b7f3bf32935ed8",
    "64x64-dense4 flip-mel@2457.7 84e90a8a33b98206",
    "64x64-dense4 flip-mel@2456.5 84e90a8a33b98206",
    "64x64-dense4 flip-vlc@3964.3 187ee0ad598198ab",
    "64x64-dense4 flip-vlc@3963.1 throw",
    "64x64-dense4 flip-vlc@3964.2 d84f984023006fd0",
    "64x64-dense4 flip-vlc@3963.5 31fc4cc8645243ae",
    "64x64-dense4 flip-any@3771.2 d5255d4c282ab7c3",
    "64x64-dense4 flip-any@2561.0 f7fae00661ffa591",
    "64x64-dense4 flip-any@2171.7 3025d4dc858b6e93",
    "64x64-dense4 flip-any@622.5 7887f11a1c66c616",
    "64x64-dense4 cut@0 4fe7b59af6de3b66",
    "64x64-dense4 cut@1 throw",
    "64x64-dense4 cut@3 throw",
    "64x64-dense4 cut@4 throw",
    "64x64-dense4 cut@5 throw",
    "64x64-dense4 cut@992 throw",
    "64x64-dense4 cut@1985 throw",
    "64x64-dense4 cut@2456 throw",
    "64x64-dense4 cut@3965 throw",
    "64x64-dense4 cut@3966 throw",
    "64x64-dense4 cut@3969 throw",
    "64x64-dense4 magsgn-cut@0 01125c973b53a58e",
    "64x64-dense4 magsgn-cut@1 3d1a1f3da9c94f04",
    "64x64-dense4 magsgn-cut@1228 388987d016e50971",
    "64x64-dense4 magsgn-cut@2455 b616d12c33cdd209",
    "64x64-dense4 scup=0 throw",
    "64x64-dense4 scup=3 throw",
    "64x64-dense4 scup=4 4fe7b59af6de3b66",
    "64x64-dense4 scup=5 e0fbbd447f0dbf8b",
    "64x64-dense4 scup=1513 b9f1c118748a72d0",
    "64x64-dense4 scup=1515 4a1a67a562a411f1",
    "64x64-dense4 scup=1522 f44c8e3471e34870",
    "64x64-dense4 scup=3970 e9f208fb106688c9",
    "64x64-dense4 scup=3971 throw",
    "64x64-dense4 scup=4294967295 throw",
    "64x64-dense4 scup=1506 6c20811a66b4f767",
    "64x64-dense4 scup=3687 34e193ffe0dd13e2",
    "64x64-dense4 scup=3671 99f87504bc8d7948",
    "64x64-dense4 scup=2222 77a0b7300b0c1005",
    "33x31-sparse intact 5d77d48936f0e95c",
    "33x31-sparse flip-magsgn@36.3 26e90e335d77619c",
    "33x31-sparse flip-magsgn@152.1 3119b055da200a56",
    "33x31-sparse flip-magsgn@97.1 44aaf5e3ecae30f9",
    "33x31-sparse flip-magsgn@36.2 66c2c2f275593fac",
    "33x31-sparse flip-mel@217.7 throw",
    "33x31-sparse flip-mel@217.4 throw",
    "33x31-sparse flip-mel@215.2 throw",
    "33x31-sparse flip-mel@216.3 throw",
    "33x31-sparse flip-vlc@413.0 throw",
    "33x31-sparse flip-vlc@411.5 075156f2d7e7d5c0",
    "33x31-sparse flip-vlc@412.3 76eb558a75de00c4",
    "33x31-sparse flip-vlc@413.5 throw",
    "33x31-sparse flip-any@68.5 f7ae34c345e71753",
    "33x31-sparse flip-any@376.3 0ee3808ff0d25184",
    "33x31-sparse flip-any@142.4 b073ef8d8fc44e12",
    "33x31-sparse flip-any@102.4 ce500cb63c22a532",
    "33x31-sparse cut@0 f2895ea810ceffc1",
    "33x31-sparse cut@1 throw",
    "33x31-sparse cut@3 throw",
    "33x31-sparse cut@4 throw",
    "33x31-sparse cut@5 throw",
    "33x31-sparse cut@104 throw",
    "33x31-sparse cut@209 throw",
    "33x31-sparse cut@215 throw",
    "33x31-sparse cut@413 throw",
    "33x31-sparse cut@414 throw",
    "33x31-sparse cut@417 throw",
    "33x31-sparse magsgn-cut@0 c298dd95db6034a8",
    "33x31-sparse magsgn-cut@1 e5dfd331d4f54bd1",
    "33x31-sparse magsgn-cut@107 4eb47705736a41c5",
    "33x31-sparse magsgn-cut@214 fa9ce533fa1c7ae4",
    "33x31-sparse scup=0 throw",
    "33x31-sparse scup=3 throw",
    "33x31-sparse scup=4 f2895ea810ceffc1",
    "33x31-sparse scup=5 88088cb91db923b7",
    "33x31-sparse scup=202 throw",
    "33x31-sparse scup=204 throw",
    "33x31-sparse scup=211 throw",
    "33x31-sparse scup=418 throw",
    "33x31-sparse scup=419 throw",
    "33x31-sparse scup=4294967295 throw",
    "33x31-sparse scup=195 throw",
    "33x31-sparse scup=306 throw",
    "33x31-sparse scup=349 throw",
    "33x31-sparse scup=382 throw",
    "9x7-huge intact e5df673e642ed464",
    "9x7-huge flip-magsgn@33.6 509db0784b02892d",
    "9x7-huge flip-magsgn@44.4 2c56fe32dce772ba",
    "9x7-huge flip-magsgn@24.1 0458aa75e83986b2",
    "9x7-huge flip-magsgn@34.6 0d42df1b187aad48",
    "9x7-huge flip-mel@47.4 e5df673e642ed464",
    "9x7-huge flip-mel@48.3 9519304ae927d356",
    "9x7-huge flip-mel@49.7 b1aea8e45c975b54",
    "9x7-huge flip-mel@47.2 5c7a7a1678e6d594",
    "9x7-huge flip-vlc@69.2 ad715ce915388f41",
    "9x7-huge flip-vlc@69.0 3e11fb0911470879",
    "9x7-huge flip-vlc@67.7 185a961e272877b6",
    "9x7-huge flip-vlc@69.4 throw",
    "9x7-huge flip-any@51.3 throw",
    "9x7-huge flip-any@67.6 throw",
    "9x7-huge flip-any@32.3 01926ffa0a621c7f",
    "9x7-huge flip-any@37.1 31f956634f87d14b",
    "9x7-huge cut@0 913c6e2c32d99e4b",
    "9x7-huge cut@1 throw",
    "9x7-huge cut@3 throw",
    "9x7-huge cut@4 throw",
    "9x7-huge cut@5 throw",
    "9x7-huge cut@18 throw",
    "9x7-huge cut@37 throw",
    "9x7-huge cut@47 throw",
    "9x7-huge cut@69 throw",
    "9x7-huge cut@70 throw",
    "9x7-huge cut@73 throw",
    "9x7-huge magsgn-cut@0 dd67bb114e5ba722",
    "9x7-huge magsgn-cut@1 c457695bfe9bbf3a",
    "9x7-huge magsgn-cut@23 19c990c1215ca57b",
    "9x7-huge magsgn-cut@46 cdb180778cf0da9d",
    "9x7-huge scup=0 throw",
    "9x7-huge scup=3 throw",
    "9x7-huge scup=4 913c6e2c32d99e4b",
    "9x7-huge scup=5 9628f8dd7316bdcc",
    "9x7-huge scup=26 throw",
    "9x7-huge scup=28 throw",
    "9x7-huge scup=35 throw",
    "9x7-huge scup=74 913c6e2c32d99e4b",
    "9x7-huge scup=75 throw",
    "9x7-huge scup=4294967295 throw",
    "9x7-huge scup=19 c893963fdd81d08a",
    "9x7-huge scup=68 throw",
    "9x7-huge scup=51 daad66e2049beab3",
    "9x7-huge scup=52 throw",
};

TEST(HtBlock, DecoderOutputPinned) {
  std::vector<std::string> rows;
  hostile_rows(pin_block(17, 13, 17, 1), "17x13-dense12", rows);
  hostile_rows(pin_block(64, 64, 64, 0), "64x64-dense4", rows);
  hostile_rows(pin_block(33, 31, 33, 2), "33x31-sparse", rows);
  hostile_rows(pin_block(9, 7, 9, 4), "9x7-huge", rows);
  ASSERT_EQ(rows.size(), std::size(kPinnedHtDecoderRows));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i], kPinnedHtDecoderRows[i]) << "row " << i;
  }
}

TEST(HtCodec, LosslessDecodesPixelIdenticalToEbcot) {
  const Image img = synth::photographic(96, 80, 3, 2024);
  CodingParams pe;
  pe.levels = 3;
  CodingParams ph = pe;
  ph.block_coder = BlockCoder::kHt;

  const auto eb = encode(img, pe);
  const auto ht = encode(img, ph);
  const Image de = decode(eb);
  const Image dh = decode(ht);
  ASSERT_EQ(de.components(), dh.components());
  for (std::size_t c = 0; c < de.components(); ++c) {
    for (std::size_t y = 0; y < de.height(); ++y) {
      for (std::size_t x = 0; x < de.width(); ++x) {
        ASSERT_EQ(de.plane(c).at(y, x), dh.plane(c).at(y, x))
            << "c=" << c << " y=" << y << " x=" << x;
        ASSERT_EQ(dh.plane(c).at(y, x), img.plane(c).at(y, x));
      }
    }
  }
}

TEST(HtCodec, CapMarkerSignalsPart15) {
  const Image img = synth::photographic(64, 48, 3, 5);
  CodingParams ph;
  ph.levels = 3;
  ph.block_coder = BlockCoder::kHt;
  const auto ht = encode(img, ph);

  std::vector<TilePart> parts;
  const auto hdr = parse_codestream(ht, parts);
  EXPECT_TRUE(hdr.cap_present);
  EXPECT_EQ(hdr.pcap & 0x00020000u, 0x00020000u);  // Part 15 bit
  EXPECT_EQ(hdr.params.block_coder, BlockCoder::kHt);

  CodingParams pe;
  pe.levels = 3;
  const auto eb = encode(img, pe);
  std::vector<TilePart> eparts;
  const auto ehdr = parse_codestream(eb, eparts);
  EXPECT_FALSE(ehdr.cap_present);
  EXPECT_EQ(ehdr.params.block_coder, BlockCoder::kEbcot);
}

TEST(HtCodec, DecoderRejectsHtStreamWhenHtDisabled) {
  const Image img = synth::photographic(64, 48, 3, 6);
  CodingParams ph;
  ph.levels = 3;
  ph.block_coder = BlockCoder::kHt;
  const auto ht = encode(img, ph);

  DecodeOptions no_ht;
  no_ht.accept_ht = false;
  EXPECT_THROW(decode(ht, no_ht), CodestreamError);

  // The same options still accept plain EBCOT streams...
  CodingParams pe;
  pe.levels = 3;
  EXPECT_NO_THROW(decode(encode(img, pe), no_ht));
  // ...and the default options accept the HT stream.
  EXPECT_NO_THROW(decode(ht));
}

TEST(HtCodec, ValidateRejectsLayersAndReversibleRate) {
  const Image img = synth::photographic(32, 32, 3, 8);
  CodingParams p;
  p.block_coder = BlockCoder::kHt;
  p.layers = 2;
  EXPECT_THROW(encode(img, p), InvalidArgument);

  CodingParams q;
  q.block_coder = BlockCoder::kHt;
  q.rate = 0.2;  // rate on the reversible 5/3 path has no quantizer to use
  EXPECT_THROW(encode(img, q), InvalidArgument);
}

TEST(HtCodec, QuantizerRateTargetingTracksTheRequestedRate) {
  const Image img = synth::photographic(256, 256, 3, 9);
  CodingParams p;
  p.block_coder = BlockCoder::kHt;
  p.wavelet = WaveletKind::kIrreversible97;
  const double raw = static_cast<double>(img.raw_bytes());

  double prev_size = raw * 2;
  for (double rate : {0.5, 0.25, 0.1}) {
    p.rate = rate;
    const auto bytes = encode(img, p);
    const double achieved = static_cast<double>(bytes.size()) / raw;
    // Monotone in the target and within a loose factor of it (the mapping
    // is an approximate calibration, not a closed loop; DESIGN.md §9).
    EXPECT_LT(static_cast<double>(bytes.size()), prev_size) << rate;
    EXPECT_LT(achieved, rate * 2.0) << rate;
    EXPECT_GT(achieved, rate * 0.3) << rate;
    prev_size = static_cast<double>(bytes.size());
  }
}

}  // namespace
}  // namespace cj2k::jp2k
