// Image container, file I/O, synthetic generators and metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>

#include "common/align.hpp"
#include "image/bmp.hpp"
#include "image/image.hpp"
#include "image/metrics.hpp"
#include "image/pgx.hpp"
#include "image/pnm.hpp"
#include "image/synth.hpp"

namespace cj2k {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Plane, RowsAreCacheLineAlignedAndPadded) {
  Plane p(100, 7);
  EXPECT_EQ(p.width(), 100u);
  EXPECT_TRUE(is_multiple_of(p.stride() * sizeof(Sample), kCacheLineBytes));
  for (std::size_t y = 0; y < p.height(); ++y) {
    EXPECT_TRUE(is_aligned(p.row(y), kCacheLineBytes)) << y;
  }
  EXPECT_GE(p.stride(), p.width());
}

TEST(Image, GeometryAndSamples) {
  Image img(33, 17, 3, 8);
  EXPECT_EQ(img.total_samples(), 33u * 17u * 3u);
  EXPECT_EQ(img.raw_bytes(), 33u * 17u * 3u);
  img.plane(2).at(16, 32) = 200;
  EXPECT_EQ(img.plane(2).at(16, 32), 200);
  EXPECT_THROW(Image(0, 5, 1), Error);
  EXPECT_THROW(Image(5, 5, 0), Error);
}

TEST(Bmp, WriteReadRoundtrip) {
  Image img = synth::photographic(75, 43, 3, 5);
  const auto path = temp_path("cj2k_test.bmp");
  bmp::write(path, img);
  const Image back = bmp::read(path);
  EXPECT_TRUE(metrics::identical(img, back));
  std::remove(path.c_str());
}

TEST(Bmp, RejectsGarbage) {
  const auto path = temp_path("cj2k_bad.bmp");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("not a bitmap at all", f);
  fclose(f);
  EXPECT_THROW(bmp::read(path), IoError);
  std::remove(path.c_str());
  EXPECT_THROW(bmp::read("/nonexistent/nowhere.bmp"), IoError);
}

// Tiny files that declare a huge geometry (30000x30000 would allocate
// ~11 GB of planes) must be rejected from the file size, before the Image
// is allocated — not fail later on a short read.
void write_file(const std::string& path, const std::string& bytes) {
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fwrite(bytes.data(), 1, bytes.size(), f);
  fclose(f);
}

template <class Reader>
void expect_geometry_rejected(const std::string& path, Reader read) {
  try {
    read(path);
    ADD_FAILURE() << "reader accepted " << path;
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "pixel data shorter than the declared geometry"),
              std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Bmp, HugeDeclaredGeometryFailsBeforeAllocating) {
  std::string hdr(54, '\0');
  const auto le32 = [&](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      hdr[at + static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
    }
  };
  hdr[0] = 'B';
  hdr[1] = 'M';
  le32(10, 54);     // pixel data offset
  le32(14, 40);     // BITMAPINFOHEADER
  le32(18, 30000);  // width
  le32(22, 30000);  // height
  hdr[26] = 1;      // planes
  hdr[28] = 24;     // bits per pixel
  const auto path = temp_path("cj2k_huge.bmp");
  write_file(path, hdr);
  expect_geometry_rejected(path, [](const std::string& p) { bmp::read(p); });
}

TEST(Pnm, HugeDeclaredGeometryFailsBeforeAllocating) {
  const auto path = temp_path("cj2k_huge.ppm");
  write_file(path, "P6\n30000 30000\n255\n\x01\x02\x03");
  expect_geometry_rejected(path, [](const std::string& p) { pnm::read(p); });
}

TEST(Pnm, GreyAndColorRoundtrip) {
  const auto path = temp_path("cj2k_test.pnm");
  Image grey = synth::noise(31, 22, 1, 8);
  pnm::write(path, grey);
  EXPECT_TRUE(metrics::identical(grey, pnm::read(path)));

  Image color = synth::photographic(31, 22, 3, 9);
  pnm::write(path, color);
  EXPECT_TRUE(metrics::identical(color, pnm::read(path)));
  std::remove(path.c_str());
}

TEST(Synth, PhotographicIsDeterministicAndInRange) {
  const Image a = synth::photographic(120, 90, 3, 42);
  const Image b = synth::photographic(120, 90, 3, 42);
  const Image c = synth::photographic(120, 90, 3, 43);
  EXPECT_TRUE(metrics::identical(a, b));
  EXPECT_FALSE(metrics::identical(a, c));
  for (std::size_t comp = 0; comp < 3; ++comp) {
    for (std::size_t y = 0; y < a.height(); ++y) {
      for (std::size_t x = 0; x < a.width(); ++x) {
        const Sample v = a.plane(comp).at(y, x);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, 255);
      }
    }
  }
}

TEST(Synth, PhotographicHasRealContent) {
  // Not saturated, not constant: a usable dynamic range with texture.
  const Image img = synth::photographic(200, 200, 1, 7);
  double sum = 0, sum2 = 0;
  Sample mn = 255, mx = 0;
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t x = 0; x < img.width(); ++x) {
      const Sample v = img.plane(0).at(y, x);
      sum += v;
      sum2 += static_cast<double>(v) * v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
  }
  const double n = static_cast<double>(img.width() * img.height());
  const double mean = sum / n;
  const double stddev = std::sqrt(sum2 / n - mean * mean);
  EXPECT_GT(stddev, 20.0);
  EXPECT_GT(mean, 40.0);
  EXPECT_LT(mean, 215.0);
  EXPECT_LT(mn, 64);
  EXPECT_GT(mx, 192);
}

TEST(Synth, PhotographicHasSpatialCorrelation) {
  // Natural-photo statistics: neighbor correlation far above noise.
  const Image img = synth::photographic(200, 200, 1, 7);
  const Image nse = synth::noise(200, 200, 1, 7);
  const auto neighbor_absdiff = [](const Image& im) {
    double acc = 0;
    std::size_t n = 0;
    for (std::size_t y = 0; y < im.height(); ++y) {
      const Sample* row = im.plane(0).row(y);
      for (std::size_t x = 1; x < im.width(); ++x) {
        acc += std::abs(row[x] - row[x - 1]);
        ++n;
      }
    }
    return acc / static_cast<double>(n);
  };
  EXPECT_LT(neighbor_absdiff(img), neighbor_absdiff(nse) / 4.0);
}

TEST(Synth, SkewedHalvesDifferInCost) {
  const Image img = synth::skewed(128, 64);
  // Left half flat, right half noisy.
  double var_l = 0, var_r = 0;
  for (std::size_t y = 0; y < img.height(); ++y) {
    const Sample* row = img.plane(0).row(y);
    for (std::size_t x = 1; x < 64; ++x) {
      var_l += std::abs(row[x] - row[x - 1]);
    }
    for (std::size_t x = 65; x < 128; ++x) {
      var_r += std::abs(row[x] - row[x - 1]);
    }
  }
  EXPECT_EQ(var_l, 0);
  EXPECT_GT(var_r, 1000);
}

TEST(Metrics, PsnrAndMse) {
  Image a = synth::gradient(50, 40, 1);
  Image b = synth::gradient(50, 40, 1);
  EXPECT_EQ(metrics::mse(a, b), 0.0);
  EXPECT_TRUE(std::isinf(metrics::psnr(a, b)));
  b.plane(0).at(0, 0) += 10;
  EXPECT_EQ(metrics::max_abs_diff(a, b), 10);
  EXPECT_NEAR(metrics::mse(a, b), 100.0 / (50 * 40), 1e-12);
  EXPECT_FALSE(metrics::identical(a, b));
  Image c(10, 10, 1);
  EXPECT_THROW(metrics::mse(a, c), Error);
}


TEST(Pgx, EightAndSixteenBitRoundtrip) {
  const auto path = temp_path("cj2k_test.pgx");
  Image g8 = synth::noise(40, 30, 1, 3);
  pgx::write(path, g8);
  EXPECT_TRUE(metrics::identical(g8, pgx::read(path)));

  Image g12(25, 17, 1, 12);
  for (std::size_t y = 0; y < 17; ++y) {
    for (std::size_t x = 0; x < 25; ++x) {
      g12.plane(0).at(y, x) = static_cast<Sample>((x * 163 + y * 59) % 4096);
    }
  }
  pgx::write(path, g12);
  const Image back = pgx::read(path);
  EXPECT_EQ(back.bit_depth(), 12u);
  EXPECT_TRUE(metrics::identical(g12, back));
  std::remove(path.c_str());
}

TEST(Pgx, HugeDeclaredGeometryFailsBeforeAllocating) {
  const auto path = temp_path("cj2k_huge.pgx");
  write_file(path, "PG ML +16 30000 30000\n\x01\x02");
  expect_geometry_rejected(path, [](const std::string& p) { pgx::read(p); });
}

TEST(Pgx, RejectsBadInput) {
  const auto path = temp_path("cj2k_bad.pgx");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("XX nope", f);
  fclose(f);
  EXPECT_THROW(pgx::read(path), IoError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cj2k
