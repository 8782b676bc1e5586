#include "image/bmp.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/error.hpp"

namespace cj2k::bmp {

namespace {

std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t load_le16(const unsigned char* p) {
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

void store_le32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void store_le16(unsigned char* p, std::uint16_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
}

constexpr std::size_t kFileHeaderSize = 14;
constexpr std::size_t kInfoHeaderSize = 40;

}  // namespace

Image read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open BMP file: " + path);

  unsigned char hdr[kFileHeaderSize + kInfoHeaderSize];
  in.read(reinterpret_cast<char*>(hdr), sizeof(hdr));
  if (!in) throw IoError("short read on BMP header: " + path);

  if (hdr[0] != 'B' || hdr[1] != 'M') {
    throw IoError("not a BMP file: " + path);
  }
  const std::uint32_t data_offset = load_le32(hdr + 10);
  const std::uint32_t info_size = load_le32(hdr + 14);
  if (info_size < kInfoHeaderSize) {
    throw IoError("unsupported BMP header variant: " + path);
  }
  const std::int32_t width = static_cast<std::int32_t>(load_le32(hdr + 18));
  const std::int32_t height_raw =
      static_cast<std::int32_t>(load_le32(hdr + 22));
  const std::uint16_t planes = load_le16(hdr + 26);
  const std::uint16_t bpp = load_le16(hdr + 28);
  const std::uint32_t compression = load_le32(hdr + 30);

  if (planes != 1 || bpp != 24 || compression != 0) {
    throw IoError("only uncompressed 24-bit BMP is supported: " + path);
  }
  if (width <= 0 || height_raw == 0) {
    throw IoError("bad BMP geometry: " + path);
  }
  const bool bottom_up = height_raw > 0;
  const std::size_t height =
      static_cast<std::size_t>(bottom_up ? height_raw : -height_raw);
  const std::size_t w = static_cast<std::size_t>(width);

  in.seekg(static_cast<std::streamoff>(data_offset), std::ios::beg);
  const std::size_t row_bytes = round_up(w * 3, 4);
  require_pixel_bytes(in, row_bytes, 1, height, path);
  std::vector<unsigned char> row(row_bytes);

  Image img(w, height, 3, 8);
  for (std::size_t i = 0; i < height; ++i) {
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row_bytes));
    if (!in) throw IoError("short read on BMP pixel data: " + path);
    const std::size_t y = bottom_up ? height - 1 - i : i;
    Sample* r = img.plane(0).row(y);
    Sample* g = img.plane(1).row(y);
    Sample* b = img.plane(2).row(y);
    for (std::size_t x = 0; x < w; ++x) {
      b[x] = row[x * 3 + 0];
      g[x] = row[x * 3 + 1];
      r[x] = row[x * 3 + 2];
    }
  }
  return img;
}

void write(const std::string& path, const Image& img) {
  CJ2K_CHECK_MSG(img.components() == 3 || img.components() == 1,
                 "BMP writer supports 1 or 3 components");
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot create BMP file: " + path);

  const std::size_t w = img.width();
  const std::size_t h = img.height();
  const std::size_t row_bytes = round_up(w * 3, 4);
  const std::size_t data_bytes = row_bytes * h;
  const std::size_t file_bytes = kFileHeaderSize + kInfoHeaderSize + data_bytes;

  unsigned char hdr[kFileHeaderSize + kInfoHeaderSize] = {};
  hdr[0] = 'B';
  hdr[1] = 'M';
  store_le32(hdr + 2, static_cast<std::uint32_t>(file_bytes));
  store_le32(hdr + 10, kFileHeaderSize + kInfoHeaderSize);
  store_le32(hdr + 14, kInfoHeaderSize);
  store_le32(hdr + 18, static_cast<std::uint32_t>(w));
  store_le32(hdr + 22, static_cast<std::uint32_t>(h));
  store_le16(hdr + 26, 1);
  store_le16(hdr + 28, 24);
  store_le32(hdr + 34, static_cast<std::uint32_t>(data_bytes));
  out.write(reinterpret_cast<const char*>(hdr), sizeof(hdr));

  std::vector<unsigned char> row(row_bytes, 0);
  const bool grey = img.components() == 1;
  for (std::size_t i = 0; i < h; ++i) {
    const std::size_t y = h - 1 - i;  // bottom-up
    const Sample* r = img.plane(0).row(y);
    const Sample* g = grey ? r : img.plane(1).row(y);
    const Sample* b = grey ? r : img.plane(2).row(y);
    for (std::size_t x = 0; x < w; ++x) {
      const auto clamp8 = [](Sample v) {
        return static_cast<unsigned char>(std::clamp<Sample>(v, 0, 255));
      };
      row[x * 3 + 0] = clamp8(b[x]);
      row[x * 3 + 1] = clamp8(g[x]);
      row[x * 3 + 2] = clamp8(r[x]);
    }
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row_bytes));
  }
  if (!out) throw IoError("short write on BMP file: " + path);
}

}  // namespace cj2k::bmp
