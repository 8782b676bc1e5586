#include "image/pnm.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <vector>

#include "common/error.hpp"

namespace cj2k::pnm {

namespace {

/// Reads the next whitespace/comment-delimited unsigned integer token.
std::size_t next_uint(std::istream& in, const std::string& path) {
  int c = in.get();
  while (c != EOF) {
    if (c == '#') {
      while (c != EOF && c != '\n') c = in.get();
    } else if (std::isspace(c)) {
      c = in.get();
    } else {
      break;
    }
  }
  if (c == EOF || !std::isdigit(c)) {
    throw IoError("malformed PNM header: " + path);
  }
  std::size_t v = 0;
  while (c != EOF && std::isdigit(c)) {
    v = v * 10 + static_cast<std::size_t>(c - '0');
    c = in.get();
  }
  return v;
}

}  // namespace

Image read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open PNM file: " + path);

  char magic[2];
  in.read(magic, 2);
  if (!in || magic[0] != 'P' || (magic[1] != '5' && magic[1] != '6')) {
    throw IoError("not a binary PGM/PPM file: " + path);
  }
  const std::size_t components = magic[1] == '5' ? 1 : 3;
  const std::size_t w = next_uint(in, path);
  const std::size_t h = next_uint(in, path);
  const std::size_t maxval = next_uint(in, path);
  if (maxval == 0 || maxval > 255) {
    throw IoError("only 8-bit PNM is supported: " + path);
  }
  if (w == 0 || h == 0) throw IoError("empty PNM geometry: " + path);

  require_pixel_bytes(in, w, components, h, path);
  Image img(w, h, components, 8);
  std::vector<unsigned char> row(w * components);
  for (std::size_t y = 0; y < h; ++y) {
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size()));
    if (!in) throw IoError("short read on PNM pixel data: " + path);
    for (std::size_t c = 0; c < components; ++c) {
      Sample* dst = img.plane(c).row(y);
      for (std::size_t x = 0; x < w; ++x) dst[x] = row[x * components + c];
    }
  }
  return img;
}

void write(const std::string& path, const Image& img) {
  CJ2K_CHECK_MSG(img.components() == 1 || img.components() == 3,
                 "PNM writer supports 1 or 3 components");
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot create PNM file: " + path);

  const std::size_t components = img.components();
  out << (components == 1 ? "P5" : "P6") << "\n"
      << img.width() << " " << img.height() << "\n255\n";

  std::vector<unsigned char> row(img.width() * components);
  for (std::size_t y = 0; y < img.height(); ++y) {
    for (std::size_t c = 0; c < components; ++c) {
      const Sample* src = img.plane(c).row(y);
      for (std::size_t x = 0; x < img.width(); ++x) {
        row[x * components + c] =
            static_cast<unsigned char>(std::clamp<Sample>(src[x], 0, 255));
      }
    }
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size()));
  }
  if (!out) throw IoError("short write on PNM file: " + path);
}

}  // namespace cj2k::pnm
