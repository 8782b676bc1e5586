#include "image/pgx.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace cj2k::pgx {

Image read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw IoError("cannot open PGX file: " + path);

  std::string line;
  std::getline(in, line);
  std::istringstream hdr(line);
  std::string magic, endian;
  // Initialized here rather than assigned in the unsigned-default branch
  // below: gcc 12's -Wrestrict misfires on operator=(const char*).
  std::string signstr = "+";
  unsigned depth = 0;
  std::size_t w = 0, h = 0;
  hdr >> magic >> endian;
  if (magic != "PG" || (endian != "ML" && endian != "LM")) {
    throw IoError("not a PGX file: " + path);
  }
  // Sign marker may be fused with the depth ("+8") or separate ("+ 8").
  std::string tok;
  hdr >> tok;
  const auto parse_depth = [&](const std::string& t) -> unsigned {
    // Depths are at most 2 digits; a longer run would overflow stoul.
    if (t.empty() || t.size() > 2 ||
        !std::all_of(t.begin(), t.end(),
                     [](unsigned char c) { return std::isdigit(c); })) {
      throw IoError("malformed PGX depth field: " + path);
    }
    return static_cast<unsigned>(std::stoul(t));
  };
  if (tok == "+" || tok == "-") {
    signstr = tok;
    hdr >> tok;
    depth = parse_depth(tok);
  } else if (!tok.empty() && (tok[0] == '+' || tok[0] == '-')) {
    signstr = tok.substr(0, 1);
    depth = parse_depth(tok.substr(1));
  } else {
    depth = parse_depth(tok);
  }
  hdr >> w >> h;
  if (!hdr) throw IoError("malformed PGX header: " + path);
  if (signstr != "+") throw IoError("signed PGX is not supported: " + path);
  if (depth < 1 || depth > 16 || w == 0 || h == 0) {
    throw IoError("unsupported PGX geometry: " + path);
  }

  const bool big = endian == "ML";
  const std::size_t bytes = depth > 8 ? 2 : 1;
  require_pixel_bytes(in, w, bytes, h, path);
  Image img(w, h, 1, depth);
  std::vector<unsigned char> row(w * bytes);
  for (std::size_t y = 0; y < h; ++y) {
    in.read(reinterpret_cast<char*>(row.data()),
            static_cast<std::streamsize>(row.size()));
    if (!in) throw IoError("short read on PGX data: " + path);
    Sample* dst = img.plane(0).row(y);
    for (std::size_t x = 0; x < w; ++x) {
      if (bytes == 1) {
        dst[x] = row[x];
      } else {
        dst[x] = big ? (row[2 * x] << 8) | row[2 * x + 1]
                     : (row[2 * x + 1] << 8) | row[2 * x];
      }
    }
  }
  return img;
}

void write(const std::string& path, const Image& img) {
  CJ2K_CHECK_MSG(img.components() == 1, "PGX holds a single component");
  std::ofstream out(path, std::ios::binary);
  if (!out) throw IoError("cannot create PGX file: " + path);
  out << "PG ML +" << img.bit_depth() << " " << img.width() << " "
      << img.height() << "\n";
  const std::size_t bytes = img.bit_depth() > 8 ? 2 : 1;
  std::vector<unsigned char> row(img.width() * bytes);
  for (std::size_t y = 0; y < img.height(); ++y) {
    const Sample* src = img.plane(0).row(y);
    for (std::size_t x = 0; x < img.width(); ++x) {
      const auto v = static_cast<std::uint16_t>(src[x]);
      if (bytes == 1) {
        row[x] = static_cast<unsigned char>(v);
      } else {
        row[2 * x] = static_cast<unsigned char>(v >> 8);
        row[2 * x + 1] = static_cast<unsigned char>(v);
      }
    }
    out.write(reinterpret_cast<const char*>(row.data()),
              static_cast<std::streamsize>(row.size()));
  }
  if (!out) throw IoError("short write on PGX file: " + path);
}

}  // namespace cj2k::pgx
