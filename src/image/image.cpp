#include "image/image.hpp"

#include <istream>

#include "common/error.hpp"

namespace cj2k {

Plane::Plane(std::size_t width, std::size_t height,
             std::size_t row_align_bytes)
    : width_(width), height_(height) {
  CJ2K_CHECK_MSG(width > 0 && height > 0, "plane must be non-empty");
  CJ2K_CHECK_MSG(is_multiple_of(row_align_bytes, sizeof(Sample)),
                 "row alignment must be a multiple of the sample size");
  const std::size_t align_elems = row_align_bytes / sizeof(Sample);
  stride_ = round_up(width, align_elems);
  data_ = AlignedBuffer<Sample>(stride_ * height_, row_align_bytes);
}

Image::Image(std::size_t width, std::size_t height, std::size_t components,
             unsigned bit_depth)
    : width_(width), height_(height), bit_depth_(bit_depth) {
  CJ2K_CHECK_MSG(components >= 1, "image needs at least one component");
  CJ2K_CHECK_MSG(bit_depth >= 1 && bit_depth <= 16,
                 "bit depth must be in [1,16]");
  planes_.reserve(components);
  for (std::size_t c = 0; c < components; ++c) {
    planes_.emplace_back(width, height);
  }
}

void require_pixel_bytes(std::istream& in, std::size_t row_elems,
                         std::size_t elem_bytes, std::size_t rows,
                         const std::string& path) {
  if (rows == 0 || row_elems == 0) return;  // The Image rejects these.
  const std::istream::pos_type here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.seekg(here);
  const std::uint64_t left =
      here >= 0 && end > here ? static_cast<std::uint64_t>(end - here) : 0;
  // row_elems * elem_bytes * rows > left, without forming the product.
  if (row_elems > left / elem_bytes ||
      rows > left / (row_elems * elem_bytes)) {
    throw IoError("pixel data shorter than the declared geometry: " + path);
  }
}

}  // namespace cj2k
