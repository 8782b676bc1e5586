#include "jp2k/mq_decoder.hpp"

namespace cj2k::jp2k {

namespace {

std::uint8_t byte_at(const std::uint8_t* data, std::size_t size,
                     std::size_t i) {
  return i < size ? data[i] : 0xFF;
}

}  // namespace

void MqDecoder::init(const std::uint8_t* data, std::size_t size) {
  data_ = data;
  size_ = size;
  const ByteIn r = bytein(data, size, 0,
                          static_cast<std::uint32_t>(byte_at(data, size, 0))
                              << 16);
  bp_ = r.bp;
  c_ = r.c << 7;
  ct_ = r.ct - 7;
  a_ = 0x8000;
}

MqDecoder::ByteIn MqDecoder::bytein(const std::uint8_t* data,
                                    std::size_t size, std::size_t bp,
                                    std::uint32_t c) {
  if (byte_at(data, size, bp) == 0xFF) {
    if (byte_at(data, size, bp + 1) > 0x8F) {
      // A marker (or the end of data): feed 1-bits without consuming.
      return {bp, c + 0xFF00, 8};
    }
    ++bp;
    return {bp, c + (static_cast<std::uint32_t>(byte_at(data, size, bp)) << 9),
            7};
  }
  ++bp;
  return {bp, c + (static_cast<std::uint32_t>(byte_at(data, size, bp)) << 8),
          8};
}

}  // namespace cj2k::jp2k
