// SPE kernel building blocks shared by the pipeline stages: exact-size DMA
// row transfers and the audit-driven row padding.  Every transfer both
// moves the bytes and leaves the DMA counts the cost model consumes.  The
// SIMD row arithmetic lives behind backend::KernelBackend
// (backend/row_kernels.cpp).
#pragma once

#include <cstddef>
#include <cstdint>

#include "cell/dma.hpp"
#include "common/align.hpp"
#include "image/image.hpp"

namespace cj2k::cellenc {

/// DMA of exactly `elems` 4-byte elements: a cache-line/quad-word bulk part
/// plus 4-byte tail transfers (the "additional programming" the paper's
/// scheme avoids when widths are line multiples — the tail also shows up in
/// the unaligned-transfer counters and thus in the bandwidth model).
void dma_get_row(cell::DmaEngine& dma, void* ls_dst, const void* main_src,
                 std::size_t elems);
void dma_put_row(cell::DmaEngine& dma, const void* ls_src, void* main_dst,
                 std::size_t elems);

/// Tag-grouped asynchronous row transfers (double-buffering building
/// blocks): every piece of the row — bulk <=16 KB transfers plus 4-byte
/// tails — is issued on `tag` without waiting.  Completion is claimed with
/// dma.wait_tag()/wait_tag_mask()/wait_all().  The fenced variants order
/// the whole row after everything previously issued on the same tag (the
/// mfc_getf/putf idiom), which is what lets a kernel re-target a Local
/// Store buffer whose previous transfer is still in flight.
void dma_get_row_tagged(cell::DmaEngine& dma, void* ls_dst,
                        const void* main_src, std::size_t elems,
                        unsigned tag);
void dma_put_row_tagged(cell::DmaEngine& dma, const void* ls_src,
                        void* main_dst, std::size_t elems, unsigned tag);
void dma_getf_row_tagged(cell::DmaEngine& dma, void* ls_dst,
                         const void* main_src, std::size_t elems,
                         unsigned tag);
void dma_putf_row_tagged(cell::DmaEngine& dma, const void* ls_src,
                         void* main_dst, std::size_t elems, unsigned tag);

/// Audit-driven row padding: widens a row transfer of 4-byte elements to a
/// whole number of 128-byte cache lines whenever the plane's stride has
/// room, so awkward widths (e.g. the 1586-wide Fig.5 workload) keep the
/// whole transfer on the efficient bulk path instead of tripping the DMA
/// audit's tail counters.  Plane rows are cache-line aligned and their
/// stride padding is zero-initialized, so a caller widening its transfers
/// must keep the tail bytes stable: either fetch-and-restore them untouched
/// or write zeros.
inline std::size_t padded_row_elems(std::size_t elems,
                                    std::size_t stride_elems) {
  const std::size_t padded =
      round_up(elems, kCacheLineBytes / sizeof(Sample));
  return padded <= stride_elems ? padded : elems;
}

}  // namespace cj2k::cellenc
