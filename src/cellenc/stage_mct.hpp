// Pipeline stage: merged level shift + inter-component transform over the
// chunk decomposition (paper §3.2 — fully parallelized on PPE + SPEs, the
// two stages fused to halve their DMA traffic).
#pragma once

#include <vector>

#include "backend/kernel_backend.hpp"
#include "cell/machine.hpp"
#include "common/aligned_buffer.hpp"
#include "common/span2d.hpp"
#include "image/image.hpp"

namespace cj2k::cellenc {

/// Lossless path: level shift (+ RCT when `color`) in place on the planes.
cell::StageTiming stage_mct_lossless(
    cell::Machine& m, std::vector<Plane>& planes, bool color, unsigned depth,
    const backend::KernelBackend& bk = backend::cell_model());

/// Lossy path over a sample policy (cellenc/sample_policy.hpp): level shift
/// (+ ICT when `color`), integer planes -> the policy's coefficient planes
/// `out`.  Reads directly from the working planes the read stage produced —
/// no intermediate copy.  Instantiated for FloatSamples and FixedSamples.
template <typename P>
cell::StageTiming stage_mct_lossy(cell::Machine& m,
                                  const std::vector<Plane>& planes,
                                  const std::vector<Span2d<typename P::T>>& out,
                                  bool color, unsigned depth,
                                  const backend::KernelBackend& bk);

/// Float lossy path into float planes of the given stride (cache-line
/// aligned storage).
cell::StageTiming stage_mct_lossy(
    cell::Machine& m, const std::vector<Plane>& planes,
    std::vector<AlignedBuffer<float>>& fplanes, std::size_t stride,
    bool color, unsigned depth,
    const backend::KernelBackend& bk = backend::cell_model());

/// Fixed-point lossy path into Q13 planes (the paper's §4 "before"
/// configuration).
cell::StageTiming stage_mct_lossy_fixed(
    cell::Machine& m, const std::vector<Plane>& planes,
    std::vector<Plane>& fxplanes, bool color, unsigned depth,
    const backend::KernelBackend& bk = backend::cell_model());

}  // namespace cj2k::cellenc
