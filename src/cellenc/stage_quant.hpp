// Pipeline stage: dead-zone quantization of the 9/7 coefficient plane into
// integer indices (lossy path only; parallelized over full rows with
// per-subband step segments, per the paper's decomposition scheme).
#pragma once

#include <vector>

#include "backend/kernel_backend.hpp"
#include "cell/machine.hpp"
#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/tile.hpp"

namespace cj2k::cellenc {

/// Quantizes `in` (the transformed component, in the sample policy's
/// coefficients — cellenc/sample_policy.hpp) into `qplane`, using each
/// subband's `quant_step` (already set on the tile component's subbands).
/// Instantiated for FloatSamples and FixedSamples.
template <typename P>
cell::StageTiming stage_quant(cell::Machine& m,
                              Span2d<const typename P::T> in,
                              Span2d<Sample> qplane,
                              const jp2k::TileComponent& tc,
                              const backend::KernelBackend& bk);

/// Float variant: quantizes a float coefficient plane.
cell::StageTiming stage_quant(
    cell::Machine& m, Span2d<const float> fplane, Span2d<Sample> qplane,
    const jp2k::TileComponent& tc,
    const backend::KernelBackend& bk = backend::cell_model());

/// Fixed-point variant: quantizes a Q13 coefficient plane via reciprocal
/// multiplies (emulated on the SPE).
cell::StageTiming stage_quant_fixed(
    cell::Machine& m, Span2d<const Sample> fxplane, Span2d<Sample> qplane,
    const jp2k::TileComponent& tc,
    const backend::KernelBackend& bk = backend::cell_model());

}  // namespace cj2k::cellenc
