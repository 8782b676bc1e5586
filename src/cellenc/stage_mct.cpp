#include "cellenc/stage_mct.hpp"

#include "cellenc/kernels.hpp"
#include "cellenc/sample_policy.hpp"
#include "common/error.hpp"
#include "decomp/chunk.hpp"
#include "jp2k/mct.hpp"

namespace cj2k::cellenc {

namespace {

/// Scalar-op charge for the PPE remainder work (ops per sample; the PPE
/// runs the same row functions the serial encoder uses).
constexpr std::uint64_t kPpeShiftRctOps = 12;
constexpr std::uint64_t kPpeShiftOps = 4;
constexpr std::uint64_t kPpeShiftIctOps = 22;

}  // namespace

cell::StageTiming stage_mct_lossless(cell::Machine& m,
                                     std::vector<Plane>& planes, bool color,
                                     unsigned depth,
                                     const backend::KernelBackend& bk) {
  CJ2K_CHECK(!planes.empty());
  const std::size_t w = planes[0].width();
  const std::size_t h = planes[0].height();
  const auto plan = decomp::plan_chunks(
      w, sizeof(Sample), static_cast<std::size_t>(m.num_spes()));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (static_cast<std::size_t>(i) >= plan.spe_chunks.size()) return;
    const auto& ch = plan.spe_chunks[static_cast<std::size_t>(i)];
    const std::size_t cw = ch.width;
    // Constant Local Store footprint: a ping/pong row pair per component.
    // The transform is in place (same row is get target and put source), so
    // the prefetch of row y+1 is fenced: it re-targets a buffer whose
    // write-back from row y-1 may still be in flight on the same tag.
    if (color) {
      Sample* lr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lg[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lb[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lx =
          planes.size() > 3 ? ctx.ls.alloc<Sample>(cw) : nullptr;
      dma_getf_row_tagged(ctx.dma, lr[0], planes[0].row(0) + ch.x0, cw, 0);
      dma_getf_row_tagged(ctx.dma, lg[0], planes[1].row(0) + ch.x0, cw, 0);
      dma_getf_row_tagged(ctx.dma, lb[0], planes[2].row(0) + ch.x0, cw, 0);
      for (std::size_t y = 0; y < h; ++y) {
        const unsigned cur = static_cast<unsigned>(y & 1);
        const unsigned nxt = cur ^ 1u;
        if (y + 1 < h) {
          dma_getf_row_tagged(ctx.dma, lr[nxt], planes[0].row(y + 1) + ch.x0,
                              cw, nxt);
          dma_getf_row_tagged(ctx.dma, lg[nxt], planes[1].row(y + 1) + ch.x0,
                              cw, nxt);
          dma_getf_row_tagged(ctx.dma, lb[nxt], planes[2].row(y + 1) + ch.x0,
                              cw, nxt);
        }
        ctx.dma.wait_tag(cur);
        ctx.dma.touch(lr[cur], cw * sizeof(Sample));
        ctx.dma.touch(lg[cur], cw * sizeof(Sample));
        ctx.dma.touch(lb[cur], cw * sizeof(Sample));
        bk.shift_rct_row(ctx.simd, lr[cur], lg[cur], lb[cur], cw, depth);
        dma_put_row_tagged(ctx.dma, lr[cur], planes[0].row(y) + ch.x0, cw,
                           cur);
        dma_put_row_tagged(ctx.dma, lg[cur], planes[1].row(y) + ch.x0, cw,
                           cur);
        dma_put_row_tagged(ctx.dma, lb[cur], planes[2].row(y) + ch.x0, cw,
                           cur);
        // Extra components ride a third tag as a get->wait->compute->put
        // pipeline: the put stays in flight into the next iteration, where
        // the fenced get re-targets the buffer behind it.
        for (std::size_t c = 3; c < planes.size(); ++c) {
          dma_getf_row_tagged(ctx.dma, lx, planes[c].row(y) + ch.x0, cw, 2);
          ctx.dma.wait_tag(2);
          ctx.dma.touch(lx, cw * sizeof(Sample));
          bk.shift_row(ctx.simd, lx, cw, depth);
          dma_put_row_tagged(ctx.dma, lx, planes[c].row(y) + ch.x0, cw, 2);
        }
      }
    } else {
      // Flatten (row, component) into one stream so the ping/pong pipeline
      // stays full across the component seam.
      Sample* lr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      const std::size_t nitems = h * planes.size();
      const auto src = [&](std::size_t k) {
        return planes[k % planes.size()].row(k / planes.size()) + ch.x0;
      };
      dma_getf_row_tagged(ctx.dma, lr[0], src(0), cw, 0);
      for (std::size_t k = 0; k < nitems; ++k) {
        const unsigned cur = static_cast<unsigned>(k & 1);
        const unsigned nxt = cur ^ 1u;
        if (k + 1 < nitems) {
          dma_getf_row_tagged(ctx.dma, lr[nxt], src(k + 1), cw, nxt);
        }
        ctx.dma.wait_tag(cur);
        ctx.dma.touch(lr[cur], cw * sizeof(Sample));
        bk.shift_row(ctx.simd, lr[cur], cw, depth);
        dma_put_row_tagged(ctx.dma, lr[cur], src(k), cw, cur);
      }
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };

  auto ppe_work = [&](cell::OpCounters& c) {
    const auto& rem = plan.remainder;
    if (rem.width == 0) return;
    for (std::size_t y = 0; y < h; ++y) {
      std::size_t cc = 0;
      if (color) {
        jp2k::shift_rct_forward_row(planes[0].row(y) + rem.x0,
                                    planes[1].row(y) + rem.x0,
                                    planes[2].row(y) + rem.x0, rem.width,
                                    depth);
        c.s_int += rem.width * kPpeShiftRctOps;
        cc = 3;
      }
      for (; cc < planes.size(); ++cc) {
        jp2k::level_shift_row(planes[cc].row(y) + rem.x0, rem.width, depth);
        c.s_int += rem.width * kPpeShiftOps;
      }
    }
  };

  return m.run_data_parallel("levelshift+mct", spe_work, ppe_work);
}

template <typename P>
cell::StageTiming stage_mct_lossy(cell::Machine& m,
                                  const std::vector<Plane>& planes,
                                  const std::vector<Span2d<typename P::T>>& out,
                                  bool color, unsigned depth,
                                  const backend::KernelBackend& bk) {
  using T = typename P::T;
  const std::size_t w = planes[0].width();
  const std::size_t h = planes[0].height();
  const std::size_t ncomp = planes.size();
  const auto plan = decomp::plan_chunks(
      w, sizeof(Sample), static_cast<std::size_t>(m.num_spes()));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (static_cast<std::size_t>(i) >= plan.spe_chunks.size()) return;
    const auto& ch = plan.spe_chunks[static_cast<std::size_t>(i)];
    const std::size_t cw = ch.width;
    // Ping/pong on tags 0/1.  Unlike the lossless kernel the inputs (l*)
    // and outputs (f*) are distinct buffers, so the prefetched gets never
    // re-target a buffer with a put in flight and can stay unfenced.
    if (color) {
      Sample* lr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lg[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      Sample* lb[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      T* fy[2] = {ctx.ls.alloc<T>(cw), ctx.ls.alloc<T>(cw)};
      T* fcb[2] = {ctx.ls.alloc<T>(cw), ctx.ls.alloc<T>(cw)};
      T* fcr[2] = {ctx.ls.alloc<T>(cw), ctx.ls.alloc<T>(cw)};
      Sample* lx = ncomp > 3 ? ctx.ls.alloc<Sample>(cw) : nullptr;
      T* fx = ncomp > 3 ? ctx.ls.alloc<T>(cw) : nullptr;
      dma_get_row_tagged(ctx.dma, lr[0], planes[0].row(0) + ch.x0, cw, 0);
      dma_get_row_tagged(ctx.dma, lg[0], planes[1].row(0) + ch.x0, cw, 0);
      dma_get_row_tagged(ctx.dma, lb[0], planes[2].row(0) + ch.x0, cw, 0);
      for (std::size_t y = 0; y < h; ++y) {
        const unsigned cur = static_cast<unsigned>(y & 1);
        const unsigned nxt = cur ^ 1u;
        if (y + 1 < h) {
          dma_get_row_tagged(ctx.dma, lr[nxt], planes[0].row(y + 1) + ch.x0,
                             cw, nxt);
          dma_get_row_tagged(ctx.dma, lg[nxt], planes[1].row(y + 1) + ch.x0,
                             cw, nxt);
          dma_get_row_tagged(ctx.dma, lb[nxt], planes[2].row(y + 1) + ch.x0,
                             cw, nxt);
        }
        ctx.dma.wait_tag(cur);
        ctx.dma.touch(lr[cur], cw * sizeof(Sample));
        ctx.dma.touch(lg[cur], cw * sizeof(Sample));
        ctx.dma.touch(lb[cur], cw * sizeof(Sample));
        ctx.dma.touch(fy[cur], cw * sizeof(T));
        ctx.dma.touch(fcb[cur], cw * sizeof(T));
        ctx.dma.touch(fcr[cur], cw * sizeof(T));
        (bk.*P::kShiftIctRow)(ctx.simd, lr[cur], lg[cur], lb[cur], fy[cur],
                              fcb[cur], fcr[cur], cw, depth);
        dma_put_row_tagged(ctx.dma, fy[cur], out[0].row(y) + ch.x0, cw, cur);
        dma_put_row_tagged(ctx.dma, fcb[cur], out[1].row(y) + ch.x0, cw, cur);
        dma_put_row_tagged(ctx.dma, fcr[cur], out[2].row(y) + ch.x0, cw, cur);
        for (std::size_t c = 3; c < ncomp; ++c) {
          dma_get_row_tagged(ctx.dma, lx, planes[c].row(y) + ch.x0, cw, 2);
          ctx.dma.wait_tag(2);
          ctx.dma.touch(lx, cw * sizeof(Sample));
          ctx.dma.touch(fx, cw * sizeof(T));
          (bk.*P::kShiftRow)(ctx.simd, lx, fx, cw, depth);
          dma_put_row_tagged(ctx.dma, fx, out[c].row(y) + ch.x0, cw, 2);
        }
      }
    } else {
      Sample* lr[2] = {ctx.ls.alloc<Sample>(cw), ctx.ls.alloc<Sample>(cw)};
      T* fy[2] = {ctx.ls.alloc<T>(cw), ctx.ls.alloc<T>(cw)};
      const std::size_t nitems = h * ncomp;
      const auto src = [&](std::size_t k) {
        return planes[k % ncomp].row(k / ncomp) + ch.x0;
      };
      const auto dst = [&](std::size_t k) {
        return out[k % ncomp].row(k / ncomp) + ch.x0;
      };
      dma_get_row_tagged(ctx.dma, lr[0], src(0), cw, 0);
      for (std::size_t k = 0; k < nitems; ++k) {
        const unsigned cur = static_cast<unsigned>(k & 1);
        const unsigned nxt = cur ^ 1u;
        if (k + 1 < nitems) {
          dma_get_row_tagged(ctx.dma, lr[nxt], src(k + 1), cw, nxt);
        }
        ctx.dma.wait_tag(cur);
        ctx.dma.touch(lr[cur], cw * sizeof(Sample));
        ctx.dma.touch(fy[cur], cw * sizeof(T));
        (bk.*P::kShiftRow)(ctx.simd, lr[cur], fy[cur], cw, depth);
        dma_put_row_tagged(ctx.dma, fy[cur], dst(k), cw, cur);
      }
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };

  auto ppe_work = [&](cell::OpCounters& c) {
    const auto& rem = plan.remainder;
    if (rem.width == 0) return;
    for (std::size_t y = 0; y < h; ++y) {
      std::size_t cc = 0;
      if (color) {
        P::kPpeShiftIct(planes[0].row(y) + rem.x0, planes[1].row(y) + rem.x0,
                        planes[2].row(y) + rem.x0, out[0].row(y) + rem.x0,
                        out[1].row(y) + rem.x0, out[2].row(y) + rem.x0,
                        rem.width, depth);
        c.*P::kOps += rem.width * kPpeShiftIctOps;
        cc = 3;
      }
      for (; cc < ncomp; ++cc) {
        P::kPpeShift(planes[cc].row(y) + rem.x0, out[cc].row(y) + rem.x0,
                     rem.width, depth);
        c.*P::kOps += rem.width * kPpeShiftOps;
      }
    }
  };

  return m.run_data_parallel(P::kMctName, spe_work, ppe_work);
}

template cell::StageTiming stage_mct_lossy<FloatSamples>(
    cell::Machine&, const std::vector<Plane>&,
    const std::vector<Span2d<float>>&, bool, unsigned,
    const backend::KernelBackend&);
template cell::StageTiming stage_mct_lossy<FixedSamples>(
    cell::Machine&, const std::vector<Plane>&,
    const std::vector<Span2d<Sample>>&, bool, unsigned,
    const backend::KernelBackend&);

cell::StageTiming stage_mct_lossy(cell::Machine& m,
                                  const std::vector<Plane>& planes,
                                  std::vector<AlignedBuffer<float>>& fplanes,
                                  std::size_t stride, bool color,
                                  unsigned depth,
                                  const backend::KernelBackend& bk) {
  std::vector<Span2d<float>> out;
  for (auto& f : fplanes) {
    out.emplace_back(f.data(), planes[0].width(), planes[0].height(), stride);
  }
  return stage_mct_lossy<FloatSamples>(m, planes, out, color, depth, bk);
}

cell::StageTiming stage_mct_lossy_fixed(cell::Machine& m,
                                        const std::vector<Plane>& planes,
                                        std::vector<Plane>& fxplanes,
                                        bool color, unsigned depth,
                                        const backend::KernelBackend& bk) {
  std::vector<Span2d<Sample>> out;
  for (auto& p : fxplanes) out.push_back(p.view());
  return stage_mct_lossy<FixedSamples>(m, planes, out, color, depth, bk);
}

}  // namespace cj2k::cellenc
