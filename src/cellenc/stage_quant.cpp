#include "cellenc/stage_quant.hpp"

#include <algorithm>

#include "cellenc/kernels.hpp"
#include "cellenc/sample_policy.hpp"
#include "common/error.hpp"
#include "decomp/chunk.hpp"

namespace cj2k::cellenc {

namespace {

/// One constant-step segment of a plane row.
struct Segment {
  std::size_t x0;
  std::size_t width;
  double step;
};

/// The subbands that intersect row y, as left-to-right segments tiling
/// [0, plane width).
std::vector<Segment> segments_for_row(const jp2k::TileComponent& tc,
                                      std::size_t y) {
  std::vector<Segment> segs;
  for (const auto& sb : tc.subbands) {
    if (y >= sb.info.y0 && y < sb.info.y0 + sb.info.h) {
      segs.push_back({sb.info.x0, sb.info.w, sb.quant_step});
    }
  }
  std::sort(segs.begin(), segs.end(),
            [](const Segment& a, const Segment& b) { return a.x0 < b.x0; });
  return segs;
}

}  // namespace

template <typename P>
cell::StageTiming stage_quant(cell::Machine& m,
                              Span2d<const typename P::T> in,
                              Span2d<Sample> qplane,
                              const jp2k::TileComponent& tc,
                              const backend::KernelBackend& bk) {
  using T = typename P::T;
  const std::size_t w = in.width();
  const std::size_t h = in.height();
  CJ2K_CHECK(qplane.width() == w && qplane.height() == h);

  const auto rows = decomp::split_rows(
      h, static_cast<std::size_t>(std::max(1, m.num_spes())));

  auto spe_work = [&](int i, cell::SpeContext& ctx) {
    if (m.num_spes() == 0 ||
        static_cast<std::size_t>(i) >= rows.size()) {
      return;
    }
    const auto [start, count] = rows[static_cast<std::size_t>(i)];
    const std::size_t pad = round_up(w, 32);
    // Whole-cache-line transfers; the fetched input tail is ignored and
    // qout[w..tw) writes zeros, matching the qplane's zero-initialized
    // stride padding (this stage is the plane's only writer).
    const std::size_t tw =
        padded_row_elems(w, std::min(in.stride(), qplane.stride()));
    // Ping/pong double buffering: row y computes on parity y&1 while row
    // y+1 streams into the other parity.  Gets and puts of one parity
    // share its tag, so one wait_tag claims the prefetched input and
    // retires the two-rows-ago output together; the prefetch is fenced so
    // each tag group stays an ordered stream (get after the retiring put),
    // the same idiom that makes in-place buffers legal elsewhere.
    T* fin[2] = {ctx.ls.alloc<T>(pad), ctx.ls.alloc<T>(pad)};
    Sample* qout[2] = {ctx.ls.alloc<Sample>(pad), ctx.ls.alloc<Sample>(pad)};
    for (std::size_t x = w; x < tw; ++x) qout[0][x] = 0;
    for (std::size_t x = w; x < tw; ++x) qout[1][x] = 0;
    dma_getf_row_tagged(ctx.dma, fin[0], in.row(start), tw, 0);
    for (std::size_t y = start; y < start + count; ++y) {
      const unsigned cur = static_cast<unsigned>((y - start) & 1);
      const unsigned nxt = cur ^ 1u;
      if (y + 1 < start + count) {
        dma_getf_row_tagged(ctx.dma, fin[nxt], in.row(y + 1), tw, nxt);
      }
      ctx.dma.wait_tag(cur);
      ctx.dma.touch(fin[cur], tw * sizeof(T));
      ctx.dma.touch(qout[cur], tw * sizeof(Sample));
      for (const auto& seg : segments_for_row(tc, y)) {
        (bk.*P::kQuantRow)(ctx.simd, fin[cur] + seg.x0, qout[cur] + seg.x0,
                           seg.width, P::reciprocal(seg.step));
      }
      dma_put_row_tagged(ctx.dma, qout[cur], qplane.row(y), tw, cur);
    }
    ctx.dma.wait_all();
    ctx.ls.reset();
  };

  auto ppe_work = [&](cell::OpCounters& c) {
    if (m.num_spes() > 0) return;  // SPEs took every row
    for (std::size_t y = 0; y < h; ++y) {
      for (const auto& seg : segments_for_row(tc, y)) {
        P::kPpeQuant(in.row(y) + seg.x0, qplane.row(y) + seg.x0, seg.width,
                     seg.step);
      }
      c.*P::kOps += w * P::kQuantOps;
    }
  };

  return m.run_data_parallel(P::kQuantName, spe_work, ppe_work);
}

template cell::StageTiming stage_quant<FloatSamples>(
    cell::Machine&, Span2d<const float>, Span2d<Sample>,
    const jp2k::TileComponent&, const backend::KernelBackend&);
template cell::StageTiming stage_quant<FixedSamples>(
    cell::Machine&, Span2d<const Sample>, Span2d<Sample>,
    const jp2k::TileComponent&, const backend::KernelBackend&);

cell::StageTiming stage_quant(cell::Machine& m, Span2d<const float> fplane,
                              Span2d<Sample> qplane,
                              const jp2k::TileComponent& tc,
                              const backend::KernelBackend& bk) {
  return stage_quant<FloatSamples>(m, fplane, qplane, tc, bk);
}

cell::StageTiming stage_quant_fixed(cell::Machine& m,
                                    Span2d<const Sample> fxplane,
                                    Span2d<Sample> qplane,
                                    const jp2k::TileComponent& tc,
                                    const backend::KernelBackend& bk) {
  return stage_quant<FixedSamples>(m, fxplane, qplane, tc, bk);
}

}  // namespace cj2k::cellenc
