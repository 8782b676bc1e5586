// The cellcheck differential test: the tier-4 static tag model and the
// tier-2 runtime audit must agree about the repo's stage kernels.
//
// Static side: the flow analyzer walks every SPE region under src/cellenc
// and predicts zero tag-discipline violations, while its per-region
// summaries prove the prediction is about real tagged traffic (the stage
// kernels issue async DMA on resolved tags and wait on them).
//
// Runtime side: full pipeline encodes (lossless 5/3 and rate-controlled
// 9/7) with the strict audit enabled execute the very same kernels and
// must record zero TagHazard events — and a positive dma_overlap_saved
// budget, i.e. the tagged double-buffering the analyzer certified is
// actually overlapping transfers with compute, not just passing the lint.
//
// If either side drifts — a kernel gains an undisciplined tag use the
// analyzer misses, or the analyzer starts flagging shapes the runtime
// proves legal — one of these expectations breaks.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cellcheck/flow.hpp"
#include "cellenc/pipeline.hpp"
#include "image/synth.hpp"
#include "jp2k/encoder.hpp"

namespace cj2k::cellenc {
namespace {

cell::MachineConfig config(int spes, int ppes = 1) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cfg.num_ppe_threads = ppes;
  return cfg;
}

jp2k::CodingParams clean_params(jp2k::WaveletKind w) {
  jp2k::CodingParams p;
  p.wavelet = w;
  p.levels = 3;
  if (w == jp2k::WaveletKind::kIrreversible97) p.rate = 0.1;
  return p;
}

TEST(DmaDifferential, StaticModelPredictsCleanTagDiscipline) {
  std::vector<cellcheck::RegionTagSummary> sums;
  const auto vs = cellcheck::flow_tree(CJ2K_SOURCE_DIR "/src/cellenc", {},
                                       &sums);
  EXPECT_TRUE(vs.empty()) << cellcheck::format_violations(vs);

  // The prediction must be non-vacuous: the stage kernels (read, MCT,
  // DWT passes, quantize) all double-buffer through resolved tags, so a
  // healthy population of regions shows tagged issues paired with waits
  // and zero violations charged to any of them.
  std::size_t tagged = 0;
  for (const auto& s : sums) {
    EXPECT_EQ(s.violations, 0u) << s.file << ":" << s.first_line;
    if (s.resolved_issues > 0) {
      ++tagged;
      EXPECT_GT(s.waits, 0u)
          << s.file << ":" << s.first_line
          << " issues async DMA on resolved tags but never waits";
    }
  }
  EXPECT_GE(tagged, 8u);

  // The count alone could stay met while one stage loses its tagged
  // regions (say, a driver template the lexical analyzer stops seeing), so
  // each front stage must keep at least one tagged region with waits.
  for (const std::string stage :
       {"/stage_mct.cpp", "/stage_dwt.cpp", "/stage_quant.cpp"}) {
    std::size_t regions = 0;
    for (const auto& s : sums) {
      if (s.file.ends_with(stage) && s.resolved_issues > 0 && s.waits > 0) {
        ++regions;
      }
    }
    EXPECT_GE(regions, 1u) << stage << " has no tagged region with waits";
  }
}

TEST(DmaDifferential, RuntimeAuditConfirmsTheStaticPrediction) {
  const Image img = synth::photographic(256, 256, 3, 80);
  CellEncoder enc(config(8));
  for (auto w : {jp2k::WaveletKind::kReversible53,
                 jp2k::WaveletKind::kIrreversible97}) {
    PipelineOptions opt;
    opt.audit.enabled = true;
    opt.audit.strict = true;  // any TagHazard would throw AuditError
    const auto res = enc.encode(img, clean_params(w), opt);
    EXPECT_TRUE(res.audit.clean()) << res.audit.summary();
    EXPECT_EQ(res.audit.tag_hazards(), 0u) << res.audit.summary();
    // The discipline buys real overlap: the cost model credits time hidden
    // behind compute only when the tagged double-buffering is in effect.
    EXPECT_GT(res.dma_overlap_saved_seconds, 0.0);
    EXPECT_GT(res.audit.dma_transfers, 0u);
  }
}

}  // namespace
}  // namespace cj2k::cellenc
