// Sample policies for the stage drivers that differ only by sample type:
// the lossy MCT, the DWT and quantization.  The paper's §4 keeps two
// lossy pipelines — the Q13 fixed-point "before" one, whose multiplies the
// SPE emulates, and the float "after" one — and the DWT driver also runs the
// reversible 5/3.  Each driver is one template over a policy, and a policy
// carries only what differs between the pipelines:
//
//   * the element type T of the coefficient planes (the drivers address
//     rows through Span2d<T> views);
//   * the KernelBackend row kernels the SPEs call, and the lifting-step
//     list of the 9/7 sweeps;
//   * the PPE remainder functions (the serial jp2k reference rows);
//   * the OpCounters field the PPE work charges, and its per-sample counts;
//   * the stage names traces and audits know the stages by.
#pragma once

#include <cstdint>
#include <vector>

#include "backend/kernel_backend.hpp"
#include "cell/counters.hpp"
#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/dwt53.hpp"
#include "jp2k/dwt97.hpp"
#include "jp2k/dwt_merged.hpp"
#include "jp2k/mct.hpp"
#include "jp2k/quant.hpp"

namespace cj2k::cellenc {

using backend::KernelBackend;

/// Reversible 5/3 on integer samples (DWT only; the lossless MCT works in
/// place and keeps its own driver).
struct IntSamples {
  using T = Sample;
  static constexpr bool kReversible = true;
  static constexpr std::uint64_t cell::OpCounters::*kOps =
      &cell::OpCounters::s_int;

  static constexpr const char* kDwtName = "dwt53";
  static constexpr const char* kDwtVerticalName = "dwt53-vertical";
  static constexpr const char* kDwtHorizontalName = "dwt53-horizontal";
  static constexpr std::uint64_t kPpeLiftMul = 2;
  static constexpr auto kHorizontalRow = &KernelBackend::dwt53_h_row;
  static constexpr auto kPpeAnalyze = &jp2k::dwt53::analyze;
  static void ppe_vertical(Span2d<T> region, std::vector<T>& scratch) {
    jp2k::dwt_merged::vertical_analyze_53(region, scratch);
  }
};

/// Float 9/7: the paper's §4 "after" configuration.
struct FloatSamples {
  using T = float;
  using Coef = float;
  static constexpr bool kReversible = false;
  static constexpr bool kMultipass = true;  ///< Honours merged_vertical.
  static constexpr std::uint64_t cell::OpCounters::*kOps =
      &cell::OpCounters::s_float;

  static constexpr const char* kMctName = "levelshift+ict";
  static constexpr auto kShiftIctRow = &KernelBackend::shift_ict_row;
  static constexpr auto kShiftRow = &KernelBackend::shift_to_float_row;
  static constexpr auto kPpeShiftIct = &jp2k::shift_ict_forward_row;
  static constexpr auto kPpeShift = &jp2k::shift_to_float_row;

  static constexpr const char* kDwtName = "dwt97";
  static constexpr const char* kDwtVerticalName = "dwt97-vertical";
  static constexpr const char* kDwtHorizontalName = "dwt97-horizontal";
  static constexpr std::uint64_t kPpeLiftMul = 3;
  static constexpr Coef kLift[4] = {jp2k::dwt97::kAlpha, jp2k::dwt97::kBeta,
                                    jp2k::dwt97::kGamma, jp2k::dwt97::kDelta};
  static constexpr Coef kScaleLow = 1.0f / jp2k::dwt97::kK;
  static constexpr Coef kScaleHigh = jp2k::dwt97::kK;
  static constexpr auto kLiftRow = &KernelBackend::lift97_row;
  static constexpr auto kScaleRow = &KernelBackend::scale_row;
  static constexpr auto kHorizontalRow = &KernelBackend::dwt97_h_row;
  static constexpr auto kPpeAnalyze = &jp2k::dwt97::analyze;
  static void ppe_vertical(Span2d<T> region, std::vector<T>& scratch) {
    jp2k::dwt_merged::vertical_analyze_97(region, scratch);
  }

  static constexpr const char* kQuantName = "quantize";
  static constexpr std::uint64_t kQuantOps = 7;
  static constexpr auto kQuantRow = &KernelBackend::quant_row;
  static constexpr auto kPpeQuant = &jp2k::quantize_row;
  static float reciprocal(double step) {
    return static_cast<float>(1.0 / step);
  }
};

/// Q13 fixed-point 9/7: the paper's §4 "before" configuration (Jasper's
/// arithmetic; every multiply is emulated on the SPE).
struct FixedSamples {
  using T = Sample;
  using Coef = Sample;
  static constexpr bool kReversible = false;
  /// Always the merged vertical schedule; merged_vertical is ignored.
  static constexpr bool kMultipass = false;
  static constexpr std::uint64_t cell::OpCounters::*kOps =
      &cell::OpCounters::s_int;

  static constexpr const char* kMctName = "levelshift+ict(fx)";
  static constexpr auto kShiftIctRow = &KernelBackend::shift_ict_fixed_row;
  static constexpr auto kShiftRow = &KernelBackend::shift_to_fixed_row;
  static constexpr auto kPpeShiftIct = &jp2k::shift_ict_forward_row_fixed;
  static constexpr auto kPpeShift = &jp2k::shift_to_fixed_row;

  static constexpr const char* kDwtName = "dwt97fx";
  static constexpr const char* kDwtVerticalName = "dwt97fx-vertical";
  static constexpr const char* kDwtHorizontalName = "dwt97fx-horizontal";
  static constexpr std::uint64_t kPpeLiftMul = 4;
  static constexpr Coef kLift[4] = {
      jp2k::dwt97::kFxAlpha, jp2k::dwt97::kFxBeta, jp2k::dwt97::kFxGamma,
      jp2k::dwt97::kFxDelta};
  static constexpr Coef kScaleLow = jp2k::dwt97::kFxInvK;
  static constexpr Coef kScaleHigh = jp2k::dwt97::kFxK;
  static constexpr auto kLiftRow = &KernelBackend::lift97_fixed_row;
  static constexpr auto kScaleRow = &KernelBackend::scale_fixed_row;
  static constexpr auto kHorizontalRow = &KernelBackend::dwt97_fixed_h_row;
  static constexpr auto kPpeAnalyze = &jp2k::dwt97::analyze_fixed;
  /// Plain per-column analysis: the merged schedule is an SPE-side DMA
  /// optimization.
  static void ppe_vertical(Span2d<T> region, std::vector<T>& scratch) {
    scratch.resize(region.height());
    for (std::size_t x = 0; x < region.width(); ++x) {
      jp2k::dwt97::analyze_fixed(region.data() + x, region.height(),
                                 region.stride(), scratch.data());
    }
  }

  static constexpr const char* kQuantName = "quantize(fx)";
  static constexpr std::uint64_t kQuantOps = 10;
  static constexpr auto kQuantRow = &KernelBackend::quant_fixed_row;
  static constexpr auto kPpeQuant = &jp2k::quantize_fixed_row;
  static std::int64_t reciprocal(double step) {
    return static_cast<std::int64_t>((65536.0 / step) + 0.5);
  }
};

}  // namespace cj2k::cellenc
