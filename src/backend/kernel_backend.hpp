// Kernel backend trait: every hot row kernel of the encode pipeline (MCT,
// 5/3 and 9/7 lifting DWT, quantization, the Local Store shuffles) behind
// one virtual seam.  The kernels are written once, in
// backend/row_kernels.cpp, as a class template over a vector-ops policy,
// and instantiated twice:
//
//  * cell_model() — policy cell::Simd.  Every call performs the real
//    arithmetic AND charges the SPE op counters, so the machine model's
//    simulated seconds come from it: this backend is the *timing truth*.
//  * native_simd() — policy nv::Ops (common/native_simd.hpp): the same
//    kernels over host SIMD (SSE2/NEON with a scalar fallback), with the
//    counter hooks compiled out.  Its purpose is *wall-clock truth*: a real
//    measured encode (bench_native_wallclock).
//
// Byte identity across backends is a hard invariant, pinned by the golden
// vectors and tests/backend_diff_test.cpp.  It holds by construction: both
// instantiations run the same loop structure and operation sequence, the
// integer ops are exact, and the float ops round identically under the
// project-wide -ffp-contract=off (root CMakeLists.txt) — madd() is a
// separate multiply and add on both, never an IEEE-fused FMA.  The serial
// jp2k reference kernels and the goldens remain the independent oracle.
//
// Methods take a cell::Simd& and execute inside SPE regions, written under
// the cellcheck SPE rules (no allocation, no vectors, no locks); the native
// instantiation ignores the handle.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "cell/simd.hpp"
#include "image/image.hpp"

namespace cj2k::backend {

enum class BackendKind {
  kCellModel,  ///< Instrumented cell::Simd path (timing truth; default).
  kNative,     ///< Host-SIMD path (wall-clock truth; no op counters).
};

class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  virtual BackendKind kind() const = 0;
  /// Stable short name ("cell" / "native") for CLI flags and bench labels.
  virtual const char* name() const = 0;

  // --- Forward MCT rows -----------------------------------------------------
  virtual void shift_rct_row(cell::Simd& s, Sample* r, Sample* g, Sample* b,
                             std::size_t n, unsigned depth) const = 0;
  virtual void shift_row(cell::Simd& s, Sample* x, std::size_t n,
                         unsigned depth) const = 0;
  virtual void shift_ict_row(cell::Simd& s, const Sample* r, const Sample* g,
                             const Sample* b, float* y, float* cb, float* cr,
                             std::size_t n, unsigned depth) const = 0;
  virtual void shift_to_float_row(cell::Simd& s, const Sample* x, float* out,
                                  std::size_t n, unsigned depth) const = 0;
  virtual void shift_ict_fixed_row(cell::Simd& s, const Sample* r,
                                   const Sample* g, const Sample* b,
                                   Sample* y, Sample* cb, Sample* cr,
                                   std::size_t n, unsigned depth) const = 0;
  virtual void shift_to_fixed_row(cell::Simd& s, const Sample* x, Sample* out,
                                  std::size_t n, unsigned depth) const = 0;

  // --- DWT vertical lifting rows (across a column chunk) --------------------
  virtual void predict53_row(cell::Simd& s, Sample* d, const Sample* a,
                             const Sample* b, std::size_t n) const = 0;
  virtual void update53_row(cell::Simd& s, Sample* d, const Sample* a,
                            const Sample* b, std::size_t n) const = 0;
  virtual void lift97_row(cell::Simd& s, float* x, const float* a,
                          const float* b, float c, std::size_t n) const = 0;
  virtual void scale_row(cell::Simd& s, float* x, float c,
                         std::size_t n) const = 0;
  virtual void lift97_fixed_row(cell::Simd& s, std::int32_t* x,
                                const std::int32_t* a, const std::int32_t* b,
                                std::int32_t c_q13, std::size_t n) const = 0;
  virtual void scale_fixed_row(cell::Simd& s, Sample* x, Sample c_q13,
                               std::size_t n) const = 0;

  // --- DWT horizontal: one full in-LS row (deinterleave + lifting + scale) --
  virtual void dwt53_h_row(cell::Simd& s, const Sample* in, Sample* even,
                           Sample* odd, std::size_t n) const = 0;
  virtual void dwt97_h_row(cell::Simd& s, const float* in, float* even,
                           float* odd, std::size_t n) const = 0;
  virtual void dwt97_fixed_h_row(cell::Simd& s, const Sample* in,
                                 Sample* even, Sample* odd,
                                 std::size_t n) const = 0;

  // --- Quantization ---------------------------------------------------------
  virtual void quant_row(cell::Simd& s, const float* in, Sample* out,
                         std::size_t n, float inv_step) const = 0;
  virtual void quant_fixed_row(cell::Simd& s, const Sample* in_q13,
                               Sample* out, std::size_t n,
                               std::int64_t inv_q16) const = 0;

  // --- Local Store shuffles -------------------------------------------------
  virtual void deinterleave_row(cell::Simd& s, const Sample* in, Sample* even,
                                Sample* odd, std::size_t n) const = 0;
  virtual void deinterleave_row(cell::Simd& s, const float* in, float* even,
                                float* odd, std::size_t n) const = 0;
  virtual void ls_copy(cell::Simd& s, void* dst, const void* src,
                       std::size_t bytes) const = 0;
};

/// The two process-wide backend singletons.
const KernelBackend& cell_model();
const KernelBackend& native_simd();
const KernelBackend& get(BackendKind kind);

const char* to_string(BackendKind kind);
/// Parses "cell" / "native"; returns false (out untouched) otherwise.
bool parse(std::string_view name, BackendKind& out);

/// Which instruction set the native backend was compiled against:
/// "sse2", "neon", or "scalar".
const char* native_isa();

}  // namespace cj2k::backend
