// Minimal portable host-SIMD layer: 4-lane float and int32 vectors over
// SSE2 or NEON, with a scalar fallback on anything else, plus nv::Ops — the
// adapter that offers the cell::Simd surface over these vectors, so the row
// kernels written once against that surface (backend/row_kernels.cpp) also
// run natively.  The T1 block prescan (jp2k/t1_common.cpp) uses the raw
// vectors directly.
//
// Bit-exactness contract (what keeps native == Cell model byte-for-byte):
//  * madd(a, b, c) is a separate multiply then add — NEVER an IEEE-fused
//    FMA.  The instrumented cell::Simd::madd computes a*b+c per lane in
//    plain C++ under the project-wide -ffp-contract=off, so the native
//    lowering must round the intermediate product the same way.
//  * to_float / to_int_trunc use the hardware converts (cvtdq2ps/cvttps2dq,
//    vcvtq) whose round-to-nearest / truncate semantics match
//    static_cast<float>(int32) and static_cast<int32>(float) for every value
//    these kernels produce.
//  * Integer lane ops wrap mod 2^32 exactly like the model's.
//
// Loads/stores are unaligned (the Cell model's Local Store pointers are
// quad-aligned, but the 4-byte-aligned stencil loads the SPU does with
// load+shuffle are plain loads here) and never touch memory past the
// requested 4 lanes.
#pragma once

#include <cstdint>
#include <cstring>

#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#include <emmintrin.h>
#define CJ2K_NATIVE_ISA_SSE2 1
#elif defined(__ARM_NEON) || defined(__ARM_NEON__)
#include <arm_neon.h>
#define CJ2K_NATIVE_ISA_NEON 1
#else
#define CJ2K_NATIVE_ISA_SCALAR 1
#endif

namespace cj2k::nv {

#if defined(CJ2K_NATIVE_ISA_SSE2)

inline const char* isa() { return "sse2"; }

struct F4 {
  __m128 v;
};
struct I4 {
  __m128i v;
};

inline F4 load(const float* p) { return {_mm_loadu_ps(p)}; }
inline I4 load(const std::int32_t* p) {
  return {_mm_loadu_si128(reinterpret_cast<const __m128i*>(p))};
}
inline void store(float* p, F4 a) { _mm_storeu_ps(p, a.v); }
inline void store(std::int32_t* p, I4 a) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a.v);
}
inline F4 splat(float x) { return {_mm_set1_ps(x)}; }
inline I4 splat(std::int32_t x) { return {_mm_set1_epi32(x)}; }

inline F4 add(F4 a, F4 b) { return {_mm_add_ps(a.v, b.v)}; }
inline F4 sub(F4 a, F4 b) { return {_mm_sub_ps(a.v, b.v)}; }
inline F4 mul(F4 a, F4 b) { return {_mm_mul_ps(a.v, b.v)}; }
/// a*b + c as two rounded operations (see header comment — not an FMA).
inline F4 madd(F4 a, F4 b, F4 c) {
  return {_mm_add_ps(_mm_mul_ps(a.v, b.v), c.v)};
}
/// |a| by clearing the sign bit (float magnitudes only; no NaNs here).
inline F4 abs(F4 a) {
  return {_mm_andnot_ps(_mm_set1_ps(-0.0f), a.v)};
}

inline I4 add(I4 a, I4 b) { return {_mm_add_epi32(a.v, b.v)}; }
inline I4 sub(I4 a, I4 b) { return {_mm_sub_epi32(a.v, b.v)}; }
inline I4 xor_(I4 a, I4 b) { return {_mm_xor_si128(a.v, b.v)}; }
inline I4 or_(I4 a, I4 b) { return {_mm_or_si128(a.v, b.v)}; }
/// Arithmetic shift right / logical shift left by `s` bits.
inline I4 sra(I4 a, int s) {
  return {_mm_sra_epi32(a.v, _mm_cvtsi32_si128(s))};
}
inline I4 sll(I4 a, int s) {
  return {_mm_sll_epi32(a.v, _mm_cvtsi32_si128(s))};
}

inline F4 to_float(I4 a) { return {_mm_cvtepi32_ps(a.v)}; }
inline I4 to_int_trunc(F4 a) { return {_mm_cvttps_epi32(a.v)}; }

/// Per-lane -1 where the float lane is strictly negative (-0.0f excluded,
/// matching the model's `v < 0` compare), else 0.
inline I4 neg_mask(F4 a) {
  return {_mm_castps_si128(_mm_cmplt_ps(a.v, _mm_setzero_ps()))};
}
/// Per-lane -1 where the int lane is negative, else 0.
inline I4 neg_mask(I4 a) { return {_mm_srai_epi32(a.v, 31)}; }
/// mask lane all-ones -> a, else b.
inline I4 blend(I4 mask, I4 a, I4 b) {
  return {_mm_or_si128(_mm_and_si128(mask.v, a.v),
                       _mm_andnot_si128(mask.v, b.v))};
}

#elif defined(CJ2K_NATIVE_ISA_NEON)

inline const char* isa() { return "neon"; }

struct F4 {
  float32x4_t v;
};
struct I4 {
  int32x4_t v;
};

inline F4 load(const float* p) { return {vld1q_f32(p)}; }
inline I4 load(const std::int32_t* p) { return {vld1q_s32(p)}; }
inline void store(float* p, F4 a) { vst1q_f32(p, a.v); }
inline void store(std::int32_t* p, I4 a) { vst1q_s32(p, a.v); }
inline F4 splat(float x) { return {vdupq_n_f32(x)}; }
inline I4 splat(std::int32_t x) { return {vdupq_n_s32(x)}; }

inline F4 add(F4 a, F4 b) { return {vaddq_f32(a.v, b.v)}; }
inline F4 sub(F4 a, F4 b) { return {vsubq_f32(a.v, b.v)}; }
inline F4 mul(F4 a, F4 b) { return {vmulq_f32(a.v, b.v)}; }
/// a*b + c as two rounded operations — vmlaq_f32 may fuse on some cores,
/// so the separate mul and add are spelled out.
inline F4 madd(F4 a, F4 b, F4 c) {
  return {vaddq_f32(vmulq_f32(a.v, b.v), c.v)};
}
inline F4 abs(F4 a) { return {vabsq_f32(a.v)}; }

inline I4 add(I4 a, I4 b) { return {vaddq_s32(a.v, b.v)}; }
inline I4 sub(I4 a, I4 b) { return {vsubq_s32(a.v, b.v)}; }
inline I4 xor_(I4 a, I4 b) { return {veorq_s32(a.v, b.v)}; }
inline I4 or_(I4 a, I4 b) { return {vorrq_s32(a.v, b.v)}; }
inline I4 sra(I4 a, int s) { return {vshlq_s32(a.v, vdupq_n_s32(-s))}; }
inline I4 sll(I4 a, int s) { return {vshlq_s32(a.v, vdupq_n_s32(s))}; }

inline F4 to_float(I4 a) { return {vcvtq_f32_s32(a.v)}; }
inline I4 to_int_trunc(F4 a) { return {vcvtq_s32_f32(a.v)}; }

inline I4 neg_mask(F4 a) {
  return {vreinterpretq_s32_u32(vcltq_f32(a.v, vdupq_n_f32(0.0f)))};
}
inline I4 neg_mask(I4 a) { return {vshrq_n_s32(a.v, 31)}; }
inline I4 blend(I4 mask, I4 a, I4 b) {
  return {vbslq_s32(vreinterpretq_u32_s32(mask.v), a.v, b.v)};
}

#else  // scalar fallback

inline const char* isa() { return "scalar"; }

struct F4 {
  float v[4];
};
struct I4 {
  std::int32_t v[4];
};

inline F4 load(const float* p) {
  F4 r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}
inline I4 load(const std::int32_t* p) {
  I4 r;
  std::memcpy(r.v, p, sizeof(r.v));
  return r;
}
inline void store(float* p, F4 a) { std::memcpy(p, a.v, sizeof(a.v)); }
inline void store(std::int32_t* p, I4 a) {
  std::memcpy(p, a.v, sizeof(a.v));
}
inline F4 splat(float x) { return {{x, x, x, x}}; }
inline I4 splat(std::int32_t x) { return {{x, x, x, x}}; }

inline F4 add(F4 a, F4 b) {
  F4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] + b.v[i];
  return r;
}
inline F4 sub(F4 a, F4 b) {
  F4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] - b.v[i];
  return r;
}
inline F4 mul(F4 a, F4 b) {
  F4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i];
  return r;
}
inline F4 madd(F4 a, F4 b, F4 c) {
  // Plain per-lane a*b+c: -ffp-contract=off forbids contraction, matching
  // cell::Simd::madd exactly.
  F4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  return r;
}
inline F4 abs(F4 a) {
  F4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] < 0 ? -a.v[i] : a.v[i];
  return r;
}

inline I4 add(I4 a, I4 b) {
  I4 r;
  for (int i = 0; i < 4; ++i) {
    r.v[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(a.v[i]) +
                                       static_cast<std::uint32_t>(b.v[i]));
  }
  return r;
}
inline I4 sub(I4 a, I4 b) {
  I4 r;
  for (int i = 0; i < 4; ++i) {
    r.v[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(a.v[i]) -
                                       static_cast<std::uint32_t>(b.v[i]));
  }
  return r;
}
inline I4 xor_(I4 a, I4 b) {
  I4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] ^ b.v[i];
  return r;
}
inline I4 or_(I4 a, I4 b) {
  I4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] | b.v[i];
  return r;
}
inline I4 sra(I4 a, int s) {
  I4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] >> s;
  return r;
}
inline I4 sll(I4 a, int s) {
  I4 r;
  for (int i = 0; i < 4; ++i) {
    r.v[i] = static_cast<std::int32_t>(static_cast<std::uint32_t>(a.v[i])
                                       << s);
  }
  return r;
}

inline F4 to_float(I4 a) {
  F4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = static_cast<float>(a.v[i]);
  return r;
}
inline I4 to_int_trunc(F4 a) {
  I4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = static_cast<std::int32_t>(a.v[i]);
  return r;
}

inline I4 neg_mask(F4 a) {
  I4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] < 0 ? -1 : 0;
  return r;
}
inline I4 neg_mask(I4 a) {
  I4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] < 0 ? -1 : 0;
  return r;
}
inline I4 blend(I4 mask, I4 a, I4 b) {
  I4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = mask.v[i] != 0 ? a.v[i] : b.v[i];
  return r;
}

#endif

/// |a| per int32 lane via the (v ^ sign) - sign idiom.  INT_MIN wraps to
/// itself, so a lane whose result is still negative held INT_MIN.
inline I4 abs(I4 a) {
  const I4 sign = neg_mask(a);
  return sub(xor_(a, sign), sign);
}

/// Lane-by-lane int32 operation through memory, for the multiplies SSE2
/// has no 4×32-bit form of.  Only the Q13 fixed-point ablation kernels use
/// them, so they are not a wall-clock target.
template <typename Fn>
inline I4 lanewise(I4 a, I4 b, Fn f) {
  std::int32_t x[4], y[4];
  store(x, a);
  store(y, b);
  for (int i = 0; i < 4; ++i) x[i] = f(x[i], y[i]);
  return load(x);
}

/// The cell::Simd surface over host vectors: the same method names and lane
/// semantics, no alignment check, and counter hooks that compile to
/// nothing.  Instantiating the shared row kernels with it gives the native
/// backend.
struct Ops {
  /// Stand-in for one OpCounters field: every charge is discarded.
  struct Charge {
    constexpr void operator+=(std::uint64_t) const {}
  };
  struct Counters {
    Charge v_load, v_store, v_add, v_mul_f, v_mul_i_emul, v_shift,
        v_cmp_sel, v_shuffle, v_cvt, s_int, s_float, s_branch;
  };
  static constexpr Counters counters() { return {}; }

  static F4 load(const float* p) { return nv::load(p); }
  static I4 load(const std::int32_t* p) { return nv::load(p); }
  static void store(float* p, F4 v) { nv::store(p, v); }
  static void store(std::int32_t* p, I4 v) { nv::store(p, v); }
  /// The SPU's two-load-plus-shuffle misaligned load is one plain load.
  static F4 load_shifted(const float* p) { return nv::load(p); }
  static I4 load_shifted(const std::int32_t* p) { return nv::load(p); }
  static I4 from_lanes(const std::int32_t* lanes) { return nv::load(lanes); }
  static F4 splat(float x) { return nv::splat(x); }
  static I4 splat(std::int32_t x) { return nv::splat(x); }

  static F4 add(F4 a, F4 b) { return nv::add(a, b); }
  static F4 sub(F4 a, F4 b) { return nv::sub(a, b); }
  static F4 mul(F4 a, F4 b) { return nv::mul(a, b); }
  static F4 madd(F4 a, F4 b, F4 c) { return nv::madd(a, b, c); }
  static F4 abs(F4 a) { return nv::abs(a); }

  static I4 add(I4 a, I4 b) { return nv::add(a, b); }
  static I4 sub(I4 a, I4 b) { return nv::sub(a, b); }
  static I4 sra(I4 a, int s) { return nv::sra(a, s); }
  static I4 sll(I4 a, int s) { return nv::sll(a, s); }
  static I4 mul_emulated(I4 a, I4 b) {
    return lanewise(a, b, [](std::int32_t x, std::int32_t y) {
      return static_cast<std::int32_t>(static_cast<std::uint32_t>(x) *
                                       static_cast<std::uint32_t>(y));
    });
  }
  static I4 mul_fix_q13(I4 a, I4 b) {
    return lanewise(a, b, [](std::int32_t x, std::int32_t y) {
      return static_cast<std::int32_t>((static_cast<std::int64_t>(x) * y) >>
                                       13);
    });
  }

  static F4 to_float(I4 a) { return nv::to_float(a); }
  static I4 to_int_trunc(F4 a) { return nv::to_int_trunc(a); }
  static I4 sign_mask(F4 a) { return neg_mask(a); }
  static I4 select_neg(I4 cond, I4 a, I4 b) {
    return blend(neg_mask(cond), a, b);
  }
};

}  // namespace cj2k::nv
