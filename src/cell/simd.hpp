// Instrumented 128-bit SIMD layer — the SPE "vector ISA" the kernels are
// written against.  Every operation performs the real 4-lane arithmetic on
// the host AND increments the owning SPE's OpCounters, which the cost model
// later converts into cycles.  Loads/stores require quad-word alignment,
// exactly like the hardware.
#pragma once

#include <cstdint>
#include <cstring>

#include "cell/counters.hpp"
#include "cell/vec.hpp"
#include "common/align.hpp"
#include "common/error.hpp"

namespace cj2k::cell {

/// Per-SPE SIMD handle.  Cheap to copy; references the SPE's counters.
class Simd {
 public:
  explicit Simd(OpCounters& c) : c_(&c) {}

  // --- Loads / stores (odd pipe) ------------------------------------------
  VecF4 load(const float* p) {
    check_align(p);
    ++c_->v_load;
    VecF4 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  VecI4 load(const std::int32_t* p) {
    check_align(p);
    ++c_->v_load;
    VecI4 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  void store(float* p, VecF4 v) {
    check_align(p);
    ++c_->v_store;
    std::memcpy(p, v.lane, sizeof(v.lane));
  }
  void store(std::int32_t* p, VecI4 v) {
    check_align(p);
    ++c_->v_store;
    std::memcpy(p, v.lane, sizeof(v.lane));
  }

  // --- Float arithmetic (even pipe) ---------------------------------------
  VecF4 add(VecF4 a, VecF4 b) {
    ++c_->v_add;
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  VecF4 sub(VecF4 a, VecF4 b) {
    ++c_->v_add;
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  VecF4 mul(VecF4 a, VecF4 b) {
    ++c_->v_mul_f;
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] * b.lane[i];
    return r;
  }
  /// Fused multiply-add a*b + c — one fm-class instruction on the SPE.
  VecF4 madd(VecF4 a, VecF4 b, VecF4 c) {
    ++c_->v_mul_f;
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] * b.lane[i] + c.lane[i];
    return r;
  }
  VecF4 splat(float v) {
    ++c_->v_shuffle;
    return VecF4{{v, v, v, v}};
  }

  // --- Integer arithmetic --------------------------------------------------
  VecI4 add(VecI4 a, VecI4 b) {
    ++c_->v_add;
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] + b.lane[i];
    return r;
  }
  VecI4 sub(VecI4 a, VecI4 b) {
    ++c_->v_add;
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] - b.lane[i];
    return r;
  }
  /// Arithmetic shift right (word).
  VecI4 sra(VecI4 a, int s) {
    ++c_->v_shift;
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] >> s;
    return r;
  }
  VecI4 sll(VecI4 a, int s) {
    ++c_->v_shift;
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] << s;
    return r;
  }
  VecI4 splat(std::int32_t v) {
    ++c_->v_shuffle;
    return VecI4{{v, v, v, v}};
  }
  /// 32-bit integer multiply: the SPE has no 4-byte multiply, so this is
  /// the mpyh/mpyh/mpyu/a emulation sequence — counted as such.
  VecI4 mul_emulated(VecI4 a, VecI4 b) {
    ++c_->v_mul_i_emul;
    VecI4 r;
    for (int i = 0; i < 4; ++i) {
      r.lane[i] = static_cast<std::int32_t>(
          static_cast<std::uint32_t>(a.lane[i]) *
          static_cast<std::uint32_t>(b.lane[i]));
    }
    return r;
  }
  /// Q13 fixed-point multiply (widening) — also emulated-integer class.
  VecI4 mul_fix_q13(VecI4 a, VecI4 b) {
    ++c_->v_mul_i_emul;
    ++c_->v_shift;
    VecI4 r;
    for (int i = 0; i < 4; ++i) {
      r.lane[i] = static_cast<std::int32_t>(
          (static_cast<std::int64_t>(a.lane[i]) * b.lane[i]) >> 13);
    }
    return r;
  }

  // --- Conversions / select -------------------------------------------------
  VecF4 to_float(VecI4 a) {
    ++c_->v_cvt;
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = static_cast<float>(a.lane[i]);
    return r;
  }
  VecI4 to_int_trunc(VecF4 a) {
    ++c_->v_cvt;
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = static_cast<std::int32_t>(a.lane[i]);
    return r;
  }
  /// Branch-free select: mask lanes from a where cond lane < 0 else b.
  VecI4 select_neg(VecI4 cond, VecI4 a, VecI4 b) {
    ++c_->v_cmp_sel;
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = cond.lane[i] < 0 ? a.lane[i] : b.lane[i];
    return r;
  }
  VecF4 abs(VecF4 a) {
    ++c_->v_cmp_sel;
    VecF4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] < 0 ? -a.lane[i] : a.lane[i];
    return r;
  }
  /// Float compare against zero: -1 in lanes where a < 0 (so -0.0f is not
  /// negative), else 0.
  VecI4 sign_mask(VecF4 a) {
    ++c_->v_cmp_sel;
    VecI4 r;
    for (int i = 0; i < 4; ++i) r.lane[i] = a.lane[i] < 0 ? -1 : 0;
    return r;
  }
  /// Packs four lanes the caller computed and charged itself (the Q13
  /// quantizer's emulated 64-bit products) into one vector.  Free: on the
  /// SPU the lanes are already in a register.
  VecI4 from_lanes(const std::int32_t* lanes) {
    VecI4 r;
    std::memcpy(r.lane, lanes, sizeof(r.lane));
    return r;
  }

  /// Loads 4 consecutive elements from an address that is only 4-byte
  /// aligned — on the SPU this is two quad-word loads plus a shuffle, and
  /// is charged as such.  Used for the x[i±1] stencil operands.
  VecF4 load_shifted(const float* p) {
    c_->v_load += 2;
    ++c_->v_shuffle;
    VecF4 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }
  VecI4 load_shifted(const std::int32_t* p) {
    c_->v_load += 2;
    ++c_->v_shuffle;
    VecI4 r;
    std::memcpy(r.lane, p, sizeof(r.lane));
    return r;
  }

  OpCounters& counters() { return *c_; }

 private:
  static void check_align(const void* p) {
    if (!is_aligned(p, kQuadWordBytes)) {
      throw CellHardwareError("SIMD load/store requires 16-byte alignment");
    }
  }
  OpCounters* c_;
};

}  // namespace cj2k::cell
