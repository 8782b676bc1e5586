#include "jp2k/t1_common.hpp"

#include <algorithm>
#include <bit>

#include "common/error.hpp"
#include "common/native_simd.hpp"

namespace cj2k::jp2k {

namespace {

/// Table D.1 column for LL/LH subbands (ΣH is the primary discriminator).
int zc_hprimary(int h, int v, int d) {
  if (h == 2) return 8;
  if (h == 1) {
    if (v >= 1) return 7;
    return d >= 1 ? 6 : 5;
  }
  // h == 0
  if (v == 2) return 4;
  if (v == 1) return 3;
  if (d >= 2) return 2;
  return d == 1 ? 1 : 0;
}

/// Table D.1 column for HH subbands (ΣD is the primary discriminator).
int zc_dprimary(int h, int v, int d) {
  const int hv = h + v;
  if (d >= 3) return 8;
  if (d == 2) return hv >= 1 ? 7 : 6;
  if (d == 1) {
    if (hv >= 2) return 5;
    return hv == 1 ? 4 : 3;
  }
  // d == 0
  if (hv >= 2) return 2;
  return hv == 1 ? 1 : 0;
}

}  // namespace

int zc_context(SubbandOrient orient, int h, int v, int d) {
  CJ2K_DCHECK(h >= 0 && h <= 2 && v >= 0 && v <= 2 && d >= 0 && d <= 4);
  switch (orient) {
    case SubbandOrient::LL:
    case SubbandOrient::LH:
      return kCtxZcBase + zc_hprimary(h, v, d);
    case SubbandOrient::HL:
      // Horizontally high-pass: the roles of H and V swap.
      return kCtxZcBase + zc_hprimary(v, h, d);
    case SubbandOrient::HH:
      return kCtxZcBase + zc_dprimary(h, v, d);
  }
  return kCtxZcBase;
}

ScLookup sc_lookup(int hc, int vc) {
  CJ2K_DCHECK(hc >= -1 && hc <= 1 && vc >= -1 && vc <= 1);
  // Annex D Table D.2.  Negating both contributions flips the XOR bit and
  // keeps the context, which the table below encodes explicitly.
  if (hc == 1) {
    if (vc == 1) return {kCtxScBase + 4, 0};
    if (vc == 0) return {kCtxScBase + 3, 0};
    return {kCtxScBase + 2, 0};
  }
  if (hc == 0) {
    if (vc == 1) return {kCtxScBase + 1, 0};
    if (vc == 0) return {kCtxScBase + 0, 0};
    return {kCtxScBase + 1, 1};
  }
  // hc == -1
  if (vc == 1) return {kCtxScBase + 2, 1};
  if (vc == 0) return {kCtxScBase + 3, 1};
  return {kCtxScBase + 4, 1};
}

namespace {

T1ContextTables build_context_tables() {
  T1ContextTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    const auto bit = [i](std::uint32_t b) { return (i & b) ? 1 : 0; };
    const int h = bit(kNbrW) + bit(kNbrE);
    const int v = bit(kNbrN) + bit(kNbrS);
    const int d = bit(kNbrNW) + bit(kNbrNE) + bit(kNbrSW) + bit(kNbrSE);
    for (int o = 0; o < 4; ++o) {
      t.zc[o][i] = static_cast<std::uint8_t>(
          zc_context(static_cast<SubbandOrient>(o), h, v, d));
    }
    // Index bits 0-3: N/S/W/E significant; bits 4-7: the same four negative.
    const auto contrib = [i](int k) {
      if (!(i & (1u << k))) return 0;
      return (i & (1u << (k + 4))) ? -1 : 1;
    };
    const int hc = std::clamp(contrib(2) + contrib(3), -1, 1);
    const int vc = std::clamp(contrib(0) + contrib(1), -1, 1);
    const ScLookup sc = sc_lookup(hc, vc);
    t.sc[i] = static_cast<std::uint8_t>(sc.context << 1 | sc.xor_bit);
  }
  return t;
}

}  // namespace

const T1ContextTables& t1_context_tables() {
  static const T1ContextTables tables = build_context_tables();
  return tables;
}

int block_prescan(Span2d<const Sample> coeffs, std::uint32_t* mag,
                  T1Flags* flags) {
  const std::size_t w = coeffs.width();
  const std::size_t h = coeffs.height();
  // OR of every magnitude: its bit width is the largest one's, and only
  // INT32_MIN's magnitude has bit 31 set.
  nv::I4 vall = nv::splat(Sample{0});
  std::uint32_t all = 0;
  for (std::size_t y = 0; y < h; ++y) {
    const Sample* row = coeffs.row(y);
    auto* mrow = mag ? reinterpret_cast<std::int32_t*>(mag + y * w) : nullptr;
    std::size_t x = 0;
    for (; x + 4 <= w; x += 4) {
      const nv::I4 m = nv::abs(nv::load(row + x));
      if (mrow) nv::store(mrow + x, m);
      vall = nv::or_(m, vall);
    }
    for (; x < w; ++x) {
      const auto v = static_cast<std::uint32_t>(row[x]);
      const std::uint32_t m = row[x] < 0 ? 0u - v : v;
      if (mrow) mrow[x] = static_cast<std::int32_t>(m);
      all |= m;
    }
    // The sign bit of each flag word, straight from the coefficient's.
    if (flags) {
      std::uint32_t* frow = &flags->at(y, 0);
      for (x = 0; x < w; ++x) {
        frow[x] |= (static_cast<std::uint32_t>(row[x]) >> 31) << kFlagSignShift;
      }
    }
  }
  std::int32_t lanes[4];
  nv::store(lanes, vall);
  for (const std::int32_t l : lanes) all |= static_cast<std::uint32_t>(l);
  CJ2K_CHECK_MSG((all >> 31) == 0,
                 "code block holds INT32_MIN, whose magnitude has no int32 "
                 "form");
  return std::bit_width(all);
}

}  // namespace cj2k::jp2k
