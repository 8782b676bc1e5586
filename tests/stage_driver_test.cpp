// Pins the front stage drivers (MCT, DWT, quantization) called directly on
// small planes.  Each row records, for one call: the stage name, the DMA
// byte count, every StageTiming double by its bit pattern, and a SHA-256
// prefix of the output planes.  Simulated seconds are host-independent, so
// a changed row is a change of the model's behaviour (a reordered DMA
// issue, a different op charge), never noise.
//
// The width (200) leaves a PPE remainder column group at 1, 6 and 8 SPEs
// and on the coarser DWT levels; 0 SPEs runs every stage on the PPE.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cellenc/stage_dwt.hpp"
#include "cellenc/stage_mct.hpp"
#include "cellenc/stage_quant.hpp"
#include "common/sha256.hpp"
#include "image/synth.hpp"
#include "jp2k/quant.hpp"

namespace cj2k::cellenc {
namespace {

constexpr std::size_t kW = 200;
constexpr std::size_t kH = 37;
constexpr int kLevels = 3;
constexpr int kSpeCounts[] = {0, 1, 6, 8};

cell::Machine machine(int spes) {
  cell::MachineConfig cfg;
  cfg.num_spes = spes;
  cfg.num_ppe_threads = 1;
  return cell::Machine(cfg);
}

/// The bit pattern of `d` in hex; "0" for +0.0, which most fields read.
std::string bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  if (u == 0) return "0";
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, u);
  return buf;
}

/// Appends the visible samples of `v` (padding excluded) to `bytes`.
template <typename T>
void append_plane(std::vector<std::uint8_t>& bytes, Span2d<const T> v) {
  for (std::size_t y = 0; y < v.height(); ++y) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(v.row(y));
    bytes.insert(bytes.end(), p, p + v.width() * sizeof(T));
  }
}

std::string row(const std::string& label, const cell::StageTiming& t,
                const std::vector<std::uint8_t>& bytes) {
  const cell::StallBreakdown& s = t.stall;
  std::string r = label + " " + t.name + " dma=" + std::to_string(t.dma_bytes);
  for (const double d : {t.spe_compute, t.spe_dma, t.dma_aggregate, t.ppe,
                         t.seconds, t.overlap_saved, t.dma_overlap_saved,
                         s.busy, s.dma_wait, s.queue_empty, s.ppe_serial,
                         s.channel_stall}) {
    r += " " + bits(d);
  }
  return r + " sha=" + common::sha256_hex(bytes).substr(0, 16);
}

/// The source planes: a photographic image's components, copied into
/// cache-line-padded working planes as the read stage leaves them.
std::vector<Plane> source_planes(std::size_t ncomp) {
  const Image img = synth::photographic(kW, kH, ncomp, 91);
  std::vector<Plane> planes;
  for (std::size_t c = 0; c < ncomp; ++c) {
    planes.emplace_back(kW, kH);
    for (std::size_t y = 0; y < kH; ++y) {
      std::copy_n(img.plane(c).row(y), kW, planes[c].row(y));
    }
  }
  return planes;
}

/// Level-shifted single-component planes: the inputs of the DWT stages.
Plane shifted_int() {
  Plane p = std::move(source_planes(1)[0]);
  for (std::size_t y = 0; y < kH; ++y) {
    for (std::size_t x = 0; x < kW; ++x) p.at(y, x) -= 128;
  }
  return p;
}

std::vector<AlignedBuffer<float>> float_planes(std::size_t ncomp,
                                               std::size_t stride) {
  std::vector<AlignedBuffer<float>> f;
  for (std::size_t c = 0; c < ncomp; ++c) f.emplace_back(stride * kH);
  return f;
}

jp2k::TileComponent tile_component() {
  jp2k::TileComponent tc;
  for (const auto& info : jp2k::subband_layout(kW, kH, kLevels)) {
    jp2k::Subband sb;
    sb.info = info;
    sb.quant_step = jp2k::quant_step_for_band(
        0.5, jp2k::WaveletKind::kIrreversible97, info.level, info.orient,
        kLevels);
    tc.subbands.push_back(std::move(sb));
  }
  return tc;
}

std::vector<std::string> run_all() {
  std::vector<std::string> rows;
  for (const std::size_t ncomp : {std::size_t{1}, std::size_t{3},
                                  std::size_t{4}}) {
    const bool color = ncomp >= 3;
    for (const int spes : kSpeCounts) {
      const std::string label =
          "c" + std::to_string(ncomp) + " s" + std::to_string(spes);
      {
        auto m = machine(spes);
        auto planes = source_planes(ncomp);
        const auto t = stage_mct_lossless(m, planes, color, 8);
        std::vector<std::uint8_t> b;
        for (const auto& p : planes) append_plane(b, p.view());
        rows.push_back(row("mct_lossless " + label, t, b));
      }
      {
        auto m = machine(spes);
        const auto planes = source_planes(ncomp);
        const std::size_t stride = planes[0].stride();
        auto f = float_planes(ncomp, stride);
        const auto t = stage_mct_lossy(m, planes, f, stride, color, 8);
        std::vector<std::uint8_t> b;
        for (const auto& p : f) {
          append_plane(b, Span2d<const float>(p.data(), kW, kH, stride));
        }
        rows.push_back(row("mct_lossy " + label, t, b));
      }
      {
        auto m = machine(spes);
        const auto planes = source_planes(ncomp);
        std::vector<Plane> fx;
        for (std::size_t c = 0; c < ncomp; ++c) fx.emplace_back(kW, kH);
        const auto t = stage_mct_lossy_fixed(m, planes, fx, color, 8);
        std::vector<std::uint8_t> b;
        for (const auto& p : fx) append_plane(b, p.view());
        rows.push_back(row("mct_lossy_fixed " + label, t, b));
      }
    }
  }

  struct Variant {
    const char* label;
    DwtOptions opt;
  };
  const Variant variants[] = {
      {"auto", DwtOptions{}},
      {"cg24", DwtOptions{true, 24}},
      {"multipass", DwtOptions{false, 0}},
  };
  for (const auto& v : variants) {
    for (const int spes : kSpeCounts) {
      const std::string label =
          std::string(v.label) + " s" + std::to_string(spes);
      {
        auto m = machine(spes);
        Plane p = shifted_int();
        const auto t = stage_dwt53(m, p.view(), kLevels, v.opt);
        std::vector<std::uint8_t> b;
        append_plane(b, Span2d<const Sample>(p.view()));
        rows.push_back(row("dwt53 " + label, t, b));
      }
      {
        auto m = machine(spes);
        const Plane src = shifted_int();
        auto f = float_planes(1, src.stride());
        Span2d<float> fv(f[0].data(), kW, kH, src.stride());
        for (std::size_t y = 0; y < kH; ++y) {
          for (std::size_t x = 0; x < kW; ++x) {
            fv.at(y, x) = static_cast<float>(src.at(y, x));
          }
        }
        const auto t = stage_dwt97(m, fv, kLevels, v.opt);
        std::vector<std::uint8_t> b;
        append_plane(b, Span2d<const float>(fv));
        rows.push_back(row("dwt97 " + label, t, b));
      }
      {
        auto m = machine(spes);
        Plane p = shifted_int();
        for (std::size_t y = 0; y < kH; ++y) {
          for (std::size_t x = 0; x < kW; ++x) p.at(y, x) *= 1 << 13;
        }
        const auto t = stage_dwt97_fixed(m, p.view(), kLevels, v.opt);
        std::vector<std::uint8_t> b;
        append_plane(b, Span2d<const Sample>(p.view()));
        rows.push_back(row("dwt97_fixed " + label, t, b));
      }
    }
  }

  // Quantization inputs: the 9/7 transforms of the level-shifted plane,
  // computed once on the PPE.
  const jp2k::TileComponent tc = tile_component();
  const Plane src = shifted_int();
  auto f = float_planes(1, src.stride());
  Span2d<float> fv(f[0].data(), kW, kH, src.stride());
  Plane fx = shifted_int();
  for (std::size_t y = 0; y < kH; ++y) {
    for (std::size_t x = 0; x < kW; ++x) {
      fv.at(y, x) = static_cast<float>(src.at(y, x));
      fx.at(y, x) *= 1 << 13;
    }
  }
  {
    auto m = machine(0);
    stage_dwt97(m, fv, kLevels);
    stage_dwt97_fixed(m, fx.view(), kLevels);
  }
  for (const int spes : kSpeCounts) {
    const std::string label = "s" + std::to_string(spes);
    {
      auto m = machine(spes);
      Plane q(kW, kH);
      const auto t = stage_quant(m, fv, q.view(), tc);
      std::vector<std::uint8_t> b;
      append_plane(b, Span2d<const Sample>(q.view()));
      rows.push_back(row("quant " + label, t, b));
    }
    {
      auto m = machine(spes);
      Plane q(kW, kH);
      const auto t = stage_quant_fixed(m, fx.view(), q.view(), tc);
      std::vector<std::uint8_t> b;
      append_plane(b, Span2d<const Sample>(q.view()));
      rows.push_back(row("quant_fixed " + label, t, b));
    }
  }
  return rows;
}

// Rows: label, stage name, dma_bytes, then the bit patterns of spe_compute,
// spe_dma, dma_aggregate, ppe, seconds, overlap_saved, dma_overlap_saved and
// the five stall components, then the output digest prefix.
const char* const kPinned[] = {
    "mct_lossless c1 s0 levelshift+mct dma=0 0 0 0 3ee556a95a00fd57 "
    "3ee556a95a00fd57 0 0 0 0 0 3ee556a95a00fd57 0 sha=ed611fa1adff009b",
    "mct_lossy c1 s0 levelshift+ict dma=0 0 0 0 3ee556a95a00fd57 "
    "3ee556a95a00fd57 0 0 0 0 0 3ee556a95a00fd57 0 sha=054f1514fed6d0b8",
    "mct_lossy_fixed c1 s0 levelshift+ict(fx) dma=0 0 0 0 3ee556a95a00fd57 "
    "3ee556a95a00fd57 0 0 0 0 0 3ee556a95a00fd57 0 sha=8fcd90702a34330c",
    "mct_lossless c1 s1 levelshift+mct dma=56832 3ec064513856de89 "
    "3ecdcbdca6a35c2a 3ec29f69e826199a 3e9b5034ee15bf27 3ecdcbdca6a35c2a 0 "
    "3ec064513856de8a 3ec064513856de89 3ebacf16dc98fb42 0 0 0 "
    "sha=ed611fa1adff009b",
    "mct_lossy c1 s1 levelshift+ict dma=56832 3ec064513856de89 "
    "3ecdcbdca6a35c2a 3ec29f69e826199a 3e9b5034ee15bf27 3ecdcbdca6a35c2a 0 "
    "3ec064513856de8a 3ec064513856de89 3ebacf16dc98fb42 0 0 0 "
    "sha=054f1514fed6d0b8",
    "mct_lossy_fixed c1 s1 levelshift+ict(fx) dma=56832 3ec064513856de89 "
    "3ecdcbdca6a35c2a 3ec29f69e826199a 3e9b5034ee15bf27 3ecdcbdca6a35c2a 0 "
    "3ec064513856de8a 3ec064513856de89 3ebacf16dc98fb42 0 0 0 "
    "sha=8fcd90702a34330c",
    "mct_lossless c1 s6 levelshift+mct dma=56832 3e96809ff8835ef0 "
    "3ea3dd3dc46ce81c 3ec29f69e826199a 3e9b5034ee15bf27 3ec29f69e826199a 0 0 "
    "3e96809ff8835ef0 3ebf9eabd22b5b78 0 0 0 sha=ed611fa1adff009b",
    "mct_lossy c1 s6 levelshift+ict dma=56832 3e96809ff8835ef0 "
    "3ea3dd3dc46ce81c 3ec29f69e826199a 3e9b5034ee15bf27 3ec29f69e826199a 0 0 "
    "3e96809ff8835ef0 3ebf9eabd22b5b78 0 0 0 sha=054f1514fed6d0b8",
    "mct_lossy_fixed c1 s6 levelshift+ict(fx) dma=56832 3e96809ff8835ef0 "
    "3ea3dd3dc46ce81c 3ec29f69e826199a 3e9b5034ee15bf27 3ec29f69e826199a 0 0 "
    "3e96809ff8835ef0 3ebf9eabd22b5b78 0 0 0 sha=8fcd90702a34330c",
    "mct_lossless c1 s8 levelshift+mct dma=56832 3e96809ff8835ef0 "
    "3ea3dd3dc46ce81c 3ec29f69e826199a 3e9b5034ee15bf27 3ec29f69e826199a 0 0 "
    "3e90e077fa628734 3ec0835ae8d9c8b4 0 0 0 sha=ed611fa1adff009b",
    "mct_lossy c1 s8 levelshift+ict dma=56832 3e96809ff8835ef0 "
    "3ea3dd3dc46ce81c 3ec29f69e826199a 3e9b5034ee15bf27 3ec29f69e826199a 0 0 "
    "3e90e077fa628734 3ec0835ae8d9c8b4 0 0 0 sha=054f1514fed6d0b8",
    "mct_lossy_fixed c1 s8 levelshift+ict(fx) dma=56832 3e96809ff8835ef0 "
    "3ea3dd3dc46ce81c 3ec29f69e826199a 3e9b5034ee15bf27 3ec29f69e826199a 0 0 "
    "3e90e077fa628734 3ec0835ae8d9c8b4 0 0 0 sha=8fcd90702a34330c",
    "mct_lossless c3 s0 levelshift+mct dma=0 0 0 0 3f0000ff0380be01 "
    "3f0000ff0380be01 0 0 0 0 0 3f0000ff0380be01 0 sha=7708845c4dcc6b22",
    "mct_lossy c3 s0 levelshift+ict dma=0 0 0 0 3f0d5728dbc15c56 "
    "3f0d5728dbc15c56 0 0 0 0 0 3f0d5728dbc15c56 0 sha=ca2ec1a63f64b8a5",
    "mct_lossy_fixed c3 s0 levelshift+ict(fx) dma=0 0 0 0 3f0d5728dbc15c56 "
    "3f0d5728dbc15c56 0 0 0 0 0 3f0d5728dbc15c56 0 sha=c4b6bc848a45655d",
    "mct_lossless c3 s1 levelshift+mct dma=170496 3ed8713b00b2019a "
    "3ee658e57cfa851f 3edbef1edc392667 3eb47c27b2904f5d 3ee658e57cfa851f 0 "
    "3ed8713b00b2019a 3ed8713b00b2019a 3ed4408ff94308a4 0 0 0 "
    "sha=7708845c4dcc6b22",
    "mct_lossy c3 s1 levelshift+ict dma=170496 3ee3346537674a67 "
    "3ee658e57cfa851f 3edbef1edc392667 3ec2c72463aef36b 3ee658e57cfa851f 0 "
    "3ee3346537674a67 3ee3346537674a67 3eb924022c99d5c0 0 0 0 "
    "sha=ca2ec1a63f64b8a5",
    "mct_lossy_fixed c3 s1 levelshift+ict(fx) dma=170496 3efb0fa5e5575d34 "
    "3ee658e57cfa851f 3edbef1edc392667 3ec2c72463aef36b 3efb0fa5e5575d34 0 "
    "3ee658e57cfa8520 3efb0fa5e5575d34 0 0 0 0 sha=c4b6bc848a45655d",
    "mct_lossless c3 s6 levelshift+mct dma=170496 3eb04b7cab215667 "
    "3ebdcbdca6a35c2a 3edbef1edc392667 3eb47c27b2904f5d 3edbef1edc392667 0 0 "
    "3eb04b7cab215667 3ed7dc3fb170d0cd 0 0 0 sha=7708845c4dcc6b22",
    "mct_lossy c3 s6 levelshift+ict dma=170496 3eb99b319f346334 "
    "3ebdcbdca6a35c2a 3edbef1edc392667 3ec2c72463aef36b 3edbef1edc392667 0 0 "
    "3eb99b319f346333 3ed58852746c0d9a 0 0 0 sha=ca2ec1a63f64b8a5",
    "mct_lossy_fixed c3 s6 levelshift+ict(fx) dma=170496 3ed20a6e98e4e8cd "
    "3ebdcbdca6a35c2a 3edbef1edc392667 3ec2c72463aef36b 3edbef1edc392667 0 0 "
    "3ed20a6e98e4e8cd 3ec3c96086a87b34 0 0 0 sha=c4b6bc848a45655d",
    "mct_lossless c3 s8 levelshift+mct dma=170496 3eb04b7cab215667 "
    "3ebdcbdca6a35c2a 3edbef1edc392667 3eb47c27b2904f5d 3edbef1edc392667 0 0 "
    "3ea8713b00b2019b 3ed8e0f77c22e634 0 0 0 sha=7708845c4dcc6b22",
    "mct_lossy c3 s8 levelshift+ict dma=170496 3eb99b319f346334 "
    "3ebdcbdca6a35c2a 3edbef1edc392667 3ec2c72463aef36b 3edbef1edc392667 0 0 "
    "3eb3346537674a66 3ed722058e5f53ce 0 0 0 sha=ca2ec1a63f64b8a5",
    "mct_lossy_fixed c3 s8 levelshift+ict(fx) dma=170496 3ed20a6e98e4e8cd "
    "3ebdcbdca6a35c2a 3edbef1edc392667 3ec2c72463aef36b 3edbef1edc392667 0 0 "
    "3ecb0fa5e5575d33 3eccce97d31aef9b 0 0 0 sha=c4b6bc848a45655d",
    "mct_lossless c4 s0 levelshift+mct dma=0 0 0 0 3f0556a95a00fd57 "
    "3f0556a95a00fd57 0 0 0 0 0 3f0556a95a00fd57 0 sha=b1754351b48ecff0",
    "mct_lossy c4 s0 levelshift+ict dma=0 0 0 0 3f1156699920cdd7 "
    "3f1156699920cdd7 0 0 0 0 0 3f1156699920cdd7 0 sha=a8bcee19d1618e96",
    "mct_lossy_fixed c4 s0 levelshift+ict(fx) dma=0 0 0 0 3f1156699920cdd7 "
    "3f1156699920cdd7 0 0 0 0 0 3f1156699920cdd7 0 sha=6f4288209989e2a5",
    "mct_lossless c4 s1 levelshift+mct dma=227328 3ede430c193de99b "
    "3eedcbdca6a35c2a 3ee29f69e826199a 3ebb5034ee15bf27 3eedcbdca6a35c2a 0 "
    "3ede430c193de99c 3ede430c193de99b 3edd54ad3408ceb9 0 0 0 "
    "sha=b1754351b48ecff0",
    "mct_lossy c4 s1 levelshift+ict dma=227328 3ee74744622fa001 "
    "3eedcbdca6a35c2a 3ee29f69e826199a 3ec6312b0171ab4f 3eedcbdca6a35c2a 0 "
    "3ee74744622fa002 3ee74744622fa001 3eca126111cef0a4 0 0 0 "
    "sha=a8bcee19d1618e96",
    "mct_lossy_fixed c4 s1 levelshift+ict(fx) dma=227328 3efd19157abb8801 "
    "3eedcbdca6a35c2a 3ee29f69e826199a 3ec6312b0171ab4f 3efd19157abb8801 0 "
    "3eedcbdca6a35c2a 3efd19157abb8801 0 0 0 0 sha=6f4288209989e2a5",
    "mct_lossless c4 s6 levelshift+mct dma=227328 3eb42cb2bb7e9bbc "
    "3ec3dd3dc46ce81c 3ee29f69e826199a 3ebb5034ee15bf27 3ee29f69e826199a 0 0 "
    "3eb42cb2bb7e9bbc 3ee019d390b64622 0 0 0 sha=b1754351b48ecff0",
    "mct_lossy c4 s6 levelshift+ict dma=227328 3ebf09b082ea2aac "
    "3ec3dd3dc46ce81c 3ee29f69e826199a 3ec6312b0171ab4f 3ee29f69e826199a 0 0 "
    "3ebf09b082ea2aad 3edd7c67af91a889 0 0 0 sha=a8bcee19d1618e96",
    "mct_lossy_fixed c4 s6 levelshift+ict(fx) dma=227328 3ed3660e51d25aab "
    "3ec3dd3dc46ce81c 3ee29f69e826199a 3ec6312b0171ab4f 3ee29f69e826199a 0 0 "
    "3ed3660e51d25aab 3ed1d8c57e79d889 0 0 0 sha=6f4288209989e2a5",
    "mct_lossless c4 s8 levelshift+mct dma=227328 3eb42cb2bb7e9bbc "
    "3ec3dd3dc46ce81c 3ee29f69e826199a 3ebb5034ee15bf27 3ee29f69e826199a 0 0 "
    "3eae430c193de99a 3ee0bb3926923b00 0 0 0 sha=b1754351b48ecff0",
    "mct_lossy c4 s8 levelshift+ict dma=227328 3ebf09b082ea2aac "
    "3ec3dd3dc46ce81c 3ee29f69e826199a 3ec6312b0171ab4f 3ee29f69e826199a 0 0 "
    "3eb74744622fa002 3edf6d02b7c04b34 0 0 0 sha=a8bcee19d1618e96",
    "mct_lossy_fixed c4 s8 levelshift+ict(fx) dma=227328 3ed3660e51d25aab "
    "3ec3dd3dc46ce81c 3ee29f69e826199a 3ec6312b0171ab4f 3ee29f69e826199a 0 0 "
    "3ecd19157abb8801 3ed6b24912ee6f34 0 0 0 sha=6f4288209989e2a5",
    "dwt53 auto s0 dwt53 dma=0 0 0 0 3f11a975afaf8594 3f11a975afaf8594 0 0 0 "
    "0 0 3f11a975afaf8594 0 sha=8d3f69ce14a346c7",
    "dwt97 auto s0 dwt97 dma=0 0 0 0 3f1a7e308787485f 3f1a7e308787485f 0 0 0 "
    "0 0 3f1a7e308787485f 0 sha=001247d1bbccd164",
    "dwt97_fixed auto s0 dwt97fx dma=0 0 0 0 3f21a975afaf8594 "
    "3f21a975afaf8594 0 0 0 0 0 3f21a975afaf8594 0 sha=e879ebf0ec678f28",
    "dwt53 auto s1 dwt53 dma=200704 3ef078c9148674cf 3eea4e823b7b7893 "
    "3ee07111652d2b5c 3ebfd5b3504ef7e2 3ef3e372e7ba4a25 0 3ee3f9dcfb432cd1 "
    "3ef078c9148674cf 3ec827f295e7bbef 0 3e996ae01db775fb 0 "
    "sha=8d3f69ce14a346c7",
    "dwt97 auto s1 dwt97 dma=200704 3f0090c183c36e7f 3eea4e823b7b7893 "
    "3ee07111652d2b5c 3ec7e0467c3b39e8 3f00db6a1e81cb46 0 3ee9cda8e22e554a "
    "3f0090c183c36e7f 0 0 3ea2aa26af9731e2 0 sha=001247d1bbccd164",
    "dwt97_fixed auto s1 dwt97fx dma=200704 3f04710b5afcfbbf "
    "3eea4e823b7b7893 3ee07111652d2b5c 3ecfd5b3504ef7e2 3f04c8492f73e0f9 0 "
    "3ee9cda8e22e554a 3f04710b5afcfbbf 0 0 3ea5cf751db94e6d 0 "
    "sha=e879ebf0ec678f28",
    "dwt53 auto s6 dwt53 dma=200704 3ecacd8bb9871fc5 3ec66a1388e2abf7 "
    "3ee07111652d2b5c 3ebfd5b3504ef7e2 3ee16cb9e797d448 0 3e3715dffff43080 "
    "3ec6033e3f9d6b7e 3ed56a6718af95f7 0 3ea36b6cb58ae6cf 0 "
    "sha=8d3f69ce14a346c7",
    "dwt97 auto s6 dwt97 dma=200704 3edb7424bffddc63 3ec66a1388e2abf7 "
    "3ee07111652d2b5c 3ec7e0467c3b39e8 3ee33551708b027d 0 3eb7ccadf6a66d9a "
    "3ed63bc12147f93e 3ec4391d02195fce 3ea382772182eae9 3ead1022d487f3c8 0 "
    "sha=001247d1bbccd164",
    "dwt97_fixed auto s6 dwt97fx dma=200704 3ee11ac4fd4a9900 "
    "3ec66a1388e2abf7 3ee07111652d2b5c 3ecfd5b3504ef7e2 3ee4d462ee36d4d3 0 "
    "3eba09ca0bdadd39 3edb416479514fa9 3eb2e534f8853764 3eb399d773b677bd "
    "3eb31e792035b8d9 0 sha=e879ebf0ec678f28",
    "dwt53 auto s8 dwt53 dma=200704 3ec5d2244f95947c 3ec3ff99dc3d35c9 "
    "3ee07111652d2b5c 3ebfd5b3504ef7e2 3ee16cb9e797d448 0 0 3ec0826eafb6109d "
    "3ed8201219322b20 0 3ea3c152f113a900 0 sha=8d3f69ce14a346c7",
    "dwt97 auto s8 dwt97 dma=200704 3ed6fbeffafa31b4 3ec3ff99dc3d35c9 "
    "3ee07111652d2b5c 3ec7e0467c3b39e8 3ee22b50bbaf4324 0 3ea2cdda6055a292 "
    "3ed0acd0d8f5faed 3ecf28848387df5e 3e78b9b542ed6576 3ead953c3cc730ad 0 "
    "sha=001247d1bbccd164",
    "dwt97_fixed auto s8 dwt97fx dma=200704 3edd8d03b4149a15 "
    "3ec3ff99dc3d35c9 3ee07111652d2b5c 3ecfd5b3504ef7e2 3ee371cccbf60d38 0 "
    "3eab4edd55279c1c 3ed4710b5afcfbbf 3ec46f2d8a51d308 3eaac8833c0a1c62 "
    "3eb3879c4113c687 0 sha=e879ebf0ec678f28",
    "dwt53 cg24 s0 dwt53 dma=0 0 0 0 3f025e516f087671 3f025e516f087671 0 0 0 "
    "0 0 3f025e516f087671 0 sha=17a40789acf6de31",
    "dwt97 cg24 s0 dwt97 dma=0 0 0 0 3f0b8d7a268cb1aa 3f0b8d7a268cb1aa 0 0 0 "
    "0 0 3f0b8d7a268cb1aa 0 sha=3a5fd2d1963e0743",
    "dwt97_fixed cg24 s0 dwt97fx dma=0 0 0 0 3f125e516f087671 "
    "3f125e516f087671 0 0 0 0 0 3f125e516f087671 0 sha=b64fc0cfdc11abbd",
    "dwt53 cg24 s1 dwt53 dma=202624 3ef0995551154663 3ef49a3847669354 "
    "3ee9c0c659403829 3eb69b77eb1e1ba0 3efaf0be90ec4357 0 3ee4859e0f1f2cc1 "
    "3ef0995551154663 3ee4aed27fadf9e8 0 0 0 sha=8d3f69ce14a346c7",
    "dwt97 cg24 s1 dwt97 dma=202624 3f00d21a698db839 3ef49a3847669354 "
    "3ee9c0c659403829 3ec0f499f05694b7 3f025d1b1f516533 0 3ef18436dbdf3961 "
    "3f00d21a698db839 3ec8b00b5c3acf9a 0 0 0 sha=001247d1bbccd164",
    "dwt97_fixed cg24 s1 dwt97fx dma=202624 3f049878875040e0 "
    "3ef49a3847669354 3ee9c0c659403829 3ec69b77eb1e1ba0 3f049878875040e0 0 "
    "3ef49a3847669354 3f049878875040e0 0 0 0 0 sha=e879ebf0ec678f28",
    "dwt53 cg24 s6 dwt53 dma=202624 3ecc267c40984b91 3ed40830e2314934 "
    "3ee9c0c659403829 3eb69b77eb1e1ba0 3ee9c0c659403829 0 3e558abcee18b320 "
    "3ec621c716c70885 3ee43854938e7609 0 0 0 sha=8d3f69ce14a346c7",
    "dwt97 cg24 s6 dwt97 dma=202624 3edd4f46394a4e83 3ed40830e2314934 "
    "3ee9c0c659403829 3ec0f499f05694b7 3eeae345b515f6e2 0 3eb5bb0e6f95a04c "
    "3ed66d788cbcf5a2 3edce8c3f93e9ac6 3ea382772182eae9 0 0 "
    "sha=001247d1bbccd164",
    "dwt97_fixed cg24 s6 dwt97fx dma=202624 3ee27d9b8c38072d "
    "3ed40830e2314934 3ee9c0c659403829 3ec69b77eb1e1ba0 3eeb47ef82da3a74 0 "
    "3eb8679119ff6bc2 3edb75f609c05680 3ed88abb5a5e9b41 3ea4796d0cac1931 0 0 "
    "sha=e879ebf0ec678f28",
    "dwt53 cg24 s8 dwt53 dma=202624 3ec3eaee75e9e710 3eca933a6b1c13ef "
    "3ee9c0c659403829 3eb69b77eb1e1ba0 3ee9c0c659403829 0 3e4f8a89dc374e00 "
    "3ec0995551154663 3ee59a7104fae691 0 0 0 sha=8d3f69ce14a346c7",
    "dwt97 cg24 s8 dwt97 dma=202624 3ed479b4a1ddb5d3 3eca933a6b1c13ef "
    "3ee9c0c659403829 3ec0f499f05694b7 3ee9d945003a3789 0 3e9d5536a4680fec "
    "3ed0d21a698db839 3ee13ec460ed80a2 3e78b9b542ed6576 0 0 "
    "sha=001247d1bbccd164",
    "dwt97_fixed cg24 s8 dwt97fx dma=202624 3ed97c27eeb17909 "
    "3eca933a6b1c13ef 3ee9c0c659403829 3ec69b77eb1e1ba0 3ee9e559609972d8 0 "
    "3ea80a6b7170b92e 3ed49878875040e0 3edec6441c8f82c1 3e7afd8754c8843a 0 0 "
    "sha=e879ebf0ec678f28",
    "dwt53 multipass s0 dwt53 dma=0 0 0 0 3f11a975afaf8594 3f11a975afaf8594 "
    "0 0 0 0 0 3f11a975afaf8594 0 sha=8d3f69ce14a346c7",
    "dwt97 multipass s0 dwt97 dma=0 0 0 0 3f1a7e308787485f 3f1a7e308787485f "
    "0 0 0 0 0 3f1a7e308787485f 0 sha=001247d1bbccd164",
    "dwt97_fixed multipass s0 dwt97fx dma=0 0 0 0 3f21a975afaf8594 "
    "3f21a975afaf8594 0 0 0 0 0 3f21a975afaf8594 0 sha=e879ebf0ec678f28",
    "dwt53 multipass s1 dwt53 dma=311680 3ef078c9148674cf 3ef46d1f68252d61 "
    "3ee98867422e78b9 3ebfd5b3504ef7e2 3efae8e4857b2997 0 3ee3fa07ee60f131 "
    "3ef078c9148674cf 3ee495b93a48d12a 0 3e829f69e82619a0 0 "
    "sha=8d3f69ce14a346c7",
    "dwt97 multipass s1 dwt97 dma=496640 3f0090c183c36e7f 3f00461e4768ca43 "
    "3ef457a5d942fcd5 3ec7e0467c3b39e8 3f085c92d300ee67 0 3ef0f499f05694b6 "
    "3f0090c183c36e7f 3eef156efd0ddd39 0 3e69d63fe82268c0 0 "
    "sha=001247d1bbccd164",
    "dwt97_fixed multipass s1 dwt97fx dma=200704 3f04710b5afcfbbf "
    "3eea4e823b7b7893 3ee07111652d2b5c 3ecfd5b3504ef7e2 3f04c8492f73e0f9 0 "
    "3ee9cda8e22e554a 3f04710b5afcfbbf 0 0 3ea5cf751db94e6d 0 "
    "sha=e879ebf0ec678f28",
    "dwt53 multipass s6 dwt53 dma=311680 3ecacd8bb9871fc5 3ed1d9d85f385af7 "
    "3ee98867422e78b9 3ebfd5b3504ef7e2 3eea3387ecc8eb96 0 3e386d78ee173880 "
    "3ec6033e3f9d6b7e 3ee3917b206b12d7 0 3ea213d3c767de0c 0 "
    "sha=8d3f69ce14a346c7",
    "dwt97 multipass s6 dwt97 dma=496640 3edb7424bffddc63 3edcec860bd96343 "
    "3ef457a5d942fcd5 3ec7e0467c3b39e8 3ef54e661486f5a9 0 3eb7f423b9ffa6cf "
    "3ed63bc12147f93e 3eeca339558c2390 3ea382772182eae9 3eaa38ad0c59c73a 0 "
    "sha=001247d1bbccd164",
    "dwt97_fixed multipass s6 dwt97fx dma=200704 3ee11ac4fd4a9900 "
    "3ec66a1388e2abf7 3ee07111652d2b5c 3ecfd5b3504ef7e2 3ee4d462ee36d4d3 0 "
    "3eba09ca0bdadd39 3edb416479514fa9 3eb2e534f8853764 3eb399d773b677bd "
    "3eb31e792035b8d9 0 sha=e879ebf0ec678f28",
    "dwt53 multipass s8 dwt53 dma=311680 3ec5d2244f95947c 3ed0a49b88e59fe0 "
    "3ee98867422e78b9 3ebfd5b3504ef7e2 3eea3387ecc8eb96 0 3df5798ee2308000 "
    "3ec0826eafb6109d 3ee4e6f23cf3d149 0 3ea2bfa03e79626e 0 "
    "sha=8d3f69ce14a346c7",
    "dwt97 multipass s8 dwt97 dma=496640 3ed6fbeffafa31b4 3edbb7493586a82e "
    "3ef457a5d942fcd5 3ec7e0467c3b39e8 3ef4c965ba1915fc 0 3ea31cc5e70814fc "
    "3ed0acd0d8f5faed 3eef53b55ec70ac1 3e78b9b542ed6576 3eab73a3e6a48f42 0 "
    "sha=001247d1bbccd164",
    "dwt97_fixed multipass s8 dwt97fx dma=200704 3edd8d03b4149a15 "
    "3ec3ff99dc3d35c9 3ee07111652d2b5c 3ecfd5b3504ef7e2 3ee371cccbf60d38 0 "
    "3eab4edd55279c1c 3ed4710b5afcfbbf 3ec46f2d8a51d308 3eaac8833c0a1c62 "
    "3eb3879c4113c687 0 sha=e879ebf0ec678f28",
    "quant s0 quantize dma=0 0 0 0 3ef2abd42ec0ddac 3ef2abd42ec0ddac 0 0 0 0 "
    "0 3ef2abd42ec0ddac 0 sha=95b47687a13daf8f",
    "quant_fixed s0 quantize(fx) dma=0 0 0 0 3efaac53b0813cac "
    "3efaac53b0813cac 0 0 0 0 0 3efaac53b0813cac 0 sha=2d05a97e2820ebeb",
    "quant s1 quantize dma=66304 3ed2d03c42fc53f9 3ed161960bdf4b18 "
    "3ec5b9fb8ed71ddf 0 3ed2d03c42fc53f9 0 3ed161960bdf4b17 3ed2d03c42fc53f9 "
    "0 0 0 0 sha=95b47687a13daf8f",
    "quant_fixed s1 quantize(fx) dma=66304 3edf3422c7553ea1 3ed161960bdf4b18 "
    "3ec5b9fb8ed71ddf 0 3edf3422c7553ea1 0 3ed161960bdf4b17 3edf3422c7553ea1 "
    "0 0 0 0 sha=2d05a97e2820ebeb",
    "quant s6 quantize dma=66304 3eadf284416db38d 3eaa4e823b7b7894 "
    "3ec5b9fb8ed71ddf 0 3ec5b9fb8ed71ddf 0 0 3ea915a5aea5c54d "
    "3ebee924465b5918 0 0 0 sha=95b47687a13daf8f",
    "quant_fixed s6 quantize(fx) dma=66304 3eb8a99a17c3c10a 3eaa4e823b7b7894 "
    "3ec5b9fb8ed71ddf 0 3ec5b9fb8ed71ddf 0 0 3eb4cd6c84e37f15 "
    "3eb6a68a98cabca9 0 0 0 sha=2d05a97e2820ebeb",
    "quant s8 quantize dma=66304 3ea56415534e5bae 3ea2ca5d05ea7ab3 "
    "3ec5b9fb8ed71ddf 0 3ec5b9fb8ed71ddf 0 0 3ea2d03c42fc53f9 "
    "3ec105ec7e1808e1 0 0 0 sha=95b47687a13daf8f",
    "quant_fixed s8 quantize(fx) dma=66304 3eb19db7358bd307 3ea2ca5d05ea7ab3 "
    "3ec5b9fb8ed71ddf 0 3ec5b9fb8ed71ddf 0 0 3eaf3422c7553ea2 "
    "3ebbd9e5ba039c6d 0 0 0 sha=2d05a97e2820ebeb",
};

TEST(StageDrivers, OutputAndTimingPinned) {
  const auto rows = run_all();
  const std::size_t npinned = sizeof(kPinned) / sizeof(kPinned[0]);
  EXPECT_EQ(rows.size(), npinned);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string want = i < npinned ? kPinned[i] : "";
    EXPECT_EQ(rows[i], want) << "row " << i << " now reads:\n    \""
                             << rows[i] << "\",";
  }
}

}  // namespace
}  // namespace cj2k::cellenc
