// Tier-1 (EBCOT block coder) shared definitions: context numbering, the
// zero-coding / sign-coding / magnitude-refinement context tables from
// ISO/IEC 15444-1 Annex D, coefficient flags, and pass bookkeeping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/span2d.hpp"
#include "image/image.hpp"
#include "jp2k/mq.hpp"

namespace cj2k::jp2k {

/// Subband orientation.  Naming: first letter = horizontal filter,
/// second letter = vertical filter (HL = horizontally high-pass).
enum class SubbandOrient : std::uint8_t { LL = 0, HL = 1, LH = 2, HH = 3 };

/// Which block coder produces the Tier-1 codewords: the Part-1 EBCOT coder
/// (three passes per bit plane, MQ-coded, truncatable) or the Part-15 HT
/// cleanup-pass coder (single pass, MagSgn/MEL/VLC, no truncation points —
/// see jp2k/ht_block.hpp).
enum class BlockCoder : std::uint8_t { kEbcot = 0, kHt = 1 };

/// Context numbering used throughout Tier-1 (the conventional software
/// layout): zero coding 0..8, sign coding 9..13, magnitude refinement
/// 14..16, run-length 17, uniform 18.
inline constexpr int kCtxZcBase = 0;
inline constexpr int kCtxScBase = 9;
inline constexpr int kCtxMrBase = 14;
inline constexpr int kCtxRunLength = 17;
inline constexpr int kCtxUniform = 18;
inline constexpr int kNumT1Contexts = 19;

/// Per-code-block context bank with the standard initial states
/// (ZC(0) starts in state 4, RL in state 3, UNIFORM in state 46).
class T1ContextBank {
 public:
  T1ContextBank() { reset(); }

  void reset() {
    for (auto& c : ctx_) c.reset(0);
    ctx_[kCtxZcBase].reset(4);
    ctx_[kCtxRunLength].reset(3);
    ctx_[kCtxUniform].reset(46);
  }

  MqContext& operator[](int i) { return ctx_[static_cast<std::size_t>(i)]; }
  MqContext* data() { return ctx_; }

 private:
  MqContext ctx_[kNumT1Contexts];
};

/// Zero-coding context (Annex D Table D.1) from neighbor significance
/// counts: h in [0,2] horizontal, v in [0,2] vertical, d in [0,4] diagonal.
int zc_context(SubbandOrient orient, int h, int v, int d);

/// Sign-coding context and XOR bit (Annex D Table D.2) from the clamped
/// horizontal and vertical sign contributions hc, vc ∈ {-1, 0, +1}.
struct ScLookup {
  int context;
  int xor_bit;
};
ScLookup sc_lookup(int hc, int vc);

/// Tier-1 code-block style options (the Part-1 COD "code block style"
/// flags this library supports).  Both default off, as in the paper.
struct T1Options {
  /// RESET: re-initialize all contexts at the start of every coding pass.
  /// Slightly worse compression, but passes become independent of the
  /// adaptation history (useful with per-pass termination).
  bool reset_contexts = false;
  /// Vertically stripe-causal contexts (VSC): coefficients in the stripe
  /// below never contribute to context formation, so stripes can be
  /// decoded without waiting for later data.
  bool vertically_causal = false;
};

/// Coding pass types, in the order they occur within a bit plane.
enum class PassType : std::uint8_t {
  kSignificance = 0,  ///< Significance propagation pass.
  kRefinement = 1,    ///< Magnitude refinement pass.
  kCleanup = 2,       ///< Cleanup pass.
};

/// Per-pass record produced by the encoder, consumed by rate control and
/// Tier-2.
struct PassInfo {
  PassType type;
  int bitplane;              ///< Magnitude bit plane this pass coded.
  std::size_t trunc_len;     ///< Codeword bytes if truncated after this pass.
  double dist_reduction;     ///< Decrease in squared magnitude error.
  std::uint64_t symbols;     ///< MQ decisions coded in this pass.
};

/// Result of encoding one code block.
struct T1EncodedBlock {
  std::vector<std::uint8_t> data;  ///< Terminated MQ codeword.
  std::vector<PassInfo> passes;    ///< In coding order; may be empty.
  int num_bitplanes = 0;           ///< Magnitude bit planes actually coded.
  std::uint64_t total_symbols = 0; ///< Instrumentation for the cost models.
};

/// The Tier-1 flag word: one `uint32_t` per sample of a bordered plane.
/// Besides the sample's own state it carries its neighbourhood, kept up to
/// date as neighbours become significant (T1Flags::set_significant), so
/// context formation is a table lookup on the word instead of a recount of
/// eight neighbours:
///
///   bits 0-3   significance of the N, S, W, E neighbours
///   bits 4-7   significance of the NW, NE, SW, SE neighbours
///   bits 8-11  sign of the N, S, W, E neighbours (set with their bit 0-3)
///   bits 12-15 the sample's own significance, visit, refined and sign bits
///
/// The low byte indexes the zero-coding table; bits 0-3 with 8-11 index the
/// sign-coding table.
inline constexpr std::uint32_t kNbrN = 1u << 0;
inline constexpr std::uint32_t kNbrS = 1u << 1;
inline constexpr std::uint32_t kNbrW = 1u << 2;
inline constexpr std::uint32_t kNbrE = 1u << 3;
inline constexpr std::uint32_t kNbrNW = 1u << 4;
inline constexpr std::uint32_t kNbrNE = 1u << 5;
inline constexpr std::uint32_t kNbrSW = 1u << 6;
inline constexpr std::uint32_t kNbrSE = 1u << 7;
inline constexpr std::uint32_t kNbrSigMask = 0xFFu;  ///< All eight.
inline constexpr int kNbrSignShift = 8;  ///< Sign of N/S/W/E at bits 8-11.
inline constexpr std::uint32_t kFlagSig = 1u << 12;      ///< Significant.
inline constexpr std::uint32_t kFlagVisit = 1u << 13;    ///< Coded in this SPP.
inline constexpr std::uint32_t kFlagRefined = 1u << 14;  ///< Refined before.
inline constexpr int kFlagSignShift = 15;
inline constexpr std::uint32_t kFlagSign = 1u << kFlagSignShift;  ///< Negative.

/// Contexts indexed by flag-word bits, built once from zc_context() and
/// sc_lookup(), which stay the reference definitions.
struct T1ContextTables {
  std::uint8_t zc[4][256];  ///< [orient][word & kNbrSigMask] -> context.
  std::uint8_t sc[256];     ///< [sc_index(word)] -> context << 1 | xor bit.
};
const T1ContextTables& t1_context_tables();

/// Sign-coding table index of a flag word: N/S/W/E significance in bits
/// 0-3, their signs in bits 4-7.
inline std::uint32_t sc_index(std::uint32_t f) {
  return (f & 0xFu) | ((f >> (kNbrSignShift - 4)) & 0xF0u);
}

/// True if the significance pass codes the sample with flag word `f`: still
/// insignificant, with a significant neighbour.
inline bool spp_candidate(std::uint32_t f) {
  return (f & kNbrSigMask) != 0 && (f & kFlagSig) == 0;
}

/// Nonzero if the sample with flag word `f` is significant or was visited by
/// this plane's significance pass: the cleanup pass has nothing to code.
inline std::uint32_t cleanup_done(std::uint32_t f) {
  static_assert(kFlagVisit == kFlagSig << 1, "visit folds onto sig");
  return (f | f >> 1) & kFlagSig;
}

/// Magnitude-refinement context of a significant sample's flag word.
inline int mr_context(std::uint32_t f) {
  if (f & kFlagRefined) return kCtxMrBase + 2;
  return (f & kNbrSigMask) ? kCtxMrBase + 1 : kCtxMrBase;
}

/// Bordered plane of flag words.  The one-word border takes the neighbour
/// updates of edge samples, so neither the updates nor the reads need
/// bounds checks.
struct T1Flags {
  explicit T1Flags(std::size_t w, std::size_t h)
      : stride(w + 2), cells((w + 2) * (h + 2), 0) {}

  std::size_t index(std::size_t y, std::size_t x) const {
    return (y + 1) * stride + (x + 1);
  }
  std::uint32_t& at(std::size_t y, std::size_t x) {
    return cells[index(y, x)];
  }
  std::uint32_t at(std::size_t y, std::size_t x) const {
    return cells[index(y, x)];
  }

  /// Marks the sample at `f` significant (its kFlagSign must already be
  /// final) and publishes its significance and sign to its eight
  /// neighbours.  `causal_top` is set for a sample in the first row of a
  /// stripe under VSC: the stripe above then never sees it, which is the
  /// standard's masking of the below-neighbours on a stripe's last row.
  void set_significant(std::uint32_t* f, bool causal_top) {
    const std::ptrdiff_t s = static_cast<std::ptrdiff_t>(stride);
    const std::uint32_t neg = (*f >> kFlagSignShift) & 1u;
    *f |= kFlagSig;
    f[-1] |= kNbrE | (neg << (kNbrSignShift + 3));
    f[1] |= kNbrW | (neg << (kNbrSignShift + 2));
    f[s - 1] |= kNbrNE;
    f[s] |= kNbrN | (neg << kNbrSignShift);
    f[s + 1] |= kNbrNW;
    if (causal_top) return;
    f[-s - 1] |= kNbrSE;
    f[-s] |= kNbrS | (neg << (kNbrSignShift + 1));
    f[-s + 1] |= kNbrSW;
  }

  std::size_t stride;
  std::vector<std::uint32_t> cells;
};

/// Block prescan shared by both block coders: returns the block's bit-plane
/// count, the bit width of its largest |coefficient| (0 for an all-zero
/// block).  The EBCOT coder
/// also passes `mag`, filled with |coeffs(y,x)| at y*width+x, and `flags`,
/// whose words get kFlagSign on every negative sample; the HT coder passes
/// neither.  A block holding INT32_MIN, whose magnitude has no int32 form,
/// fails a CJ2K_CHECK.  Vectorized on host SIMD (common/native_simd.hpp).
/// Tier-1 timing is a replay of symbol counts, so the prescan charges no
/// counters.
int block_prescan(Span2d<const Sample> coeffs, std::uint32_t* mag = nullptr,
                  T1Flags* flags = nullptr);

/// Height of the Tier-1 scan stripe.
inline constexpr std::size_t kStripeHeight = 4;

}  // namespace cj2k::jp2k
