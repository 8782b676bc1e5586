// Cell/B.E. machine model tests: Local Store limits, DMA rules, SIMD
// instrumentation, cost model relations, machine timing composition.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "cell/audit.hpp"
#include "cell/cost_model.hpp"
#include "cell/dma.hpp"
#include "cell/local_store.hpp"
#include "cell/machine.hpp"
#include "cell/simd.hpp"
#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace cj2k::cell {
namespace {

TEST(LocalStore, AllocatesAlignedAndTracksUsage) {
  LocalStore ls;
  auto* a = ls.alloc<float>(100);
  EXPECT_TRUE(is_aligned(a, kCacheLineBytes));
  auto* b = ls.alloc<std::int32_t>(7, kQuadWordBytes);
  EXPECT_TRUE(is_aligned(b, kQuadWordBytes));
  EXPECT_GT(ls.used(), 0u);
  const auto peak = ls.peak_used();
  ls.reset();
  EXPECT_EQ(ls.used(), 0u);
  EXPECT_EQ(ls.peak_used(), peak);  // high-water survives reset
}

TEST(LocalStore, ThrowsWhenExhausted) {
  LocalStore ls;
  EXPECT_THROW(ls.alloc<std::uint8_t>(LocalStore::kCapacity), CellHardwareError);
  // 256 KB minus the code reserve fits a bounded working set only.
  auto* p = ls.alloc<std::uint8_t>(100 * 1024);
  EXPECT_NE(p, nullptr);
  EXPECT_THROW(ls.alloc<std::uint8_t>(200 * 1024), CellHardwareError);
}

TEST(LocalStore, ConstantFootprintScenario) {
  // The decomposition scheme's point: one row of a constant-width chunk
  // fits regardless of image size.  A full image row of a 3172-wide image
  // would be 12.7 KB; ten of them for a 9/7 ring is ~127 KB — fits; but a
  // full 3172x3116 column group would not.
  LocalStore ls;
  auto* ring = ls.alloc<float>(10 * 3172);
  EXPECT_NE(ring, nullptr);
  EXPECT_THROW(ls.alloc<float>(3172 * 3116 / 8), CellHardwareError);
}

TEST(Dma, EnforcesCellTransferRules) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(4096);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(4096);

  // Efficient path: cache-line aligned, line-multiple size.
  dma.get(lsb, main_buf.data(), 256);
  EXPECT_EQ(c.dma_transfers, 1u);
  EXPECT_EQ(c.dma_unaligned, 0u);
  EXPECT_EQ(c.dma_bytes_in, 256u);

  // Quad-word path (valid but not line-efficient).
  dma.put(lsb + 16, main_buf.data() + 16, 32);
  EXPECT_EQ(c.dma_unaligned, 1u);

  // Small naturally-aligned transfers.
  dma.get(lsb + 4, main_buf.data() + 4, 4);
  dma.get(lsb + 8, main_buf.data() + 8, 8);

  // Violations.
  EXPECT_THROW(dma.get(lsb, main_buf.data(), 0), CellHardwareError);
  EXPECT_THROW(dma.get(lsb, main_buf.data(), 17), CellHardwareError);
  EXPECT_THROW(dma.get(lsb + 1, main_buf.data(), 16), CellHardwareError);
  EXPECT_THROW(dma.get(lsb, main_buf.data() + 3, 4), CellHardwareError);
  EXPECT_THROW(dma.get(lsb, main_buf.data(), 32 * 1024), CellHardwareError);
}

TEST(Dma, RejectsSizesTheMfcCannotEncode) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(2 * DmaEngine::kMaxTransfer);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(2 * DmaEngine::kMaxTransfer);

  // Legal sizes are {1,2,4,8} and 16·n up to 16 KB; everything between is
  // rejected even with perfectly aligned addresses.
  for (std::size_t bytes : {3u, 5u, 6u, 7u, 12u, 17u, 24u, 100u}) {
    EXPECT_THROW(dma.get(lsb, main_buf.data(), bytes), CellHardwareError)
        << bytes;
    EXPECT_THROW(dma.put(lsb, main_buf.data(), bytes), CellHardwareError)
        << bytes;
  }
  EXPECT_EQ(c.dma_transfers, 0u);  // rejected transfers are not counted

  // The largest single transfer is exactly 16 KB; one byte-pair more fails.
  EXPECT_NO_THROW(dma.get(lsb, main_buf.data(), DmaEngine::kMaxTransfer));
  EXPECT_THROW(
      dma.get(lsb, main_buf.data(), DmaEngine::kMaxTransfer + kQuadWordBytes),
      CellHardwareError);
}

TEST(Dma, RejectsMismatchedAlignment) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(4096);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(4096);

  // Quad-word transfers need both sides quad-aligned — either side alone
  // off by 8 fails, both off by the same 8 still fails (the MFC has no
  // offset-matching path below quad granularity).
  EXPECT_THROW(dma.get(lsb + 8, main_buf.data(), 32), CellHardwareError);
  EXPECT_THROW(dma.get(lsb, main_buf.data() + 8, 32), CellHardwareError);
  EXPECT_THROW(dma.get(lsb + 8, main_buf.data() + 8, 32), CellHardwareError);
  EXPECT_NO_THROW(dma.get(lsb + 16, main_buf.data() + 48, 32));

  // Small transfers are naturally aligned on both sides.
  EXPECT_THROW(dma.get(lsb + 4, main_buf.data() + 2, 4), CellHardwareError);
  EXPECT_THROW(dma.put(lsb + 2, main_buf.data() + 4, 4), CellHardwareError);
  EXPECT_NO_THROW(dma.put(lsb + 4, main_buf.data() + 4, 4));
}

TEST(Dma, EfficiencyNeedsLineAlignmentAndLineSize) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(4096);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(4096);

  dma.get(lsb, main_buf.data(), kCacheLineBytes);  // fully efficient
  EXPECT_EQ(c.dma_unaligned, 0u);
  // Line-multiple size but one side only quad-aligned: inefficient.
  dma.get(lsb + kQuadWordBytes, main_buf.data(), kCacheLineBytes);
  EXPECT_EQ(c.dma_unaligned, 1u);
  // Line-aligned both sides but sub-line size: inefficient.
  dma.get(lsb, main_buf.data(), kCacheLineBytes / 2);
  EXPECT_EQ(c.dma_unaligned, 2u);
}

TEST(Dma, LargeTransferSplitBoundaries) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(64 * 1024);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(64 * 1024);

  // Exactly 16 KB: one piece, no split.
  dma.get_large(lsb, main_buf.data(), DmaEngine::kMaxTransfer);
  EXPECT_EQ(c.dma_transfers, 1u);

  // One quad over: 16 KB + 16 B remainder.
  dma.get_large(lsb, main_buf.data(),
                DmaEngine::kMaxTransfer + kQuadWordBytes);
  EXPECT_EQ(c.dma_transfers, 3u);

  // Zero bytes: no transfer, no error (empty DMA list).
  dma.put_large(lsb, main_buf.data(), 0);
  EXPECT_EQ(c.dma_transfers, 3u);

  // The split pieces land back-to-back: data integrity across boundaries.
  for (std::size_t i = 0; i < 40 * 1024; ++i) {
    main_buf[i] = static_cast<std::uint8_t>(i * 7);
  }
  dma.get_large(lsb, main_buf.data(), 40 * 1024);
  EXPECT_EQ(lsb[DmaEngine::kMaxTransfer], main_buf[DmaEngine::kMaxTransfer]);
  EXPECT_EQ(lsb[40 * 1024 - 1], main_buf[40 * 1024 - 1]);
  lsb[2 * DmaEngine::kMaxTransfer] ^= 0xFF;
  dma.put_large(lsb, main_buf.data(), 40 * 1024);
  EXPECT_EQ(main_buf[2 * DmaEngine::kMaxTransfer],
            lsb[2 * DmaEngine::kMaxTransfer]);

  // A non-quad remainder still obeys the single-transfer rules.
  EXPECT_THROW(dma.get_large(lsb, main_buf.data(), 16 * 1024 + 5),
               CellHardwareError);
}

TEST(LocalStore, ExhaustionLeavesUsageConsistent) {
  LocalStore ls;
  const std::size_t before = ls.used();
  EXPECT_THROW(ls.alloc<std::uint8_t>(LocalStore::kCapacity + 1),
               CellHardwareError);
  EXPECT_EQ(ls.used(), before);  // failed allocation takes nothing

  // Fill in pieces until the arena genuinely runs dry, then verify the
  // reported headroom is honest: available() succeeds, available()+1 fails.
  while (ls.available() >= 16 * 1024) ls.alloc<std::uint8_t>(16 * 1024);
  const std::size_t room = ls.available();
  if (room > 0) {
    auto* p = ls.alloc<std::uint8_t>(room, 1);
    EXPECT_NE(p, nullptr);
  }
  EXPECT_THROW(ls.alloc<std::uint8_t>(1, 1), CellHardwareError);
}

TEST(LocalStore, PeakAccountingAcrossResetCycles) {
  LocalStore ls;
  ls.alloc<std::uint8_t>(60 * 1024);
  EXPECT_EQ(ls.peak_used(), ls.used());
  const std::size_t first_peak = ls.peak_used();

  // A smaller second cycle must not move the high-water mark…
  ls.reset();
  EXPECT_EQ(ls.used(), 0u);
  ls.alloc<std::uint8_t>(10 * 1024);
  EXPECT_EQ(ls.peak_used(), first_peak);

  // …a larger third cycle must.
  ls.reset();
  ls.alloc<std::uint8_t>(100 * 1024);
  EXPECT_GT(ls.peak_used(), first_peak);
  EXPECT_EQ(ls.peak_used(), ls.used());

  // Alignment padding counts against the arena: an allocation aligned to a
  // full line from an 8-byte-odd cursor consumes more than its size.
  ls.reset();
  ls.alloc<std::uint8_t>(8, 8);
  const std::size_t used_small = ls.used();
  ls.alloc<std::uint8_t>(kCacheLineBytes, kCacheLineBytes);
  EXPECT_GE(ls.used(), used_small + kCacheLineBytes);
}

TEST(Dma, LargeTransfersChunkAt16K) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::uint8_t> main_buf(100 * 1024);
  LocalStore ls;
  auto* lsb = ls.alloc<std::uint8_t>(100 * 1024);
  dma.get_large(lsb, main_buf.data(), 40 * 1024);
  EXPECT_EQ(c.dma_transfers, 3u);  // 16 + 16 + 8 KB
  EXPECT_EQ(c.dma_bytes_in, 40u * 1024u);
}

TEST(Dma, MovesRealData) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::int32_t> main_buf(64);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(64);
  for (int i = 0; i < 64; ++i) main_buf[static_cast<std::size_t>(i)] = i * 3;
  dma.get(lsb, main_buf.data(), 256);
  EXPECT_EQ(lsb[10], 30);
  lsb[10] = -1;
  dma.put(lsb, main_buf.data(), 256);
  EXPECT_EQ(main_buf[10], -1);
}

TEST(DmaTags, AsyncTransfersMoveDataAndCount) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::int32_t> main_buf(64);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(64);
  for (int i = 0; i < 64; ++i) main_buf[static_cast<std::size_t>(i)] = i;
  dma.get_async(lsb, main_buf.data(), 256, 3);
  EXPECT_EQ(dma.pending_mask(), 1u << 3);
  EXPECT_EQ(dma.issued_mask(), 1u << 3);
  dma.wait_tag(3);
  EXPECT_EQ(dma.pending_mask(), 0u);
  EXPECT_EQ(lsb[17], 17);
  EXPECT_EQ(c.dma_tagged_transfers, 1u);
  EXPECT_EQ(c.dma_bytes_tagged, 256u);
  EXPECT_EQ(c.dma_transfers, 1u);  // tagged traffic is still DMA traffic
  dma.put_async(lsb, main_buf.data() + 32, 128, 7);
  dma.wait_tag_mask(1u << 7);
  EXPECT_EQ(main_buf[40], 8);
  EXPECT_EQ(c.dma_bytes_tagged, 384u);
}

TEST(DmaTags, HardMisuseThrows) {
  OpCounters c;
  DmaEngine dma(c);
  AlignedBuffer<std::int32_t> main_buf(64);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(64);
  // Tag out of the MFC's 32-group range.
  EXPECT_THROW(dma.get_async(lsb, main_buf.data(), 256, DmaEngine::kNumTags),
               CellHardwareError);
  EXPECT_THROW(dma.put_async(lsb, main_buf.data(), 256, 99),
               CellHardwareError);
  // Waiting on an empty mask, or on tags never issued (wait on nothing).
  EXPECT_THROW(dma.wait_tag_mask(0), CellHardwareError);
  EXPECT_THROW(dma.wait_tag(5), CellHardwareError);
  dma.get_async(lsb, main_buf.data(), 256, 2);
  EXPECT_THROW(dma.wait_tag(4), CellHardwareError);
  EXPECT_NO_THROW(dma.wait_tag(2));
  // Re-waiting an already-drained but once-issued tag is benign (the MFC
  // just reports the group complete).
  EXPECT_NO_THROW(dma.wait_tag(2));
  // wait_all with nothing in flight is the legal no-op epilogue.
  EXPECT_NO_THROW(dma.wait_all());
}

TEST(DmaTags, HazardsAreReportedToTheAudit) {
  OpCounters c;
  DmaEngine dma(c);
  AuditConfig cfg;
  cfg.enabled = true;
  InvariantAudit audit(cfg);
  dma.attach_audit(&audit);
  AlignedBuffer<std::int32_t> main_buf(256);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(256);

  // Touching a buffer whose get has not been waited.
  dma.get_async(lsb, main_buf.data(), 256, 0);
  dma.touch(lsb, 256);
  EXPECT_EQ(audit.report().tag_touch_before_wait, 1u);
  dma.wait_tag(0);
  dma.touch(lsb, 256);  // clean after the wait
  EXPECT_EQ(audit.report().tag_touch_before_wait, 1u);

  // Re-targeting a buffer with a transfer in flight, without a fence.
  dma.put_async(lsb, main_buf.data(), 256, 1);
  dma.get_async(lsb, main_buf.data() + 64, 256, 2);
  EXPECT_EQ(audit.report().tag_reuse_in_flight, 1u);
  dma.wait_tag_mask((1u << 1) | (1u << 2));

  // The fenced flavour of the same re-target on the same tag is legal.
  dma.put_async(lsb + 64, main_buf.data(), 256, 4);
  dma.getf_async(lsb + 64, main_buf.data() + 128, 256, 4);
  EXPECT_EQ(audit.report().tag_reuse_in_flight, 1u);
  dma.wait_tag(4);

  // Returning from a kernel with tags still in flight.
  dma.get_async(lsb, main_buf.data(), 256, 6);
  dma.finish_kernel();
  EXPECT_EQ(audit.report().tag_pending_at_exit, 1u);
  EXPECT_EQ(dma.pending_mask(), 0u);  // finish_kernel resets tag state
  EXPECT_EQ(audit.report().tag_hazards(), 3u);
  EXPECT_FALSE(audit.report().clean());
}

TEST(DmaTags, StrictAuditThrowsOnHazard) {
  OpCounters c;
  DmaEngine dma(c);
  AuditConfig cfg;
  cfg.enabled = true;
  cfg.strict = true;
  InvariantAudit audit(cfg);
  dma.attach_audit(&audit);
  AlignedBuffer<std::int32_t> main_buf(64);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(64);
  dma.get_async(lsb, main_buf.data(), 256, 0);
  EXPECT_THROW(dma.touch(lsb, 256), AuditError);
}

TEST(DmaTags, FinishKernelWithNothingPendingIsClean) {
  OpCounters c;
  DmaEngine dma(c);
  AuditConfig cfg;
  cfg.enabled = true;
  InvariantAudit audit(cfg);
  dma.attach_audit(&audit);
  AlignedBuffer<std::int32_t> main_buf(64);
  LocalStore ls;
  auto* lsb = ls.alloc<std::int32_t>(64);
  dma.get_async(lsb, main_buf.data(), 256, 0);
  dma.wait_all();
  dma.finish_kernel();
  EXPECT_EQ(audit.report().tag_hazards(), 0u);
  EXPECT_TRUE(audit.report().clean());
}

/// The per-transfer in-flight list DmaEngine kept before it coalesced
/// repeat issues: one entry per issue, the first overlapping entry in issue
/// order reported.  Hazards come out as the audit's message text.
class ReferenceTagChecker {
 public:
  void issue(const void* ls, std::size_t bytes, unsigned tag, bool is_get,
             bool fenced) {
    const Entry e{reinterpret_cast<std::uintptr_t>(ls),
                  reinterpret_cast<std::uintptr_t>(ls) + bytes, tag, is_get};
    for (const Entry& p : pending_) {
      if (e.lo < p.hi && p.lo < e.hi && !(fenced && p.tag == tag)) {
        hazard("reuse-in-flight",
               "tag " + std::to_string(tag) +
                   " re-targets a Local Store range in flight on tag " +
                   std::to_string(p.tag) + " without a same-tag fence");
        break;
      }
    }
    pending_.push_back(e);
    pending_mask |= 1u << tag;
    issued_mask |= 1u << tag;
  }
  void retire(std::uint32_t mask) {
    std::erase_if(pending_, [mask](const Entry& p) {
      return (mask & (1u << p.tag)) != 0;
    });
    pending_mask &= ~mask;
  }
  void touch(const void* ls, std::size_t bytes) {
    const auto lo = reinterpret_cast<std::uintptr_t>(ls);
    for (const Entry& p : pending_) {
      if (lo < p.hi && p.lo < lo + bytes) {
        hazard("touch-before-wait", "buffer touched while its " +
                                        std::string(p.is_get ? "get" : "put") +
                                        " is in flight on tag " +
                                        std::to_string(p.tag));
        return;
      }
    }
  }
  void finish() {
    if (pending_mask != 0) {
      char mask[16];
      std::snprintf(mask, sizeof mask, "%x", pending_mask);
      hazard("pending-at-exit",
             "kernel exit with tags in flight (pending mask 0x" +
                 std::string(mask) + ")");
    }
    pending_.clear();
    pending_mask = issued_mask = 0;
  }
  std::size_t entries() const { return pending_.size(); }
  /// Distinct (range, tag, direction) keys among the pending transfers.
  std::size_t distinct_keys() const {
    std::vector<std::tuple<std::uintptr_t, std::uintptr_t, unsigned, bool>>
        keys;
    for (const Entry& p : pending_) {
      keys.emplace_back(p.lo, p.hi, p.tag, p.is_get);
    }
    std::sort(keys.begin(), keys.end());
    return static_cast<std::size_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
  }

  std::vector<std::string> hazards;
  std::uint32_t pending_mask = 0;
  std::uint32_t issued_mask = 0;

 private:
  struct Entry {
    std::uintptr_t lo, hi;
    unsigned tag;
    bool is_get;
  };
  void hazard(const char* label, const std::string& detail) {
    hazards.push_back("DMA tag hazard (" + std::string(label) +
                      ") at site '(untagged)': " + detail);
  }
  std::vector<Entry> pending_;
};

TEST(DmaTags, CoalescedTrackingMatchesPerTransferReference) {
  // Seeded random tag traffic over a small Local Store window: get/put,
  // fenced and not, 1/2/4/8/16n-byte sizes, ranges overlapping across four
  // tags, interleaved with every wait flavour, touches and kernel exits.
  // The engine must report the same hazards, in the same order and with
  // the same text, and keep the same tag masks as the per-transfer list.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    OpCounters c;
    DmaEngine dma(c);
    InvariantAudit audit(AuditConfig{.enabled = true});
    dma.attach_audit(&audit);
    LocalStore ls;
    auto* lsb = ls.alloc<std::uint8_t>(1024);
    AlignedBuffer<std::uint8_t> main_buf(1024);
    ReferenceTagChecker ref;
    std::vector<std::string> seen;
    std::uint64_t hazards = 0;
    std::size_t coalesced = 0;
    for (int op = 0; op < 4000; ++op) {
      static constexpr std::size_t kSmall[] = {1, 2, 4, 8};
      const bool small = rng.next_below(4) == 0;
      const std::size_t bytes = small ? kSmall[rng.next_below(4)]
                                      : 16 * (1 + rng.next_below(8));
      // Coarse 16-byte slots so keys repeat; small transfers land at a
      // naturally aligned offset inside their slot.
      const std::size_t off = 16 * rng.next_below(24) +
                              (small ? bytes * rng.next_below(16 / bytes) : 0);
      const auto tag = static_cast<unsigned>(rng.next_below(4));
      const std::uint64_t kind = rng.next_below(100);
      if (kind < 55) {
        const bool is_get = rng.next_below(2) == 0;
        const bool fenced = rng.next_below(2) == 0;
        std::uint8_t* l = lsb + off;
        std::uint8_t* m = main_buf.data() + off;
        if (is_get && fenced) dma.getf_async(l, m, bytes, tag);
        if (is_get && !fenced) dma.get_async(l, m, bytes, tag);
        if (!is_get && fenced) dma.putf_async(l, m, bytes, tag);
        if (!is_get && !fenced) dma.put_async(l, m, bytes, tag);
        ref.issue(lsb + off, bytes, tag, is_get, fenced);
      } else if (kind < 75) {
        dma.touch(lsb + off, bytes);
        ref.touch(lsb + off, bytes);
      } else if (kind < 97 && ref.issued_mask != 0) {
        std::uint32_t mask = 0;
        if (kind < 85) {
          unsigned t = tag;
          while ((ref.issued_mask >> t & 1u) == 0) t = (t + 1) % 4;
          dma.wait_tag(t);
          mask = 1u << t;
        } else if (kind < 93) {
          while ((mask & ref.issued_mask) == 0) {
            mask = static_cast<std::uint32_t>(rng.next_below(16));
          }
          dma.wait_tag_mask(mask);
        } else {
          dma.wait_all();
          mask = ~0u;
        }
        ref.retire(mask);
      } else {
        dma.finish_kernel();
        ref.finish();
      }
      const AuditReport r = audit.report();
      if (r.tag_hazards() != hazards) {
        ASSERT_EQ(r.tag_hazards(), hazards + 1) << "one hazard per op";
        hazards = r.tag_hazards();
        seen.push_back(r.last_tag_hazard);
      }
      ASSERT_EQ(dma.pending_mask(), ref.pending_mask) << "op " << op;
      ASSERT_EQ(dma.issued_mask(), ref.issued_mask) << "op " << op;
      ASSERT_EQ(dma.in_flight_entries(), ref.distinct_keys()) << "op " << op;
      coalesced = std::max(coalesced, ref.entries() - ref.distinct_keys());
    }
    EXPECT_EQ(seen, ref.hazards) << "seed " << seed;
    EXPECT_GT(coalesced, 0u) << "the sweep must repeat keys";
    EXPECT_GT(ref.hazards.size(), 50u) << "the sweep must exercise hazards";
  }
}

TEST(DmaTags, FencedStreamTracksOneEntryPerKey) {
  // The read kernel's shape: two Local Store buffers re-targeted by fenced
  // get->put pairs on parity tags, drained only at the end.  Tracking stays
  // at the four distinct keys however long the stream runs.
  OpCounters c;
  DmaEngine dma(c);
  InvariantAudit audit(AuditConfig{.enabled = true});
  dma.attach_audit(&audit);
  LocalStore ls;
  std::int32_t* buf[2] = {ls.alloc<std::int32_t>(32),
                          ls.alloc<std::int32_t>(32)};
  AlignedBuffer<std::int32_t> src(32);
  AlignedBuffer<std::int32_t> dst(32);
  for (unsigned k = 0; k < 100000; ++k) {
    const unsigned t = k & 1;
    dma.getf_async(buf[t], src.data(), 128, t);
    dma.putf_async(buf[t], dst.data(), 128, t);
  }
  EXPECT_EQ(dma.in_flight_entries(), 4u);
  EXPECT_EQ(dma.pending_mask(), 3u);
  EXPECT_EQ(c.dma_tagged_transfers, 200000u);
  dma.wait_all();
  EXPECT_EQ(dma.in_flight_entries(), 0u);
  EXPECT_EQ(audit.report().tag_hazards(), 0u);
}

TEST(Simd, CountsAndComputes) {
  OpCounters c;
  Simd s(c);
  alignas(16) float a[4] = {1, 2, 3, 4};
  alignas(16) float b[4] = {10, 20, 30, 40};
  auto va = s.load(a);
  auto vb = s.load(b);
  auto sum = s.add(va, vb);
  auto prod = s.madd(va, vb, sum);
  alignas(16) float out[4];
  s.store(out, prod);
  EXPECT_EQ(out[0], 1 * 10 + 11);
  EXPECT_EQ(out[3], 4 * 40 + 44);
  EXPECT_EQ(c.v_load, 2u);
  EXPECT_EQ(c.v_store, 1u);
  EXPECT_EQ(c.v_add, 1u);
  EXPECT_EQ(c.v_mul_f, 1u);
}

TEST(Simd, RejectsMisalignedAccess) {
  OpCounters c;
  Simd s(c);
  alignas(16) float buf[8] = {};
  EXPECT_THROW(s.load(buf + 1), CellHardwareError);
  EXPECT_NO_THROW(s.load_shifted(buf + 1));  // the shuffle path allows it
  EXPECT_EQ(c.v_shuffle, 1u);
  EXPECT_EQ(c.v_load, 2u);  // shifted load = two quad loads
}

TEST(Simd, EmulatedIntegerMultiply) {
  OpCounters c;
  Simd s(c);
  auto a = s.splat(std::int32_t{7});
  auto b = s.splat(std::int32_t{-3});
  auto r = s.mul_emulated(a, b);
  EXPECT_EQ(r.lane[0], -21);
  EXPECT_EQ(c.v_mul_i_emul, 1u);
  auto q = s.mul_fix_q13(s.splat(std::int32_t{1 << 13}),
                         s.splat(std::int32_t{100}));
  EXPECT_EQ(q.lane[2], 100);
  EXPECT_EQ(c.v_mul_i_emul, 2u);
}

TEST(CostModel, Table1Relations) {
  // The §4 argument: a fixed-point lifting step (emulated multiply) costs
  // materially more SPE issue slots than the float step (fm).
  CostModel m;
  OpCounters fixed_step, float_step;
  fixed_step.v_mul_i_emul = 1000;
  fixed_step.v_add = 1000;
  float_step.v_mul_f = 1000;
  float_step.v_add = 1000;
  EXPECT_GT(m.spe_seconds(fixed_step), m.spe_seconds(float_step) * 2.0);
}

TEST(CostModel, PpeBeatsSpeOnT1AndLosesOnStreams) {
  CostModel m;
  OpCounters t1;
  t1.t1_symbols = 1000000;
  EXPECT_LT(m.ppe_seconds(t1), m.spe_seconds(t1));  // branchy integer code

  OpCounters stream;  // vectorized streaming kernel
  stream.v_load = 1000;
  stream.v_store = 1000;
  stream.v_add = 2000;
  stream.v_mul_f = 2000;
  EXPECT_LT(m.spe_seconds(stream), m.ppe_seconds(stream) / 3.0);
}

TEST(CostModel, UnalignedDmaIsPenalized) {
  CostModel m;
  OpCounters aligned, unaligned;
  aligned.dma_bytes_in = 1 << 20;
  aligned.dma_transfers = 100;
  unaligned.dma_bytes_in = 1 << 20;
  unaligned.dma_transfers = 100;
  unaligned.dma_unaligned = 100;
  EXPECT_GT(m.effective_dma_bytes(unaligned),
            m.effective_dma_bytes(aligned) * 3 / 2);
}

TEST(Machine, ComposesStageTiming) {
  MachineConfig cfg;
  cfg.num_spes = 4;
  Machine m(cfg);
  std::vector<int> touched(4, 0);
  const auto t = m.run_data_parallel(
      "test",
      [&](int i, SpeContext& ctx) {
        touched[static_cast<std::size_t>(i)] = 1;
        ctx.counters.v_add = 1000 * static_cast<std::uint64_t>(i + 1);
        ctx.counters.dma_bytes_in = 1 << 20;
        ctx.counters.dma_transfers = 10;
      },
      [&](OpCounters& c) { c.s_int = 500; });
  for (int v : touched) EXPECT_EQ(v, 1);
  EXPECT_EQ(t.name, "test");
  EXPECT_GT(t.spe_compute, 0.0);
  EXPECT_GT(t.dma_aggregate, 0.0);
  EXPECT_GT(t.ppe, 0.0);
  EXPECT_GE(t.seconds, t.spe_compute);
  EXPECT_GE(t.seconds, t.dma_aggregate);
  EXPECT_EQ(t.dma_bytes, 4u << 20);
}

TEST(Machine, BandwidthScalesWithChips) {
  MachineConfig one, two;
  two.chips = 2;
  EXPECT_EQ(Machine(two).total_mem_bw(), 2.0 * Machine(one).total_mem_bw());
}

TEST(Machine, NoOverlapSerializesComputeAndDma) {
  MachineConfig cfg;
  cfg.num_spes = 1;
  Machine m(cfg);
  std::vector<OpCounters> spe(1);
  spe[0].v_add = 1u << 24;
  spe[0].dma_bytes_in = 1u << 28;
  spe[0].dma_transfers = 1;
  // Overlap is earned: only tagged (asynchronous) traffic hides behind
  // compute.
  spe[0].dma_tagged_transfers = 1;
  spe[0].dma_bytes_tagged = 1u << 28;
  const auto overlapped = m.compose("a", spe, {}, true);
  const auto serial = m.compose("b", spe, {}, false);
  EXPECT_GT(serial.seconds, overlapped.seconds);
  EXPECT_DOUBLE_EQ(overlapped.dma_overlap_saved,
                   serial.seconds - overlapped.seconds);
}

TEST(Machine, UntaggedTrafficEarnsNoOverlap) {
  MachineConfig cfg;
  cfg.num_spes = 1;
  Machine m(cfg);
  std::vector<OpCounters> spe(1);
  spe[0].v_add = 1u << 24;
  spe[0].dma_bytes_in = 1u << 28;
  spe[0].dma_transfers = 1;  // synchronous: stalls the SPE either way
  const auto overlapped = m.compose("a", spe, {}, true);
  const auto serial = m.compose("b", spe, {}, false);
  EXPECT_DOUBLE_EQ(serial.seconds, overlapped.seconds);
  EXPECT_DOUBLE_EQ(overlapped.dma_overlap_saved, 0.0);
}

TEST(Machine, PartiallyTaggedTrafficEarnsPartialOverlap) {
  MachineConfig cfg;
  cfg.num_spes = 1;
  Machine m(cfg);
  std::vector<OpCounters> all_tagged(1), half_tagged(1);
  // Compute strictly dominates the transfer time, so the fully tagged
  // stage hides all of it, the half-tagged stage pays the sync half, and
  // the serial composition pays everything.
  all_tagged[0].v_add = half_tagged[0].v_add = 1u << 27;
  all_tagged[0].dma_bytes_in = half_tagged[0].dma_bytes_in = 1u << 28;
  all_tagged[0].dma_transfers = half_tagged[0].dma_transfers = 2;
  all_tagged[0].dma_tagged_transfers = 2;
  all_tagged[0].dma_bytes_tagged = 1u << 28;
  half_tagged[0].dma_tagged_transfers = 1;
  half_tagged[0].dma_bytes_tagged = 1u << 27;
  const auto full = m.compose("a", all_tagged, {}, true);
  const auto half = m.compose("b", half_tagged, {}, true);
  const auto none = m.compose("c", all_tagged, {}, false);
  EXPECT_LT(full.seconds, half.seconds);
  EXPECT_LT(half.seconds, none.seconds);
}

TEST(Machine, WorkerExceptionsPropagate) {
  MachineConfig cfg;
  cfg.num_spes = 2;
  Machine m(cfg);
  EXPECT_THROW(
      m.run_data_parallel(
          "boom",
          [](int i, SpeContext&) {
            if (i == 1) throw CellHardwareError("kernel fault");
          },
          nullptr),
      CellHardwareError);
}

}  // namespace
}  // namespace cj2k::cell
