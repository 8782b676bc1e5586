// MFC DMA model.  Enforces the Cell's transfer rules (size/alignment) and
// records traffic for the bandwidth model.  The paper's decomposition
// scheme exists precisely to make every transfer land on the "efficient"
// path here: cache-line aligned on both sides, size a multiple of the line.
//
// Transfers come in two flavours:
//  * synchronous get/put — the transfer completes before the call returns
//    (compute and DMA serialize, the Muta baseline condition);
//  * tag-grouped asynchronous get_async/put_async — the MFC idiom the
//    paper's double buffering rests on.  A transfer is issued on one of 32
//    tag groups and completes only when the kernel waits on its tag
//    (wait_tag / wait_tag_mask / wait_all).  The fenced variants
//    (getf_async/putf_async, the mfc_getf/putf commands) are ordered after
//    every previously issued transfer in the same tag group, which is what
//    makes re-targeting a Local Store buffer without an intervening wait
//    legal.
//
// Functionally the model copies data at issue time (host threads share one
// address space), but it tracks per-tag in-flight Local Store ranges and
// reports tag-discipline hazards to the invariant audit (cellcheck tier 2):
// a buffer touched while its transfer is in flight, a buffer re-targeted
// while in flight, and a kernel exiting with pending tags.  Hard MFC misuse
// (tag out of range, waiting on nothing) throws CellHardwareError.
//
// In-flight tracking is coalesced: one entry per distinct (Local Store
// range, tag, direction), in first-issue order, however often a kernel
// re-issues it.  A double-buffered stream that never drains mid-kernel thus
// keeps a handful of entries instead of one per row, and each issue or
// touch scans only those.  Verdicts are those of a per-transfer list:
// transfers sharing a key agree on every overlap and fence test, so the
// first matching entry is the key of the first matching transfer and the
// hazard names the same tag, direction and detail.  Ranges stay byte-exact
// (a cache-line map would be wrong: 16 B-granular ranges and 1-8 B small
// transfers can share a line without overlapping).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cell/counters.hpp"

namespace cj2k::cell {

class InvariantAudit;
class DmaTraceLog;

/// Tag-discipline hazard classes the DmaEngine reports to the audit.  Each
/// maps 1:1 onto a cellcheck tier-4 static rule (DESIGN.md §10).
enum class TagHazard {
  kTouchBeforeWait,  ///< Buffer read/written while its transfer is in flight.
  kReuseInFlight,    ///< Buffer re-targeted without a same-tag fence.
  kPendingAtExit,    ///< Kernel returned with tags still in flight.
};

class DmaEngine {
 public:
  /// Largest single MFC transfer.
  static constexpr std::size_t kMaxTransfer = 16 * 1024;
  /// MFC tag groups (tags 0 .. kNumTags-1).
  static constexpr unsigned kNumTags = 32;

  explicit DmaEngine(OpCounters& c) : c_(&c) {}

  /// Main memory -> Local Store.  Throws CellHardwareError on transfers the
  /// MFC would reject (size not in {1,2,4,8,16k·n}, mismatched alignment).
  void get(void* ls_dst, const void* main_src, std::size_t bytes);

  /// Local Store -> main memory.
  void put(const void* ls_src, void* main_dst, std::size_t bytes);

  /// Convenience: transfer of arbitrary size, split into <=16 KB pieces
  /// (what a DMA list would do).
  void get_large(void* ls_dst, const void* main_src, std::size_t bytes);
  void put_large(const void* ls_src, void* main_dst, std::size_t bytes);

  // --- Tag-grouped asynchronous transfers -----------------------------------

  /// Issues a transfer on `tag` without waiting for completion.  Same
  /// size/alignment rules as the synchronous calls; throws CellHardwareError
  /// when `tag >= kNumTags`.
  void get_async(void* ls_dst, const void* main_src, std::size_t bytes,
                 unsigned tag);
  void put_async(const void* ls_src, void* main_dst, std::size_t bytes,
                 unsigned tag);

  /// Fenced issue (mfc_getf/mfc_putf): ordered after every transfer
  /// previously issued on the same tag, so the same Local Store buffer may
  /// be re-targeted without a wait in between.
  void getf_async(void* ls_dst, const void* main_src, std::size_t bytes,
                  unsigned tag);
  void putf_async(const void* ls_src, void* main_dst, std::size_t bytes,
                  unsigned tag);

  /// Blocks until every transfer issued on `tag` has completed.  Throws
  /// CellHardwareError when the tag is out of range or when no transfer was
  /// ever issued on it since the last reset ("wait on nothing").
  void wait_tag(unsigned tag);

  /// Waits on every tag in `mask` (bit t = tag t).  Throws
  /// CellHardwareError when the mask is empty or when none of its tags has
  /// ever been issued on.  Re-waiting an already-complete tag is benign.
  void wait_tag_mask(std::uint32_t mask);

  /// Waits for all in-flight transfers; no-op when nothing is pending
  /// (the mfc_write_tag_mask(~0) epilogue idiom).
  void wait_all();

  /// Declares that the kernel is about to read or write `bytes` at
  /// `ls_ptr`.  Reports a touch-before-wait hazard to the audit when the
  /// range overlaps an in-flight transfer.
  void touch(const void* ls_ptr, std::size_t bytes);

  /// Kernel epilogue check: reports a pending-at-exit hazard when tags are
  /// still in flight, then clears all tag state.
  void finish_kernel();

  /// Clears all tag state (stage prologue; Machine::run_data_parallel calls
  /// this alongside the counter reset).
  void reset_tags();

  /// Bitmask of tags with in-flight transfers.
  std::uint32_t pending_mask() const { return pending_mask_; }

  /// Bitmask of tags issued on since the last reset (sticky across waits).
  std::uint32_t issued_mask() const { return issued_mask_; }

  /// Distinct in-flight (range, tag, direction) keys being tracked.
  std::size_t in_flight_entries() const { return in_flight_.size(); }

  OpCounters& counters() { return *c_; }

  /// Attaches the invariant audit every accepted transfer reports into
  /// (cellcheck tier 2); nullptr detaches.
  void attach_audit(InvariantAudit* audit) { audit_ = audit; }

  /// Attaches a trace staging log (DESIGN.md §11): accepted transfers and
  /// tag waits are recorded at tag-group granularity for the machine to
  /// time-stamp after the stage composes.  nullptr (the default) detaches;
  /// recording never touches the op counters, so timing is unaffected.
  void attach_trace(DmaTraceLog* log) { trace_ = log; }

 private:
  /// One in-flight key: a Local Store range on a tag in one direction.
  struct InFlight {
    std::uintptr_t lo;
    std::uintptr_t hi;  ///< One past the end.
    unsigned tag;
    bool is_get;
  };

  void validate(const void* a, const void* b, std::size_t bytes,
                bool& efficient) const;
  /// Transfer bodies shared by the sync and async entry points (the sync
  /// entry points additionally record a kSync trace op).
  void get_impl(void* ls_dst, const void* main_src, std::size_t bytes);
  void put_impl(const void* ls_src, void* main_dst, std::size_t bytes);
  void issue_async(void* ls, std::size_t bytes, unsigned tag, bool is_get,
                   bool fenced);
  void retire_tags(std::uint32_t mask, const char* wait_kind);
  void report_hazard(TagHazard kind, const std::string& detail);
  OpCounters* c_;
  InvariantAudit* audit_ = nullptr;
  DmaTraceLog* trace_ = nullptr;
  std::vector<InFlight> in_flight_;  ///< Distinct keys, first-issue order.
  std::uint32_t pending_mask_ = 0;
  std::uint32_t issued_mask_ = 0;
};

}  // namespace cj2k::cell
