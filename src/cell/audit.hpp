// cellcheck tier 2: the runtime Cell-invariant audit layer.
//
// The paper's performance story rests on invariants the type system cannot
// see — every DMA cache-line aligned with a line-multiple size (§2), Local
// Store usage bounded and constant per kernel (§2).  The DmaEngine and
// LocalStore report every event here, tagged with the stage that issued it
// (AuditSiteScope, set by Machine::run_data_parallel), so a run produces a
// per-stage ledger: transfers, bytes, the inefficient share, and the Local
// Store high-water mark.  Strict mode turns any inefficient transfer or
// over-budget allocation into a hard AuditError at the faulting call, which
// is how the test suite pins the "all SPE DMA is efficient" claim.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "cell/dma.hpp"

namespace cj2k::cell {

struct AuditConfig {
  bool enabled = false;
  /// Throw AuditError on the first inefficient DMA or LS over-budget event.
  bool strict = false;
  /// Local Store bytes a kernel may hold at once; 0 means the full data
  /// capacity (LocalStore::kCapacity minus the code reserve).
  std::size_t ls_budget = 0;
};

/// Ledger for one site (stage name) — what the report breaks down by.
struct AuditSiteReport {
  std::string site;
  std::uint64_t dma_transfers = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t dma_inefficient = 0;        ///< Not line-aligned/line-sized.
  std::uint64_t dma_inefficient_bytes = 0;
  std::uint64_t ls_peak = 0;                ///< High-water LS bytes.
  std::uint64_t ls_over_budget = 0;         ///< Allocations past the budget.
  // Tag-discipline hazards (DmaEngine async transfers; DESIGN.md §10).
  std::uint64_t tag_touch_before_wait = 0;
  std::uint64_t tag_reuse_in_flight = 0;
  std::uint64_t tag_pending_at_exit = 0;

  std::uint64_t tag_hazards() const {
    return tag_touch_before_wait + tag_reuse_in_flight + tag_pending_at_exit;
  }
};

struct AuditReport {
  bool enabled = false;
  std::uint64_t dma_transfers = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t dma_inefficient = 0;
  std::uint64_t dma_inefficient_bytes = 0;
  std::uint64_t ls_peak = 0;       ///< Max over all sites.
  std::uint64_t ls_budget = 0;     ///< The budget the run was held to.
  std::uint64_t ls_over_budget = 0;
  std::uint64_t tag_touch_before_wait = 0;
  std::uint64_t tag_reuse_in_flight = 0;
  std::uint64_t tag_pending_at_exit = 0;
  std::vector<AuditSiteReport> sites;  ///< Sorted by site name.
  /// Message of the most recent tag hazard (the strict-mode AuditError
  /// text); empty when none was recorded.
  std::string last_tag_hazard;

  std::uint64_t tag_hazards() const {
    return tag_touch_before_wait + tag_reuse_in_flight + tag_pending_at_exit;
  }

  /// True when the run upheld all three invariants: efficient DMA, bounded
  /// Local Store, and clean tag discipline.
  bool clean() const {
    return dma_inefficient == 0 && ls_over_budget == 0 && tag_hazards() == 0;
  }

  /// Human-readable multi-line table (one row per site).
  std::string summary() const;
};

/// RAII thread-local provenance label.  DMA and LS events recorded while a
/// scope is alive are attributed to its site; scopes nest (inner wins).
class AuditSiteScope {
 public:
  explicit AuditSiteScope(const char* site);
  ~AuditSiteScope();
  AuditSiteScope(const AuditSiteScope&) = delete;
  AuditSiteScope& operator=(const AuditSiteScope&) = delete;

  /// The innermost live site label on this thread ("(untagged)" if none).
  static const char* current();

 private:
  const char* prev_;
};

/// RAII thread-local tile provenance for multi-tile encodes.  While a scope
/// is alive, audit events on this thread are attributed to "tileN/<site>"
/// instead of the bare site, so a strict-mode violation names the offending
/// tile.  -1 (the default when no scope is alive) means "no tile" and
/// leaves single-tile site names unchanged.
class AuditTileScope {
 public:
  explicit AuditTileScope(int tile);
  ~AuditTileScope();
  AuditTileScope(const AuditTileScope&) = delete;
  AuditTileScope& operator=(const AuditTileScope&) = delete;

  /// The innermost live tile index on this thread (-1 if none).
  static int current();

 private:
  int prev_;
};

/// RAII thread-local job provenance for the encode service (DESIGN.md §12).
/// While a scope is alive, audit events on this thread are attributed to
/// "jobN/<site>" (composing with tile provenance as "jobN/tileM/<site>"),
/// so a strict-mode violation in a multi-job service run names the
/// offending job.  -1 (the default when no scope is alive) means "no job"
/// and leaves single-job site names unchanged.
class AuditJobScope {
 public:
  explicit AuditJobScope(int job);
  ~AuditJobScope();
  AuditJobScope(const AuditJobScope&) = delete;
  AuditJobScope& operator=(const AuditJobScope&) = delete;

  /// The innermost live job index on this thread (-1 if none).
  static int current();

 private:
  int prev_;
};

/// Per-encode invariant ledger.  Thread-safe: SPE kernels on host threads
/// record concurrently.
class InvariantAudit {
 public:
  explicit InvariantAudit(const AuditConfig& cfg);

  /// DmaEngine calls this for every transfer the MFC would accept.
  /// Throws AuditError in strict mode when the transfer is inefficient.
  void record_dma(std::size_t bytes, bool efficient);

  /// LocalStore calls this after every successful allocation with the new
  /// usage level.  Throws AuditError in strict mode when over budget.
  void record_ls(std::size_t used_now, std::size_t data_capacity);

  /// DmaEngine calls this on every tag-discipline hazard (touch before
  /// wait, in-flight reuse, pending tags at kernel exit).  Throws
  /// AuditError in strict mode.
  void record_tag_hazard(TagHazard kind, const std::string& detail);

  const AuditConfig& config() const { return cfg_; }

  AuditReport report() const;

 private:
  struct SiteAccum {
    std::uint64_t dma_transfers = 0;
    std::uint64_t dma_bytes = 0;
    std::uint64_t dma_inefficient = 0;
    std::uint64_t dma_inefficient_bytes = 0;
    std::uint64_t ls_peak = 0;
    std::uint64_t ls_over_budget = 0;
    std::uint64_t tag_touch_before_wait = 0;
    std::uint64_t tag_reuse_in_flight = 0;
    std::uint64_t tag_pending_at_exit = 0;
  };

  AuditConfig cfg_;
  mutable std::mutex mu_;
  std::map<std::string, SiteAccum> sites_;
  std::string last_tag_hazard_;
};

}  // namespace cj2k::cell
