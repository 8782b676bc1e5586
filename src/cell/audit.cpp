#include "cell/audit.hpp"

#include <cstdio>

#include "common/error.hpp"

namespace cj2k::cell {

namespace {

constexpr const char* kUntagged = "(untagged)";

thread_local const char* t_site = nullptr;
thread_local int t_tile = -1;
thread_local int t_job = -1;

/// Site key with job and tile provenance folded in ("jobN/tileM/site" when
/// the corresponding scopes are live).
std::string qualified_site(const char* site) {
  const int tile = AuditTileScope::current();
  const int job = AuditJobScope::current();
  if (tile < 0 && job < 0) return site;
  std::string s = site;
  if (tile >= 0) s = "tile" + std::to_string(tile) + "/" + s;
  if (job >= 0) s = "job" + std::to_string(job) + "/" + s;
  return s;
}

}  // namespace

AuditSiteScope::AuditSiteScope(const char* site) : prev_(t_site) {
  t_site = site;
}

AuditSiteScope::~AuditSiteScope() { t_site = prev_; }

const char* AuditSiteScope::current() {
  return t_site != nullptr ? t_site : kUntagged;
}

AuditTileScope::AuditTileScope(int tile) : prev_(t_tile) { t_tile = tile; }

AuditTileScope::~AuditTileScope() { t_tile = prev_; }

int AuditTileScope::current() { return t_tile; }

AuditJobScope::AuditJobScope(int job) : prev_(t_job) { t_job = job; }

AuditJobScope::~AuditJobScope() { t_job = prev_; }

int AuditJobScope::current() { return t_job; }

InvariantAudit::InvariantAudit(const AuditConfig& cfg) : cfg_(cfg) {}

void InvariantAudit::record_dma(std::size_t bytes, bool efficient) {
  const std::string site = qualified_site(AuditSiteScope::current());
  {
    std::lock_guard<std::mutex> lock(mu_);
    SiteAccum& a = sites_[site];
    ++a.dma_transfers;
    a.dma_bytes += bytes;
    if (!efficient) {
      ++a.dma_inefficient;
      a.dma_inefficient_bytes += bytes;
    }
  }
  if (!efficient && cfg_.strict) {
    throw AuditError("inefficient DMA transfer (" + std::to_string(bytes) +
                     " bytes, not cache-line aligned/sized) at site '" +
                     site + "'");
  }
}

void InvariantAudit::record_ls(std::size_t used_now,
                               std::size_t data_capacity) {
  const std::string site = qualified_site(AuditSiteScope::current());
  const std::size_t budget =
      cfg_.ls_budget != 0 ? cfg_.ls_budget : data_capacity;
  const bool over = used_now > budget;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SiteAccum& a = sites_[site];
    if (used_now > a.ls_peak) a.ls_peak = used_now;
    if (over) ++a.ls_over_budget;
  }
  if (over && cfg_.strict) {
    throw AuditError("Local Store over budget at site '" + site +
                     "': " + std::to_string(used_now) + " of " +
                     std::to_string(budget) + " bytes");
  }
}

void InvariantAudit::record_tag_hazard(TagHazard kind,
                                       const std::string& detail) {
  const std::string site = qualified_site(AuditSiteScope::current());
  const char* label = "tag hazard";
  std::string message;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SiteAccum& a = sites_[site];
    switch (kind) {
      case TagHazard::kTouchBeforeWait:
        ++a.tag_touch_before_wait;
        label = "touch-before-wait";
        break;
      case TagHazard::kReuseInFlight:
        ++a.tag_reuse_in_flight;
        label = "reuse-in-flight";
        break;
      case TagHazard::kPendingAtExit:
        ++a.tag_pending_at_exit;
        label = "pending-at-exit";
        break;
    }
    message = "DMA tag hazard (" + std::string(label) + ") at site '" + site +
              "': " + detail;
    last_tag_hazard_ = message;
  }
  if (cfg_.strict) throw AuditError(message);
}

AuditReport InvariantAudit::report() const {
  AuditReport r;
  r.enabled = cfg_.enabled;
  r.ls_budget = cfg_.ls_budget;
  std::lock_guard<std::mutex> lock(mu_);
  r.last_tag_hazard = last_tag_hazard_;
  for (const auto& [site, a] : sites_) {
    AuditSiteReport s;
    s.site = site;
    s.dma_transfers = a.dma_transfers;
    s.dma_bytes = a.dma_bytes;
    s.dma_inefficient = a.dma_inefficient;
    s.dma_inefficient_bytes = a.dma_inefficient_bytes;
    s.ls_peak = a.ls_peak;
    s.ls_over_budget = a.ls_over_budget;
    s.tag_touch_before_wait = a.tag_touch_before_wait;
    s.tag_reuse_in_flight = a.tag_reuse_in_flight;
    s.tag_pending_at_exit = a.tag_pending_at_exit;
    r.dma_transfers += s.dma_transfers;
    r.dma_bytes += s.dma_bytes;
    r.dma_inefficient += s.dma_inefficient;
    r.dma_inefficient_bytes += s.dma_inefficient_bytes;
    if (s.ls_peak > r.ls_peak) r.ls_peak = s.ls_peak;
    r.ls_over_budget += s.ls_over_budget;
    r.tag_touch_before_wait += s.tag_touch_before_wait;
    r.tag_reuse_in_flight += s.tag_reuse_in_flight;
    r.tag_pending_at_exit += s.tag_pending_at_exit;
    r.sites.push_back(std::move(s));
  }
  return r;
}

std::string AuditReport::summary() const {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof(line), "%-22s %10s %12s %8s %10s %6s %7s\n",
                "site", "transfers", "bytes", "ineff", "ls_peak", "over",
                "hazard");
  out += line;
  for (const auto& s : sites) {
    std::snprintf(line, sizeof(line),
                  "%-22s %10llu %12llu %8llu %10llu %6llu %7llu\n",
                  s.site.c_str(),
                  static_cast<unsigned long long>(s.dma_transfers),
                  static_cast<unsigned long long>(s.dma_bytes),
                  static_cast<unsigned long long>(s.dma_inefficient),
                  static_cast<unsigned long long>(s.ls_peak),
                  static_cast<unsigned long long>(s.ls_over_budget),
                  static_cast<unsigned long long>(s.tag_hazards()));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "total: %llu transfers, %llu bytes, %llu inefficient, "
                "ls peak %llu, %llu over budget, %llu tag hazards — %s\n",
                static_cast<unsigned long long>(dma_transfers),
                static_cast<unsigned long long>(dma_bytes),
                static_cast<unsigned long long>(dma_inefficient),
                static_cast<unsigned long long>(ls_peak),
                static_cast<unsigned long long>(ls_over_budget),
                static_cast<unsigned long long>(tag_hazards()),
                clean() ? "CLEAN" : "VIOLATIONS");
  out += line;
  return out;
}

}  // namespace cj2k::cell
