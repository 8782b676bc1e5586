// Work distribution for Tier-1 encoding (paper §3.2): code blocks have
// content-dependent cost, so static distribution load-imbalances; a shared
// work queue keeps every processing element busy.
//
// Two faces:
//  * WorkQueue — a lock-free index dispenser the host executor's tasks pull
//    from while doing the actual work (Tier-1 blocks, encode-service jobs);
//  * schedule_virtual — a deterministic virtual-time replay that assigns
//    each item (with a known simulated cost) to the worker that frees up
//    first, which is exactly what a work queue achieves on hardware.  The
//    result feeds the performance model and the load-balancing ablation.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cj2k::decomp {

/// Lock-free index dispenser over [0, size).
class WorkQueue {
 public:
  explicit WorkQueue(std::size_t size) : size_(size) {}

  /// Pops the next work index; returns false when the queue is drained.
  bool pop(std::size_t& index) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= size_) return false;
    index = i;
    return true;
  }

  std::size_t size() const { return size_; }

 private:
  std::atomic<std::size_t> next_{0};
  std::size_t size_;
};

/// Result of a virtual-time schedule.
struct Schedule {
  std::vector<int> assignment;        ///< Worker index per item.
  std::vector<double> worker_time;    ///< Final virtual time per worker.
  std::vector<double> item_finish;    ///< Virtual finish time per item.
  double makespan = 0;                ///< max(worker_time).
};

/// Greedy earliest-free-worker assignment, the virtual-time face of a FIFO
/// work queue: each item goes to the worker that can start it earliest
/// (among equal starts the smallest worker_time, then the lowest index).
/// Worker w spends
///   item_cost[i]*worker_speed_factor[w] + tail_cost[i]*tail_speed_factor[w]
/// on item i, starting at its start time.  Two optional parts, each left
/// empty when unused:
///  * a per-item *tail* (`tail_cost`, `tail_speed_factor`, one speed per
///    worker) fused onto the same worker right after the main job — the
///    R-D hull build that follows a block's Tier-1 coding, branchy scalar
///    code with its own per-worker speed;
///  * a per-item `release_time` before which the item cannot start — the
///    overlapped λ scan releasing each precinct's sizing job once the
///    greedy prefix covering its blocks is decided.  Items are then
///    admitted in release order (index breaks ties, a FIFO fed as items
///    become ready), and a free worker still waits for the release.
/// Without releases, items are taken in index order.
Schedule schedule_virtual(const std::vector<double>& item_cost,
                          const std::vector<double>& worker_speed_factor,
                          const std::vector<double>& tail_cost = {},
                          const std::vector<double>& tail_speed_factor = {},
                          const std::vector<double>& release_time = {});

/// Static round-robin assignment (the ablation baseline: "merely
/// distributing an identical number of code blocks"), with the same
/// optional fused tail as schedule_virtual.
Schedule schedule_static(const std::vector<double>& item_cost,
                         const std::vector<double>& worker_speed_factor,
                         const std::vector<double>& tail_cost = {},
                         const std::vector<double>& tail_speed_factor = {});

/// Result of an ordered-completion hand-off replay.
struct HandoffSchedule {
  std::vector<double> finish;  ///< Consumer finish time per event, in order.
  double makespan = 0;         ///< finish.back() (0 when empty).
  double busy = 0;             ///< Serial work performed (sum of costs).
  double stall = 0;            ///< Time the consumer idled waiting on events.
};

/// Replays a serial consumer that processes events in the given order
/// (the streaming Tier-2 stitch appending packets in progression order):
/// event i becomes available at `ready[i]` virtual seconds and costs
/// `cost[i]` on the consumer.  The consumer never reorders: an unready
/// event stalls it even when later events are already available.
HandoffSchedule schedule_ordered_handoff(const std::vector<double>& ready,
                                         const std::vector<double>& cost);

/// One stage of an item in the tile pipeline: `pool` seconds on the item's
/// SPE group, then `serial` seconds on the shared serial resource (the PPE
/// doing Tier-2 stitching).  Either part may be zero.
struct PipelinePhase {
  double pool = 0;
  double serial = 0;
};

/// Result of a deterministic pipeline replay.
struct PipelineSchedule {
  std::vector<std::size_t> item_group;  ///< Group index per item.
  std::vector<double> item_finish;      ///< Virtual finish time per item.
  double makespan = 0;
};

/// Replays a tile pipeline in virtual time: items (tiles) are admitted in
/// order to the earliest-free group (lowest index breaks ties); each phase
/// occupies the group for its `pool` part, then queues FIFO for the single
/// shared serial resource for its `serial` part.  A group is released after
/// the item's *last pool phase* — a trailing serial-only phase does not
/// hold the group, which is exactly how a later tile's SPE work hides an
/// earlier tile's PPE Tier-2 slot.
PipelineSchedule schedule_pipeline(
    const std::vector<std::vector<PipelinePhase>>& items,
    std::size_t num_groups);

}  // namespace cj2k::decomp
