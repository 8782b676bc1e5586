#include "decomp/work_queue.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cj2k::decomp {

namespace {

double finish(const Schedule& s) {
  double m = 0;
  for (double t : s.worker_time) m = std::max(m, t);
  return m;
}

/// Validates the worker list and the optional fused tail (both tail
/// vectors empty, or one cost per item and one speed per worker); true
/// when there is a tail.
bool check_tail(const std::vector<double>& item_cost,
                const std::vector<double>& worker_speed_factor,
                const std::vector<double>& tail_cost,
                const std::vector<double>& tail_speed_factor) {
  CJ2K_CHECK_MSG(!worker_speed_factor.empty(), "need at least one worker");
  if (tail_cost.empty() && tail_speed_factor.empty()) return false;
  CJ2K_CHECK_MSG(tail_cost.size() == item_cost.size(),
                 "one tail cost per item");
  CJ2K_CHECK_MSG(tail_speed_factor.size() == worker_speed_factor.size(),
                 "one tail speed per worker");
  return true;
}

Schedule empty_schedule(std::size_t items, std::size_t workers) {
  Schedule s;
  s.assignment.resize(items);
  s.item_finish.resize(items);
  s.worker_time.assign(workers, 0.0);
  return s;
}

}  // namespace

Schedule schedule_virtual(const std::vector<double>& item_cost,
                          const std::vector<double>& worker_speed_factor,
                          const std::vector<double>& tail_cost,
                          const std::vector<double>& tail_speed_factor,
                          const std::vector<double>& release_time) {
  const bool tails =
      check_tail(item_cost, worker_speed_factor, tail_cost, tail_speed_factor);
  const bool released = !release_time.empty();
  CJ2K_CHECK_MSG(!released || release_time.size() == item_cost.size(),
                 "one release time per item");
  Schedule s = empty_schedule(item_cost.size(), worker_speed_factor.size());

  // Admission order: index order, or release time with index as the
  // tiebreak (a FIFO fed as items become ready).
  std::vector<std::size_t> order(item_cost.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  if (released) {
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return release_time[a] < release_time[b];
                     });
  }

  for (const std::size_t i : order) {
    // The worker that can *start* the item earliest (a free worker still
    // waits for the release).  Without releases, equal starts mean equal
    // worker times, so this is the plain earliest-free rule.
    const auto start_on = [&](std::size_t w) {
      return released ? std::max(s.worker_time[w], release_time[i])
                      : s.worker_time[w];
    };
    std::size_t best = 0;
    double best_start = start_on(0);
    for (std::size_t w = 1; w < s.worker_time.size(); ++w) {
      const double start = start_on(w);
      if (start < best_start ||
          (start == best_start && s.worker_time[w] < s.worker_time[best])) {
        best = w;
        best_start = start;
      }
    }
    s.worker_time[best] =
        best_start + (item_cost[i] * worker_speed_factor[best] +
                      (tails ? tail_cost[i] * tail_speed_factor[best] : 0.0));
    s.assignment[i] = static_cast<int>(best);
    s.item_finish[i] = s.worker_time[best];
  }
  s.makespan = finish(s);
  return s;
}

HandoffSchedule schedule_ordered_handoff(const std::vector<double>& ready,
                                         const std::vector<double>& cost) {
  CJ2K_CHECK_MSG(ready.size() == cost.size(), "one cost per event");
  HandoffSchedule h;
  h.finish.resize(ready.size());
  double t = 0;
  for (std::size_t i = 0; i < ready.size(); ++i) {
    if (ready[i] > t) {
      h.stall += ready[i] - t;
      t = ready[i];
    }
    t += cost[i];
    h.busy += cost[i];
    h.finish[i] = t;
  }
  h.makespan = t;
  return h;
}

Schedule schedule_static(const std::vector<double>& item_cost,
                         const std::vector<double>& worker_speed_factor,
                         const std::vector<double>& tail_cost,
                         const std::vector<double>& tail_speed_factor) {
  const bool tails =
      check_tail(item_cost, worker_speed_factor, tail_cost, tail_speed_factor);
  Schedule s = empty_schedule(item_cost.size(), worker_speed_factor.size());
  for (std::size_t i = 0; i < item_cost.size(); ++i) {
    const std::size_t w = i % s.worker_time.size();
    s.worker_time[w] += item_cost[i] * worker_speed_factor[w] +
                        (tails ? tail_cost[i] * tail_speed_factor[w] : 0.0);
    s.assignment[i] = static_cast<int>(w);
    s.item_finish[i] = s.worker_time[w];
  }
  s.makespan = finish(s);
  return s;
}

PipelineSchedule schedule_pipeline(
    const std::vector<std::vector<PipelinePhase>>& items,
    std::size_t num_groups) {
  CJ2K_CHECK_MSG(num_groups > 0, "need at least one group");
  PipelineSchedule s;
  s.item_group.resize(items.size());
  s.item_finish.resize(items.size());
  std::vector<double> group_free(num_groups, 0.0);
  double serial_free = 0.0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    std::size_t g = 0;
    for (std::size_t k = 1; k < num_groups; ++k) {
      if (group_free[k] < group_free[g]) g = k;
    }
    double t = group_free[g];
    double release = t;
    for (const auto& phase : items[i]) {
      if (phase.pool > 0) {
        t += phase.pool;
        release = t;
      }
      if (phase.serial > 0) {
        // Serial slots are granted in admission order (FIFO on the PPE).
        const double start = std::max(t, serial_free);
        t = start + phase.serial;
        serial_free = t;
      }
    }
    group_free[g] = release;
    s.item_group[i] = g;
    s.item_finish[i] = t;
    s.makespan = std::max(s.makespan, t);
  }
  return s;
}

}  // namespace cj2k::decomp
