// The host executor (DESIGN.md §14): fork-join batches, the caller-helps
// rule that keeps nested batches deadlock-free, error propagation, and the
// audit provenance SPE kernel tasks inherit from their caller.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "cell/audit.hpp"
#include "cell/machine.hpp"
#include "common/aligned_buffer.hpp"
#include "common/error.hpp"
#include "common/executor.hpp"

namespace cj2k {
namespace {

TEST(Executor, RunsEveryTaskExactlyOnce) {
  Executor ex(3);
  std::vector<std::atomic<int>> hits(1000);
  ex.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  ex.run(0, [](std::size_t) { FAIL() << "empty batch ran a task"; });
}

TEST(Executor, NestedForkJoinCompletesOnOneWorker) {
  // service job -> encode -> run_data_parallel, three levels deep, on a
  // single worker: only the caller-helps rule lets this finish.
  Executor ex(1);
  std::atomic<int> leaves{0};
  ex.run(4, [&](std::size_t) {
    ex.run(4, [&](std::size_t) {
      ex.run(3, [&](std::size_t) { ++leaves; });
    });
  });
  EXPECT_EQ(leaves.load(), 48);
}

TEST(Executor, CallerRunsItsOwnBatchWhileWorkersAreBusy) {
  // The only worker is parked inside another batch; a second batch still
  // completes, every task run by its waiting caller.  (A two-task batch
  // wakes one worker, which claims task 0.)
  Executor ex(1);
  std::promise<void> release;
  std::promise<void> parked;
  std::shared_future<void> go = release.get_future().share();
  Executor::Batch blocker(ex, 2, [&](std::size_t i) {
    if (i != 0) return;
    parked.set_value();
    go.wait();
  });
  parked.get_future().wait();
  std::vector<std::thread::id> ran_on(5);
  Executor::Batch mine(ex, ran_on.size(), [&](std::size_t i) {
    ran_on[i] = std::this_thread::get_id();
  });
  EXPECT_TRUE(mine.run_one());
  mine.wait();
  EXPECT_FALSE(mine.run_one());
  for (const auto& id : ran_on) EXPECT_EQ(id, std::this_thread::get_id());
  release.set_value();
  blocker.wait();
}

TEST(Executor, FirstExceptionIsRethrownAndExecutorStaysUsable) {
  Executor ex(2);
  std::atomic<int> ran{0};
  EXPECT_THROW(ex.run(8,
                      [&](std::size_t i) {
                        if (i == 3) throw InvalidArgument("task 3 failed");
                        ++ran;
                      }),
               InvalidArgument);
  EXPECT_EQ(ran.load(), 7) << "the other tasks still run to completion";
  ran = 0;
  ex.run(16, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 16);
}

TEST(Executor, HostExecutorHasOneWorkerPerHardwareThread) {
  EXPECT_EQ(Executor::host().workers(),
            std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(&Executor::host(), &Executor::host());
}

TEST(Executor, SpeTasksCarryTheCallersJobAndTileProvenance) {
  cell::MachineConfig cfg;
  cfg.num_spes = 6;
  cell::Machine m(cfg);
  cell::InvariantAudit audit(cell::AuditConfig{.enabled = true});
  m.attach_audit(&audit);
  AlignedBuffer<std::int32_t> main_buf(32);
  {
    cell::AuditJobScope job(7);
    cell::AuditTileScope tile(2);
    m.run_data_parallel("probe", [&](int, cell::SpeContext& ctx) {
      auto* lsb = ctx.ls.alloc<std::int32_t>(32);
      ctx.dma.get(lsb, main_buf.data(), 128);
    });
  }
  const cell::AuditReport r = audit.report();
  ASSERT_EQ(r.sites.size(), 1u) << r.summary();
  EXPECT_EQ(r.sites[0].site, "job7/tile2/probe");
  EXPECT_EQ(r.sites[0].dma_transfers, 6u);
}

}  // namespace
}  // namespace cj2k
