// The one host executor (DESIGN.md §14): a fixed set of persistent worker
// threads that every host-parallel site submits fork-join batches to —
// SPE kernels in cell::Machine::run_data_parallel, the Tier-1 worker slots,
// the precinct-parallel Tier-2 coder and the encode service's job workers.
// No site spawns threads of its own.
//
// Caller-helps rule: a thread waiting on a batch first runs that batch's
// unclaimed tasks itself, and only then blocks on tasks other threads have
// claimed.  A task therefore never waits on a task nobody is running, so
// nested fork-join (service job -> encode -> run_data_parallel) completes
// even on a one-worker executor, provided tasks of one batch do not wait on
// each other.  Since the caller always runs a task, a new batch wakes one
// idle worker fewer than it has tasks, lowest-numbered first.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace cj2k {

class Executor {
 public:
  /// Starts `workers` (at least one) persistent worker threads.
  explicit Executor(unsigned workers);
  /// Joins the workers; every batch must have finished.
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide executor, one worker per hardware thread.
  static Executor& host();

  unsigned workers() const { return static_cast<unsigned>(workers_.size()); }

  /// A fork-join batch of tasks fn(0) .. fn(n-1), queued on construction
  /// and claimed in index order by workers and by the waiting caller.  A
  /// task no worker is free for starts when the caller waits.
  class Batch {
   public:
    Batch(Executor& ex, std::size_t n, std::function<void(std::size_t)> fn);
    /// Helps and waits like wait(), but swallows task exceptions: without
    /// an explicit wait() the destructor runs only while the caller's own
    /// exception unwinds, and that exception is the one reported.
    ~Batch();
    Batch(const Batch&) = delete;
    Batch& operator=(const Batch&) = delete;

    /// Claims one unclaimed task and runs it on the calling thread; false
    /// when every task is already claimed.
    bool run_one();

    /// Runs unclaimed tasks on the calling thread, then blocks until every
    /// task has finished; rethrows the first task exception (once).
    void wait();

   private:
    friend class Executor;

    Executor& ex_;
    std::function<void(std::size_t)> fn_;
    std::size_t n_;
    // Guarded by ex_.mu_.
    std::size_t next_ = 0;
    std::size_t finished_ = 0;
    std::exception_ptr error_;
  };

  /// Runs fn(0) .. fn(n-1) as one batch and waits for it.
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  struct Worker {
    std::condition_variable wake;
    bool idle = false;  ///< Asleep until a waker clears it (mu_ guards).
    std::thread thread;
  };

  /// Claims the next task of `b` (mu_ held); false when none is left.
  bool claim(Batch& b, std::size_t& index);
  /// Runs a claimed task and records its completion.
  void execute(Batch& b, std::size_t index);
  /// Wakes up to `n` idle workers, lowest index first (mu_ held).
  void wake(std::size_t n);
  void worker_loop(Worker& self);

  std::mutex mu_;
  std::condition_variable done_cv_;  ///< Some batch finished its last task.
  std::deque<Batch*> queue_;         ///< Batches with unclaimed tasks, FIFO.
  bool stop_ = false;
  std::vector<Worker> workers_;
};

}  // namespace cj2k
