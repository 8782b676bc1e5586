#include "common/executor.hpp"

#include <algorithm>
#include <utility>

namespace cj2k {

Executor::Executor(unsigned workers)
    : workers_(std::max(1u, workers)) {
  for (Worker& w : workers_) {
    w.thread = std::thread([this, &w] { worker_loop(w); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    wake(workers_.size());
  }
  for (Worker& w : workers_) w.thread.join();
}

Executor& Executor::host() {
  static Executor ex(std::max(1u, std::thread::hardware_concurrency()));
  return ex;
}

void Executor::run(std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  Batch(*this, n, fn).wait();
}

bool Executor::claim(Batch& b, std::size_t& index) {
  if (b.next_ == b.n_) return false;
  index = b.next_++;
  if (b.next_ == b.n_) {
    queue_.erase(std::find(queue_.begin(), queue_.end(), &b));
  }
  return true;
}

void Executor::execute(Batch& b, std::size_t index) {
  std::exception_ptr error;
  try {
    b.fn_(index);
  } catch (...) {
    error = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (error && !b.error_) b.error_ = std::move(error);
  // Notify under the lock: once the waiter sees the batch finished it may
  // destroy it, and this thread must not touch it after unlocking.
  if (++b.finished_ == b.n_) done_cv_.notify_all();
}

// Waking the lowest-numbered idle workers keeps work on the same few
// threads while the rest sleep.  Each thread allocates from its own malloc
// arena, and an arena keeps the memory it has grown to: handing the encode
// service's jobs to every worker in turn grew each arena to a job's working
// set and raised peak RSS by about a quarter on a 4-thread host.
void Executor::wake(std::size_t n) {
  for (std::size_t i = 0; i < workers_.size() && n > 0; ++i) {
    Worker& w = workers_[i];
    if (!w.idle) continue;
    w.idle = false;
    w.wake.notify_one();
    --n;
  }
}

void Executor::worker_loop(Worker& self) {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (queue_.empty()) {
      self.idle = true;
      self.wake.wait(lock, [&self] { return !self.idle; });
      continue;
    }
    Batch& b = *queue_.front();
    std::size_t index = 0;
    claim(b, index);
    lock.unlock();
    execute(b, index);
    lock.lock();
  }
}

Executor::Batch::Batch(Executor& ex, std::size_t n,
                       std::function<void(std::size_t)> fn)
    : ex_(ex), fn_(std::move(fn)), n_(n) {
  if (n_ == 0) return;
  std::lock_guard<std::mutex> lock(ex_.mu_);
  ex_.queue_.push_back(this);
  ex_.wake(n_ - 1);  // The caller runs at least one task when it waits.
}

Executor::Batch::~Batch() {
  try {
    wait();
  } catch (...) {
    // Reached without an explicit wait() only while another exception is
    // already leaving the caller; that one is the failure it reports.
  }
}

bool Executor::Batch::run_one() {
  std::size_t index = 0;
  {
    std::lock_guard<std::mutex> lock(ex_.mu_);
    if (!ex_.claim(*this, index)) return false;
  }
  ex_.execute(*this, index);
  return true;
}

void Executor::Batch::wait() {
  while (run_one()) {
  }
  std::unique_lock<std::mutex> lock(ex_.mu_);
  ex_.done_cv_.wait(lock, [this] { return finished_ == n_; });
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

}  // namespace cj2k
