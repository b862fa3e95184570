#include "exec/thread_pool.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "obs/obs.h"

namespace apple::exec {

namespace {

// Identifies the pool (and worker slot) the current thread belongs to, so
// submissions from inside a task land on the submitter's own deque and
// TaskGroup::wait() helps from the right slot.
struct TlsWorker {
  const ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local TlsWorker tls_worker;

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads) {
  workers_.reserve(num_threads + 1);
  for (std::size_t i = 0; i < num_threads + 1; ++i) {
    workers_.push_back(std::make_unique<Worker>());
  }
  threads_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(sleep_mu_);
    sleep_cv_.notify_all();
  }
  // Help drain whatever is still queued — shutdown under load executes
  // every task rather than dropping it.
  const std::size_t external = num_threads();
  while (try_run_one(external)) {
  }
  for (std::thread& t : threads_) t.join();
  // Tasks drained by this thread may have spawned more after the workers
  // exited; finish those too.
  while (try_run_one(external)) {
  }
  APPLE_DCHECK_EQ(pending_.load(std::memory_order_acquire), 0u);

  const Stats total = stats();
  APPLE_OBS_COUNT_N("exec.pool.tasks_executed", total.tasks_executed);
  APPLE_OBS_COUNT_N("exec.pool.steals", total.steals);
  APPLE_OBS_GAUGE_MAX("exec.pool.queue_depth_high_water",
                      total.queue_depth_high_water);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats total;
  for (const auto& w : workers_) {
    total.tasks_executed += w->executed.load(std::memory_order_relaxed);
    total.steals += w->steals.load(std::memory_order_relaxed);
    const std::lock_guard<std::mutex> lock(w->mu);
    total.queue_depth_high_water =
        std::max(total.queue_depth_high_water, w->high_water);
  }
  return total;
}

std::size_t ThreadPool::current_worker_index() const {
  return tls_worker.pool == this ? tls_worker.index : num_threads();
}

void ThreadPool::submit(Task task) {
  std::size_t target;
  if (tls_worker.pool == this) {
    target = tls_worker.index;  // own deque: LIFO locality
  } else if (num_threads() == 0) {
    target = 0;  // the injection slot is the only slot
  } else {
    target = next_victim_.fetch_add(1, std::memory_order_relaxed) %
             num_threads();
  }
  Worker& w = *workers_[target];
  {
    const std::lock_guard<std::mutex> lock(w.mu);
    w.deque.push_back(std::move(task));
    w.high_water = std::max(w.high_water, w.deque.size());
  }
  pending_.fetch_add(1, std::memory_order_release);
  {
    const std::lock_guard<std::mutex> lock(sleep_mu_);
    sleep_cv_.notify_one();
  }
}

bool ThreadPool::try_run_one(std::size_t self) {
  APPLE_DCHECK_LT(self, workers_.size());
  Task task;
  bool got = false;

  {
    Worker& own = *workers_[self];
    const std::lock_guard<std::mutex> lock(own.mu);
    if (!own.deque.empty()) {
      task = std::move(own.deque.back());
      own.deque.pop_back();
      got = true;
    }
  }
  if (!got) {
    const std::size_t slots = workers_.size();
    const std::size_t start =
        next_victim_.fetch_add(1, std::memory_order_relaxed) % slots;
    for (std::size_t i = 0; i < slots && !got; ++i) {
      const std::size_t victim = (start + i) % slots;
      if (victim == self) continue;
      Worker& w = *workers_[victim];
      const std::lock_guard<std::mutex> lock(w.mu);
      if (!w.deque.empty()) {
        task = std::move(w.deque.front());  // FIFO steal: oldest item
        w.deque.pop_front();
        got = true;
      }
    }
    if (got) {
      workers_[self]->steals.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!got) return false;

  pending_.fetch_sub(1, std::memory_order_relaxed);
  run_task(task, self);
  return true;
}

void ThreadPool::run_task(Task& task, std::size_t self) {
  std::exception_ptr error;
  try {
    const obs::ScopedContext ctx(task.ctx);
    task.fn();
  } catch (...) {
    error = std::current_exception();
  }
  workers_[self]->executed.fetch_add(1, std::memory_order_relaxed);
  APPLE_DCHECK(task.group != nullptr);
  task.group->task_finished(std::move(error));
}

void ThreadPool::worker_loop(std::size_t index) {
  tls_worker = TlsWorker{this, index};
  while (true) {
    if (try_run_one(index)) continue;
    if (stop_.load(std::memory_order_acquire)) break;
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
  }
  tls_worker = TlsWorker{};
}

TaskGroup::~TaskGroup() {
  try {
    wait();
  } catch (...) {
    // wait() is where callers retrieve task errors; an unretrieved error
    // at destruction must not terminate the process.
  }
}

void TaskGroup::run(std::function<void()> fn) {
  pending_.fetch_add(1, std::memory_order_relaxed);
  pool_->submit(
      ThreadPool::Task{std::move(fn), this, obs::current_context()});
}

void TaskGroup::wait() {
  const std::size_t self = pool_->current_worker_index();
  while (pending_.load(std::memory_order_acquire) > 0) {
    if (pool_->try_run_one(self)) continue;
    // Nothing runnable but tasks are in flight elsewhere. Sleep briefly
    // instead of blocking outright: an in-flight task may spawn work this
    // thread should help with (nested groups).
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait_for(lock, std::chrono::milliseconds(1), [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
  }
  // Load-bearing even when no error was recorded: pending_ only reaches
  // zero inside task_finished() while it holds mu_, so acquiring mu_ here
  // guarantees the last finisher has released the lock before we return
  // and the group may be destroyed.
  const std::lock_guard<std::mutex> lock(mu_);
  if (first_error_ != nullptr) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    std::rethrow_exception(error);
  }
}

void TaskGroup::task_finished(std::exception_ptr error) {
  // The decrement must only reach zero while mu_ is held: wait() takes mu_
  // before returning, so its lock acquisition serializes after this
  // unlock and the group cannot be destroyed while a finisher is still
  // between the decrement and the notify (use-after-free otherwise).
  const std::lock_guard<std::mutex> lock(mu_);
  if (error != nullptr && first_error_ == nullptr) {
    first_error_ = std::move(error);
  }
  if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    done_cv_.notify_all();
  }
}

void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t range = end - begin;
  // More chunks than lanes so stolen tails rebalance uneven item costs;
  // never more chunks than items.
  const std::size_t lanes = pool.num_threads() + 1;
  const std::size_t chunks = std::min(range, 4 * lanes);
  const std::size_t base = range / chunks;
  const std::size_t extra = range % chunks;
  TaskGroup group(pool);
  std::size_t lo = begin;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t size = base + (c < extra ? 1 : 0);
    const std::size_t hi = lo + size;
    group.run([lo, hi, &body] {
      for (std::size_t i = lo; i < hi; ++i) body(i);
    });
    lo = hi;
  }
  group.wait();
}

}  // namespace apple::exec
