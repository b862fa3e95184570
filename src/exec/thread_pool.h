// Work-stealing execution pool — the parallel substrate for the
// branch-and-bound rounds (lp/mip.cc), the class-store build
// (traffic/class_store.cc) and the multi-domain fan-out (ctrl/). Sits
// directly above common/obs in the layering DAG (DESIGN.md Sec. 6) so any
// module may parallelize without new edges.
//
// Shape:
//  * `ThreadPool(n)` spawns exactly n worker threads, each owning a deque.
//    Owners push/pop at the back (LIFO: cache-warm subtasks first); idle
//    workers steal from the front of a victim's deque (FIFO: the oldest,
//    typically largest, work item). n == 0 is valid: every task then runs
//    inside `TaskGroup::wait()` on the calling thread — the zero-thread
//    pool is how serial configurations reuse the same code path.
//  * `TaskGroup` tracks a batch of tasks. `wait()` is work-helping: the
//    caller executes queued tasks (its group's or any other's) instead of
//    blocking, which is what makes nested groups — a pool task that itself
//    fans out and waits — deadlock-free. The first exception thrown by a
//    task is captured and rethrown from `wait()`; remaining tasks still
//    run (a half-executed batch would leave the group counter dangling).
//  * `parallel_for(pool, begin, end, body)` fans a half-open index range
//    out as chunked tasks and waits; the calling thread participates.
//
// Shutdown is deterministic: the destructor wakes every worker, each
// worker drains until no runnable task remains anywhere, and join happens
// only after that — every submitted task executes exactly once, even when
// the pool is destroyed with work still queued ("shutdown under load").
// Submitting from outside the pool concurrently with destruction is a
// contract violation; tasks spawning tasks during the drain is fine.
//
// Instrumentation (flushed to obs on destruction, aggregated across
// workers): `exec.pool.tasks_executed`, `exec.pool.steals`, and the
// per-deque high-water mark `exec.pool.queue_depth_high_water`.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/event_log.h"

namespace apple::exec {

class TaskGroup;

class ThreadPool {
 public:
  // Spawns `num_threads` workers (0 is valid — see header comment).
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t num_threads() const { return threads_.size(); }

  // Aggregated pool statistics (also exported to obs on destruction).
  struct Stats {
    std::uint64_t tasks_executed = 0;
    std::uint64_t steals = 0;
    std::size_t queue_depth_high_water = 0;
  };
  Stats stats() const;

  // Index of the worker the calling thread runs as, or `num_threads()`
  // when called from a thread outside this pool (e.g. the owner helping
  // in TaskGroup::wait()).
  std::size_t current_worker_index() const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
    // Flight-recorder causal context captured at submit time and installed
    // around fn(), so events recorded inside a stolen task attribute to
    // the epoch/span that spawned it rather than the executing worker's.
    obs::CausalContext ctx;
  };

  struct Worker {
    std::deque<Task> deque;       // guarded by mu
    std::mutex mu;
    std::size_t high_water = 0;   // guarded by mu
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> steals{0};
  };

  void submit(Task task);
  // Runs one task if any is runnable (own deque back first, then steals
  // front-of-deque round-robin). `self` == workers_.size() for external
  // threads. Returns false when every deque was empty.
  bool try_run_one(std::size_t self);
  void run_task(Task& task, std::size_t self);
  void worker_loop(std::size_t index);

  // workers_ holds num_threads() + 1 slots: one per worker thread plus a
  // trailing slot owned by external threads. External submissions are
  // distributed round-robin across the worker deques (the trailing slot
  // only receives them when num_threads() == 0); the slot exists so
  // external threads have a deque to run/help from (TaskGroup::wait and
  // the destructor drain).
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::size_t> next_victim_{0};  // submit/steal rotation
  std::atomic<bool> stop_{false};
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
};

// A batch of tasks submitted to one pool. Not thread-safe itself: one
// logical owner runs run()/wait(); the tasks may of course run anywhere.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(&pool) {}
  // Waits for stragglers so a task can never outlive its group, then
  // swallows any unretrieved exception (wait() is where errors surface).
  ~TaskGroup();
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  // Schedules `fn` on the pool. May be called from inside another task
  // (nested fan-out).
  void run(std::function<void()> fn);

  // Runs queued tasks on the calling thread until every task of this
  // group has finished, then rethrows the first exception a task threw
  // (if any). Reusable: run() may be called again after wait() returns.
  void wait();

 private:
  friend class ThreadPool;
  void task_finished(std::exception_ptr error);

  ThreadPool* pool_;
  std::atomic<std::size_t> pending_{0};
  std::mutex mu_;
  std::condition_variable done_cv_;
  std::exception_ptr first_error_;
};

// Applies `body` to every index in [begin, end), fanned out over the pool
// in contiguous chunks; the calling thread participates. Rethrows the
// first exception a body invocation threw (remaining chunks still run).
void parallel_for(ThreadPool& pool, std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

}  // namespace apple::exec
