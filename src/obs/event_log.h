// Flight recorder: fixed-capacity per-thread ring buffers of small binary
// events, with causal context (epoch id / span id) so post-mortem tooling
// can reconstruct *what happened in what order* — per epoch, per solver
// node, per rule install — not just aggregate counters.
//
// Shape:
//  * `EventLog` owns one ring buffer per recording thread (registered
//    lazily on first record; rings are never freed while the log lives, so
//    a thread's tail survives the thread). Each `Event` is a few machine
//    words: interned name id, phase (instant / span begin / span end),
//    timestamp from the log's injected `Clock`, the causal epoch/span ids
//    current on the recording thread, and one free `arg` word.
//  * Names are interned once per call site: the `APPLE_OBS_EVENT*` macros
//    (obs/obs.h) cache the `EventId` in a function-local static, so the
//    steady-state cost of an event is an enabled check, one clock read and
//    one ring write under a thread-owned mutex. With
//    -DAPPLE_ENABLE_METRICS=OFF the macros compile to nothing.
//  * Causal context is thread-local. `EpochScope` allocates the next epoch
//    id and pins it for the scope; `Span` allocates a span id, emits the
//    begin/end pair, and nests (the event's `arg` on begin/end is the
//    parent span id). `exec::ThreadPool` captures `current_context()` at
//    submit time and installs it around task execution, so fork/join
//    solver work is attributed to the epoch that spawned it.
//  * `Span` is also the timing primitive: APPLE_OBS_SPAN(name) journals
//    the begin/end pair named `name` and observes the elapsed registry-
//    clock time into histogram `name + "_seconds"` — one scope, one span,
//    both sinks.
//  * Rings overwrite oldest events (the journal is the *last N* per
//    thread); per-name totals keep counting past the wrap, so
//    `export_counters()` publishes exact `obs.event.<name>` counts even
//    when the timeline is truncated.
//
// Determinism contract: with an injected clock, a serial (single-thread)
// workload records a byte-identical `journal_json()` across identical runs
// — event order, ids and timestamps all derive from program order and the
// injected clock (tests/integration/determinism_test.cc holds this).
// Multi-threaded runs are deterministic per thread, not across threads.
//
// Crash dumps: `install_flight_crash_dump()` hooks the common/check.h
// failure-observer list so an aborting APPLE_CHECK drains every ring to
// `<prefix>_<pid>.json` (default prefix "flight") before the process dies;
// `tools/apple_trace` merges such dumps into Chrome-trace JSON and a
// per-epoch latency-attribution table.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace apple::obs {

using EventId = std::uint32_t;

enum class EventPhase : std::uint8_t { kInstant = 0, kBegin = 1, kEnd = 2 };

// One recorded event. Kept small (and trivially copyable) so a ring slot
// write is a handful of stores.
struct Event {
  double t = 0.0;            // seconds on the log's injected clock
  std::uint64_t arg = 0;     // free payload; parent span id for begin/end
  std::uint64_t epoch = 0;   // causal epoch id, 0 = outside any epoch
  std::uint64_t span = 0;    // causal span id, 0 = outside any span
  EventId id = 0;            // index into EventLog's interned name table
  EventPhase phase = EventPhase::kInstant;
};

// Causal context carried by the recording thread and propagated across
// exec::ThreadPool task boundaries.
struct CausalContext {
  std::uint64_t epoch = 0;
  std::uint64_t span = 0;
};

// The context the calling thread currently records under.
CausalContext current_context();
// Overwrites the calling thread's context (used by the exec pool to install
// the submitter's context around a task). Returns the previous context so
// callers can restore it.
CausalContext exchange_context(CausalContext ctx);

// RAII context install/restore — what ThreadPool::run_task wraps task
// bodies in.
class ScopedContext {
 public:
  explicit ScopedContext(CausalContext ctx) : saved_(exchange_context(ctx)) {}
  ~ScopedContext() { exchange_context(saved_); }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  CausalContext saved_;
};

class EventLog {
 public:
  static constexpr std::size_t kDefaultCapacityPerThread = 8192;

  explicit EventLog(std::size_t capacity_per_thread = kDefaultCapacityPerThread);
  ~EventLog();
  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  // Runtime switch (recording defaults to on; the compile-time kill switch
  // is -DAPPLE_ENABLE_METRICS=OFF). Disabling drops events but keeps the
  // interned name table and existing rings.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Injected time source; defaults to steady_clock_seconds. Tests inject a
  // constant so recorded timestamps are deterministic.
  void set_clock(Clock clock);

  // Find-or-create the id for `name`. Names follow the instrument scheme
  // (lowercase [a-z0-9_.] with at least one dot) and must be string
  // literals at macro call sites so the id can be cached in a static.
  EventId intern(std::string_view name);
  // Name table snapshot; index == EventId.
  std::vector<std::string> names() const;

  // Records one event on the calling thread's ring (registering the ring
  // on first use). No-op when disabled. `id` must come from intern().
  void record(EventId id, EventPhase phase, std::uint64_t arg);

  // Monotonic id allocators backing EpochScope / Span. Ids start at 1
  // (0 means "none") and restart after reset().
  std::uint64_t next_epoch_id() {
    return epoch_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::uint64_t next_span_id() {
    return span_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  struct Stats {
    std::uint64_t recorded = 0;  // attempted events (past any ring wrap)
    std::uint64_t dropped = 0;   // overwritten by the ring
    std::size_t threads = 0;     // rings registered
  };
  Stats stats() const;

  // The deterministic journal: interned names plus every thread's retained
  // events in recording order, threads in registration order.
  //   {"journal": {"capacity": C, "names": [...],
  //    "threads": [{"ordinal": 0, "recorded": N, "dropped": D,
  //                 "events": [[id, phase, t, epoch, span, arg], ...]}]}}
  std::string journal_json() const;
  // Writes journal_json() to `path`; returns false on I/O failure.
  bool write_json(const std::string& path) const;

  // Publishes per-name attempt totals (exact even after ring wrap) as
  // `obs.event.<name>` counters in `registry`. Counters are set to the
  // current total (not accumulated), so repeated exports stay idempotent.
  void export_counters(MetricsRegistry& registry) const;

  // Clears every ring, the per-name totals and the epoch/span counters —
  // rings and the interned name table stay allocated, so cached EventIds
  // and registered threads remain valid. Used between determinism runs.
  void reset();

 private:
  struct ThreadLog;

  ThreadLog& thread_log();

  const std::size_t capacity_;
  const std::uint64_t generation_;  // invalidates thread-local ring caches
  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> epoch_counter_{0};
  std::atomic<std::uint64_t> span_counter_{0};

  mutable std::mutex mu_;  // guards names_/name_ids_/threads_ registration
  std::vector<std::string> names_;
  std::map<std::string, EventId, std::less<>> name_ids_;
  std::vector<std::unique_ptr<ThreadLog>> threads_;
  Clock clock_;
};

// Process-wide log the APPLE_OBS_EVENT* macros write to.
EventLog& default_event_log();

// RAII epoch scope: allocates the next epoch id from `log` and pins it as
// the calling thread's causal epoch for the scope's lifetime. When the log
// is disabled the context is left untouched (no id is consumed, keeping id
// streams deterministic across recording-off runs).
class EpochScope {
 public:
  explicit EpochScope(EventLog& log);
  ~EpochScope();
  EpochScope(const EpochScope&) = delete;
  EpochScope& operator=(const EpochScope&) = delete;

  std::uint64_t epoch_id() const { return epoch_; }

 private:
  std::uint64_t epoch_ = 0;
  CausalContext saved_;
  bool active_ = false;
};

// RAII span — what APPLE_OBS_SPAN opens. While `log` is enabled at
// construction it emits a begin/end event pair carrying a fresh span id and
// nests via the thread-local context (the pair's `arg` is the parent span
// id); a disabled log records nothing and consumes no id. Either way the
// elapsed time on `registry`'s clock is observed into `histogram` when the
// span closes. Each sink reads its own injected clock: the journal the
// log's, the histogram the registry's.
class Span {
 public:
  Span(MetricsRegistry& registry, Histogram& histogram, EventLog& log,
       EventId id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  MetricsRegistry* registry_;
  Histogram* histogram_;
  EventLog* log_;
  EventId id_;
  double start_ = 0.0;
  CausalContext saved_;
  bool active_ = false;
};

// Crash dumps: registers (once) a common/check.h failure observer that
// writes default_event_log()'s journal to `<prefix>_<pid>.json` when an
// APPLE_CHECK aborts the process. The prefix defaults to "flight" and may
// be retargeted at any time with set_flight_dump_prefix (tests point it at
// a distinctive name and glob for it after the death).
void install_flight_crash_dump();
void set_flight_dump_prefix(std::string prefix);
std::string flight_dump_prefix();
// The path the next crash dump would use (prefix + "_" + pid + ".json").
std::string flight_dump_path();

}  // namespace apple::obs
