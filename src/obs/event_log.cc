#include "obs/event_log.h"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <thread>
#include <utility>

#include "common/check.h"
#include "obs/json.h"

namespace apple::obs {

namespace {

thread_local CausalContext t_context;

// Thread-local pointer into a specific EventLog's ring. Each EventLog gets
// a process-unique generation id at construction; a cache hit requires both
// the owner pointer and the generation to match, so a log destroyed and
// another constructed at the same address can never satisfy a stale cache.
struct ThreadLogCache {
  const void* owner = nullptr;
  std::uint64_t generation = 0;
  void* log = nullptr;
};

thread_local ThreadLogCache t_ring_cache;

std::uint64_t next_generation() {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

CausalContext current_context() { return t_context; }

CausalContext exchange_context(CausalContext ctx) {
  const CausalContext prev = t_context;
  t_context = ctx;
  return prev;
}

// Per-thread ring. The owning thread writes under `mu`; exporters read
// under the same mutex, so crash dumps racing live recorders stay defined.
// Each ring carries its own copy of the log's clock: the recording hot path
// then touches exactly one (thread-owned, uncontended) mutex per event
// instead of funneling every thread through the log's registration lock.
struct EventLog::ThreadLog {
  ThreadLog(std::size_t capacity, Clock c) : clock(std::move(c)) {
    ring.resize(capacity);
  }

  mutable std::mutex mu;
  const std::thread::id owner = std::this_thread::get_id();
  Clock clock;
  std::vector<Event> ring;
  std::size_t head = 0;           // next slot to write
  std::uint64_t recorded = 0;     // attempted events, never decremented
  std::vector<std::uint64_t> counts;  // per-EventId attempt totals
};

EventLog::EventLog(std::size_t capacity_per_thread)
    : capacity_(capacity_per_thread == 0 ? 1 : capacity_per_thread),
      generation_(next_generation()),
      clock_(&steady_clock_seconds) {}

EventLog::~EventLog() = default;

void EventLog::set_clock(Clock clock) {
  APPLE_CHECK(clock != nullptr);
  const std::lock_guard<std::mutex> lock(mu_);
  clock_ = clock;
  // Already-registered rings keep recording, so retarget their copies too.
  for (const auto& t : threads_) {
    const std::lock_guard<std::mutex> tlock(t->mu);
    t->clock = clock;
  }
}

EventId EventLog::intern(std::string_view name) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = name_ids_.find(name);
  if (it != name_ids_.end()) return it->second;
  APPLE_CHECK(valid_instrument_name(name));
  const EventId id = static_cast<EventId>(names_.size());
  names_.emplace_back(name);
  name_ids_.emplace(std::string(name), id);
  return id;
}

std::vector<std::string> EventLog::names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return names_;
}

EventLog::ThreadLog& EventLog::thread_log() {
  if (t_ring_cache.owner == this && t_ring_cache.generation == generation_) {
    return *static_cast<ThreadLog*>(t_ring_cache.log);
  }
  const std::lock_guard<std::mutex> lock(mu_);
  // The cache only remembers this thread's most recent log, so a thread
  // alternating between logs misses here even though it already has a ring
  // in this one — find it rather than registering a duplicate.
  for (const auto& t : threads_) {
    if (t->owner == std::this_thread::get_id()) {
      t_ring_cache = {this, generation_, t.get()};
      return *t;
    }
  }
  threads_.push_back(std::make_unique<ThreadLog>(capacity_, clock_));
  ThreadLog& log = *threads_.back();
  t_ring_cache = {this, generation_, &log};
  return log;
}

void EventLog::record(EventId id, EventPhase phase, std::uint64_t arg) {
  if (!enabled()) return;
  ThreadLog& log = thread_log();
  const std::lock_guard<std::mutex> lock(log.mu);
  Event& slot = log.ring[log.head];
  slot.t = log.clock();
  slot.arg = arg;
  slot.epoch = t_context.epoch;
  slot.span = t_context.span;
  slot.id = id;
  slot.phase = phase;
  log.head = (log.head + 1) % log.ring.size();
  ++log.recorded;
  if (log.counts.size() <= id) log.counts.resize(id + 1, 0);
  ++log.counts[id];
}

EventLog::Stats EventLog::stats() const {
  Stats s;
  const std::lock_guard<std::mutex> lock(mu_);
  s.threads = threads_.size();
  for (const auto& t : threads_) {
    const std::lock_guard<std::mutex> tlock(t->mu);
    s.recorded += t->recorded;
    const std::uint64_t retained =
        t->recorded < t->ring.size() ? t->recorded : t->ring.size();
    s.dropped += t->recorded - retained;
  }
  return s;
}

std::string EventLog::journal_json() const {
  json::Writer w;
  const std::lock_guard<std::mutex> lock(mu_);
  w.begin_object();
  w.key("journal");
  w.begin_object();
  w.key("capacity");
  w.value(static_cast<std::uint64_t>(capacity_));
  w.key("names");
  w.begin_array();
  for (const std::string& name : names_) w.value(name);
  w.end_array();
  w.key("threads");
  w.begin_array();
  for (std::size_t ordinal = 0; ordinal < threads_.size(); ++ordinal) {
    const ThreadLog& t = *threads_[ordinal];
    const std::lock_guard<std::mutex> tlock(t.mu);
    const std::size_t retained =
        t.recorded < t.ring.size() ? static_cast<std::size_t>(t.recorded)
                                   : t.ring.size();
    w.begin_object();
    w.key("ordinal");
    w.value(static_cast<std::uint64_t>(ordinal));
    w.key("recorded");
    w.value(t.recorded);
    w.key("dropped");
    w.value(t.recorded - retained);
    w.key("events");
    w.begin_array();
    // Oldest retained event first: the ring wraps at `head`.
    const std::size_t start =
        t.recorded < t.ring.size() ? 0 : t.head;
    for (std::size_t i = 0; i < retained; ++i) {
      const Event& e = t.ring[(start + i) % t.ring.size()];
      w.begin_array();
      w.value(static_cast<std::uint64_t>(e.id));
      w.value(static_cast<std::uint64_t>(e.phase));
      w.value(e.t);
      w.value(e.epoch);
      w.value(e.span);
      w.value(e.arg);
      w.end_array();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();
  return w.take();
}

bool EventLog::write_json(const std::string& path) const {
  const std::string doc = journal_json();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << doc << '\n';
  return out.good();
}

void EventLog::export_counters(MetricsRegistry& registry) const {
  std::vector<std::string> names;
  std::vector<std::uint64_t> totals;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    names = names_;
    totals.assign(names.size(), 0);
    for (const auto& t : threads_) {
      const std::lock_guard<std::mutex> tlock(t->mu);
      for (std::size_t id = 0; id < t->counts.size(); ++id) {
        totals[id] += t->counts[id];
      }
    }
  }
  for (std::size_t id = 0; id < names.size(); ++id) {
    Counter& c = registry.counter("obs.event." + names[id]);
    // Set-to-total rather than accumulate so re-exporting stays idempotent.
    c.reset();
    c.add(totals[id]);
  }
}

void EventLog::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& t : threads_) {
    const std::lock_guard<std::mutex> tlock(t->mu);
    t->head = 0;
    t->recorded = 0;
    t->counts.assign(t->counts.size(), 0);
  }
  epoch_counter_.store(0, std::memory_order_relaxed);
  span_counter_.store(0, std::memory_order_relaxed);
}

EventLog& default_event_log() {
  static EventLog log;
  return log;
}

// --- RAII scopes -------------------------------------------------------------

EpochScope::EpochScope(EventLog& log) {
  if (!log.enabled()) return;
  active_ = true;
  epoch_ = log.next_epoch_id();
  saved_ = exchange_context({epoch_, 0});
}

EpochScope::~EpochScope() {
  if (active_) exchange_context(saved_);
}

Span::Span(MetricsRegistry& registry, Histogram& histogram, EventLog& log,
           EventId id)
    : registry_(&registry), histogram_(&histogram), log_(&log), id_(id) {
  if (log.enabled()) {
    active_ = true;
    const CausalContext parent = current_context();
    saved_ = exchange_context({parent.epoch, log.next_span_id()});
    log.record(id, EventPhase::kBegin, parent.span);
  }
  start_ = registry.clock_now();
}

Span::~Span() {
  const double elapsed = registry_->clock_now() - start_;
  if (active_) {
    // End is recorded under the span's own context so begin/end pair on the
    // (epoch, span) key even when nested spans ran in between.
    log_->record(id_, EventPhase::kEnd, saved_.span);
    exchange_context(saved_);
  }
  histogram_->observe(elapsed);
}

// --- Crash dumps -------------------------------------------------------------

namespace {

std::mutex g_prefix_mu;
std::string& prefix_storage() {
  static std::string prefix = "flight";
  return prefix;
}

void flight_crash_observer() {
  const std::string path = flight_dump_path();
  if (default_event_log().write_json(path)) {
    std::fprintf(stderr, "flight recorder: wrote %s\n", path.c_str());
    std::fflush(stderr);
  }
}

}  // namespace

void set_flight_dump_prefix(std::string prefix) {
  const std::lock_guard<std::mutex> lock(g_prefix_mu);
  prefix_storage() = std::move(prefix);
}

std::string flight_dump_prefix() {
  const std::lock_guard<std::mutex> lock(g_prefix_mu);
  return prefix_storage();
}

std::string flight_dump_path() {
  return flight_dump_prefix() + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".json";
}

void install_flight_crash_dump() {
  common::add_check_failure_observer(&flight_crash_observer);
}

}  // namespace apple::obs
