// Flight-recorder semantics (DESIGN.md Sec. 13): interning, ring wrap,
// causal context (EpochScope / Span nesting, propagation across
// exec::ThreadPool), exact counters past the wrap, journal determinism,
// reset, the runtime enable switch and the crash-dump path helpers, plus
// the Span's two sinks (journal and duration histogram). The concurrent
// cases double as the tsan workload for the per-thread rings.
#include "obs/event_log.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "exec/thread_pool.h"
#include "obs/json.h"
#include "obs/metrics.h"

namespace apple::obs {
namespace {

// Pulls every retained event out of journal_json() via the json parser so
// assertions read the same representation apple_trace consumes.
struct ParsedEvent {
  EventId id;
  EventPhase phase;
  double t;
  std::uint64_t epoch;
  std::uint64_t span;
  std::uint64_t arg;
};

std::vector<std::vector<ParsedEvent>> parse_threads(const EventLog& log) {
  const auto doc = json::parse(log.journal_json());
  EXPECT_TRUE(doc.has_value());
  std::vector<std::vector<ParsedEvent>> threads;
  const json::Value* journal = doc->find("journal");
  EXPECT_NE(journal, nullptr);
  const json::Value* arr = journal->find("threads");
  EXPECT_NE(arr, nullptr);
  for (const json::Value& th : arr->items) {
    std::vector<ParsedEvent> events;
    const json::Value* evs = th.find("events");
    EXPECT_NE(evs, nullptr);
    for (const json::Value& e : evs->items) {
      EXPECT_EQ(e.items.size(), 6u);
      events.push_back(
          {static_cast<EventId>(e.items[0].number),
           static_cast<EventPhase>(static_cast<int>(e.items[1].number)),
           e.items[2].number, static_cast<std::uint64_t>(e.items[3].number),
           static_cast<std::uint64_t>(e.items[4].number),
           static_cast<std::uint64_t>(e.items[5].number)});
    }
    threads.push_back(std::move(events));
  }
  return threads;
}

// A Span on `log` timing into a throwaway histogram, for the cases that
// only look at the journal side.
Span open_span(EventLog& log, EventId id) {
  static MetricsRegistry registry;
  return Span(registry, registry.histogram("obs.test.span_seconds"), log, id);
}

TEST(EventLog, InternDedupesAndNamesIndexById) {
  EventLog log(16);
  const EventId a = log.intern("core.pipeline.epoch");
  const EventId b = log.intern("lp.mip.solve");
  EXPECT_NE(a, b);
  EXPECT_EQ(log.intern("core.pipeline.epoch"), a);
  const std::vector<std::string> names = log.names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[a], "core.pipeline.epoch");
  EXPECT_EQ(names[b], "lp.mip.solve");
}

TEST(EventLog, RecordsUnderInjectedClockWithContext) {
  EventLog log(16);
  double t = 1.0;
  log.set_clock([&t] { return t; });
  const EventId id = log.intern("fault.inject");
  log.record(id, EventPhase::kInstant, 7);
  t = 2.5;
  log.record(id, EventPhase::kInstant, 9);

  const auto threads = parse_threads(log);
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].size(), 2u);
  EXPECT_EQ(threads[0][0].id, id);
  EXPECT_DOUBLE_EQ(threads[0][0].t, 1.0);
  EXPECT_EQ(threads[0][0].arg, 7u);
  EXPECT_EQ(threads[0][0].epoch, 0u);  // outside any EpochScope
  EXPECT_DOUBLE_EQ(threads[0][1].t, 2.5);
  EXPECT_EQ(threads[0][1].arg, 9u);

  const EventLog::Stats stats = log.stats();
  EXPECT_EQ(stats.recorded, 2u);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_EQ(stats.threads, 1u);
}

TEST(EventLog, RingKeepsLastNAndCountsDrops) {
  EventLog log(4);
  log.set_clock([] { return 0.0; });
  const EventId id = log.intern("dataplane.rules.install");
  for (std::uint64_t i = 0; i < 10; ++i) {
    log.record(id, EventPhase::kInstant, i);
  }
  const EventLog::Stats stats = log.stats();
  EXPECT_EQ(stats.recorded, 10u);
  EXPECT_EQ(stats.dropped, 6u);

  // The journal retains exactly the last 4, oldest first.
  const auto threads = parse_threads(log);
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(threads[0][i].arg, 6u + i);
  }
}

TEST(EventLog, SpansNestAndCarryParentIds) {
  EventLog log(32);
  log.set_clock([] { return 0.0; });
  const EventId outer = log.intern("core.pipeline.epoch");
  const EventId inner = log.intern("core.pipeline.stage.place");
  {
    EpochScope epoch(log);
    EXPECT_EQ(epoch.epoch_id(), 1u);
    const Span a = open_span(log, outer);
    { const Span b = open_span(log, inner); }
  }

  const auto threads = parse_threads(log);
  ASSERT_EQ(threads.size(), 1u);
  const auto& evs = threads[0];
  // begin(outer), begin(inner), end(inner), end(outer).
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs[0].id, outer);
  EXPECT_EQ(evs[0].phase, EventPhase::kBegin);
  EXPECT_EQ(evs[1].id, inner);
  EXPECT_EQ(evs[1].phase, EventPhase::kBegin);
  EXPECT_EQ(evs[2].id, inner);
  EXPECT_EQ(evs[2].phase, EventPhase::kEnd);
  EXPECT_EQ(evs[3].id, outer);
  EXPECT_EQ(evs[3].phase, EventPhase::kEnd);

  // Everything happened inside epoch 1; the inner span's events carry the
  // outer span as parent (arg) and their own id in `span`.
  for (const ParsedEvent& e : evs) EXPECT_EQ(e.epoch, 1u);
  EXPECT_EQ(evs[0].span, 1u);
  EXPECT_EQ(evs[0].arg, 0u);  // outer has no parent span
  EXPECT_EQ(evs[1].span, 2u);
  EXPECT_EQ(evs[1].arg, 1u);  // inner's parent is the outer span
  EXPECT_EQ(evs[2].span, 2u);
  EXPECT_EQ(evs[3].span, 1u);
}

TEST(EventLog, SpansNestedDeeperThanTheRingStayBalancedInTotals) {
  // 8 spans nested inside each other against a 4-slot ring: the journal
  // can only retain the innermost end of the timeline, but the per-name
  // totals still count every begin and end.
  EventLog log(4);
  log.set_clock([] { return 0.0; });
  const EventId id = log.intern("lp.mip.solve");
  const std::function<void(int)> recurse = [&](int depth) {
    if (depth == 0) return;
    const Span span = open_span(log, id);
    recurse(depth - 1);
  };
  recurse(8);  // 8 begins going in, 8 ends unwinding

  const EventLog::Stats stats = log.stats();
  EXPECT_EQ(stats.recorded, 16u);
  EXPECT_EQ(stats.dropped, 12u);

  MetricsRegistry reg;
  log.export_counters(reg);
  EXPECT_EQ(reg.counter("obs.event.lp.mip.solve").value(), 16u);

  // The retained tail is the last four ends, unwinding inner -> outer.
  const auto threads = parse_threads(log);
  ASSERT_EQ(threads[0].size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(threads[0][i].phase, EventPhase::kEnd);
    EXPECT_EQ(threads[0][i].span, 4u - i);
  }
}

TEST(EventLog, ExportCountersIsExactPastWrapAndIdempotent) {
  EventLog log(2);
  log.set_clock([] { return 0.0; });
  const EventId a = log.intern("orch.lifecycle.launch");
  const EventId b = log.intern("orch.lifecycle.retire");
  for (int i = 0; i < 5; ++i) log.record(a, EventPhase::kInstant, 0);
  log.record(b, EventPhase::kInstant, 0);

  MetricsRegistry reg;
  log.export_counters(reg);
  log.export_counters(reg);  // re-export must not double-count
  EXPECT_EQ(reg.counter("obs.event.orch.lifecycle.launch").value(), 5u);
  EXPECT_EQ(reg.counter("obs.event.orch.lifecycle.retire").value(), 1u);
}

TEST(EventLog, DisabledRecordingConsumesNoIdsAndDropsEvents) {
  EventLog log(16);
  log.set_clock([] { return 0.0; });
  const EventId id = log.intern("core.pipeline.epoch");
  log.set_enabled(false);
  log.record(id, EventPhase::kInstant, 0);
  {
    // Inactive scopes must not consume epoch/span ids, so id streams stay
    // deterministic across recording-off stretches.
    EpochScope epoch(log);
    EXPECT_EQ(epoch.epoch_id(), 0u);
    const Span span = open_span(log, id);
    EXPECT_EQ(current_context().epoch, 0u);
  }
  log.set_enabled(true);
  EXPECT_EQ(log.stats().recorded, 0u);
  {
    EpochScope epoch(log);
    EXPECT_EQ(epoch.epoch_id(), 1u);  // first id ever allocated
  }
}

TEST(EventLog, ResetClearsRingsAndIdCountersButKeepsInterning) {
  EventLog log(8);
  log.set_clock([] { return 0.0; });
  const EventId id = log.intern("fault.detect");
  { EpochScope epoch(log); log.record(id, EventPhase::kInstant, 0); }
  ASSERT_GT(log.stats().recorded, 0u);

  log.reset();
  EXPECT_EQ(log.stats().recorded, 0u);
  EXPECT_EQ(log.stats().dropped, 0u);
  EXPECT_EQ(log.intern("fault.detect"), id);  // intern table survives
  MetricsRegistry reg;
  log.export_counters(reg);
  EXPECT_EQ(reg.counter("obs.event.fault.detect").value(), 0u);
  {
    EpochScope epoch(log);
    EXPECT_EQ(epoch.epoch_id(), 1u);  // id streams restart
  }
}

TEST(EventLog, JournalIsByteIdenticalAcrossIdenticalRuns) {
  const auto run = [](EventLog& log) {
    double t = 0.0;
    log.set_clock([&t] { return t += 0.125; });
    const EventId stage = log.intern("core.pipeline.stage.place");
    EpochScope epoch(log);
    const Span span = open_span(log, stage);
    log.record(log.intern("lp.mip.node.solve"), EventPhase::kInstant, 3);
  };
  EventLog first(16);
  run(first);
  EventLog second(16);
  run(second);
  EXPECT_EQ(first.journal_json(), second.journal_json());

  // And an in-place reset replays to the same journal.
  const std::string before = first.journal_json();
  first.reset();
  run(first);
  EXPECT_EQ(first.journal_json(), before);
}

TEST(EventLog, ThreadPoolTasksInheritTheSubmittersContext) {
  EventLog& log = default_event_log();
  log.reset();
  exec::ThreadPool pool(2);
  std::atomic<std::uint64_t> seen_epoch{0};
  std::atomic<std::uint64_t> seen_span{0};
  {
    EpochScope epoch(log);
    const EventId id = log.intern("core.pipeline.stage.place");
    const Span span = open_span(log, id);
    exec::TaskGroup group(pool);
    group.run([&] {
      seen_epoch = current_context().epoch;
      seen_span = current_context().span;
    });
    group.wait();
  }
  EXPECT_EQ(seen_epoch.load(), 1u);
  EXPECT_EQ(seen_span.load(), 1u);
  // Outside the scopes the submitting thread's context is restored.
  EXPECT_EQ(current_context().epoch, 0u);
  EXPECT_EQ(current_context().span, 0u);
  log.reset();
}

TEST(EventLog, ConcurrentRecordingKeepsPerThreadRingsIntact) {
  // tsan workload: four threads hammer one log while the main thread
  // toggles the enable switch and interns new names. Each recording
  // thread's ring must come out internally consistent (its own events, in
  // its own order).
  EventLog log(64);
  log.set_clock([] { return 0.0; });
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 500;
  std::vector<EventId> ids;
  ids.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    ids.push_back(log.intern("obs.test.worker" + std::to_string(i) + ".tick"));
  }
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    workers.emplace_back([&log, id = ids[i]] {
      for (std::uint64_t n = 0; n < kPerThread; ++n) {
        log.record(id, EventPhase::kInstant, n);
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    log.set_enabled(true);  // racing relaxed toggles; recording stays on
    log.intern("obs.test.latecomer" + std::to_string(i) + ".name");
    (void)log.stats();
  }
  for (std::thread& w : workers) w.join();

  const EventLog::Stats stats = log.stats();
  EXPECT_EQ(stats.recorded, kThreads * kPerThread);
  EXPECT_EQ(stats.threads, static_cast<std::size_t>(kThreads));
  const auto threads = parse_threads(log);
  ASSERT_EQ(threads.size(), static_cast<std::size_t>(kThreads));
  for (const auto& ring : threads) {
    ASSERT_EQ(ring.size(), 64u);
    // One name per worker and strictly increasing args => no cross-thread
    // interleaving leaked into the ring.
    for (std::size_t i = 1; i < ring.size(); ++i) {
      EXPECT_EQ(ring[i].id, ring[0].id);
      EXPECT_EQ(ring[i].arg, ring[i - 1].arg + 1);
    }
  }
}

TEST(Span, RegistryClockTimesTheHistogramLogClockStampsTheJournal) {
  MetricsRegistry reg;
  double reg_t = 5.0;
  reg.set_clock([&reg_t] { return reg_t; });
  EventLog log(16);
  double log_t = 100.0;
  log.set_clock([&log_t] { return log_t; });
  Histogram& hist = reg.histogram("mod.comp.op_seconds");
  const EventId id = log.intern("mod.comp.op");
  {
    const Span span(reg, hist, log, id);
    reg_t = 5.75;
    log_t = 102.0;
  }
  ASSERT_EQ(hist.count(), 1u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.75);

  const auto threads = parse_threads(log);
  ASSERT_EQ(threads.size(), 1u);
  ASSERT_EQ(threads[0].size(), 2u);
  EXPECT_EQ(threads[0][0].id, id);
  EXPECT_EQ(threads[0][0].phase, EventPhase::kBegin);
  EXPECT_DOUBLE_EQ(threads[0][0].t, 100.0);
  EXPECT_EQ(threads[0][1].phase, EventPhase::kEnd);
  EXPECT_DOUBLE_EQ(threads[0][1].t, 102.0);
  EXPECT_EQ(threads[0][0].span, 1u);
  EXPECT_EQ(threads[0][1].span, 1u);
}

TEST(Span, DisabledLogStillObservesTheHistogramAndConsumesNoIds) {
  MetricsRegistry reg;
  double t = 0.0;
  reg.set_clock([&t] { return t; });
  EventLog log(16);
  log.set_clock([] { return 0.0; });
  Histogram& hist = reg.histogram("obs.test.op_seconds");
  const EventId id = log.intern("obs.test.op");
  log.set_enabled(false);
  {
    const Span span(reg, hist, log, id);
    EXPECT_EQ(current_context().span, 0u);
    t = 0.5;
  }
  EXPECT_EQ(hist.count(), 1u);
  EXPECT_DOUBLE_EQ(hist.sum(), 0.5);
  EXPECT_EQ(log.stats().recorded, 0u);

  log.set_enabled(true);
  {
    const Span span(reg, hist, log, id);
    EXPECT_EQ(current_context().span, 1u);  // first id ever allocated
  }
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_EQ(log.stats().recorded, 2u);
}

TEST(Span, ConcurrentSpansFromPoolWorkersLandOnceInBothSinks) {
  // tsan workload: pool workers resolve the histogram in a bare registry
  // and close spans on a bare log while the owning thread polls both.
  // Every span must land exactly once in the histogram and as one
  // begin/end pair in the journal, each pair under its own span id.
  MetricsRegistry reg;
  reg.set_clock([] { return 1.0; });
  EventLog log;
  log.set_clock([] { return 1.0; });
  const EventId id = log.intern("obs.test.pool_span");
  exec::ThreadPool pool(4);
  exec::TaskGroup group(pool);
  constexpr int kTasks = 64;
  constexpr int kSpansPerTask = 25;
  for (int i = 0; i < kTasks; ++i) {
    group.run([&reg, &log, id] {
      Histogram& hist = reg.histogram("obs.test.pool_span_seconds");
      for (int n = 0; n < kSpansPerTask; ++n) {
        const Span span(reg, hist, log, id);
      }
    });
  }
  (void)log.stats();  // racing snapshots while workers record
  (void)reg.histogram("obs.test.pool_span_seconds").count();
  group.wait();

  constexpr std::uint64_t kSpans = kTasks * kSpansPerTask;
  EXPECT_EQ(reg.histogram("obs.test.pool_span_seconds").count(), kSpans);
  EXPECT_EQ(log.stats().recorded, 2 * kSpans);
  EXPECT_EQ(log.stats().dropped, 0u);
  std::vector<int> ends_per_span(kSpans + 1, 0);
  for (const auto& ring : parse_threads(log)) {
    for (const ParsedEvent& e : ring) {
      ASSERT_GE(e.span, 1u);
      ASSERT_LE(e.span, kSpans);
      if (e.phase == EventPhase::kEnd) ++ends_per_span[e.span];
    }
  }
  for (std::uint64_t s = 1; s <= kSpans; ++s) {
    EXPECT_EQ(ends_per_span[s], 1) << "span " << s;
  }
}

TEST(FlightDump, PathFollowsThePrefix) {
  const std::string saved = flight_dump_prefix();
  set_flight_dump_prefix("flight_unittest");
  EXPECT_EQ(flight_dump_prefix(), "flight_unittest");
  const std::string path = flight_dump_path();
  EXPECT_EQ(path.rfind("flight_unittest_", 0), 0u);
  EXPECT_EQ(path.substr(path.size() - 5), ".json");
  set_flight_dump_prefix(saved);
}

}  // namespace
}  // namespace apple::obs
