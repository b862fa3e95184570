// apple_trace — flight-recorder journal post-processor.
//
// Reads one or more flight dumps (obs::EventLog::journal_json() documents:
// crash dumps named flight_<pid>.json, bench artifacts named
// flight_<bench>.json) and produces:
//
//   * a merged Chrome trace-event file (--chrome OUT.json): load it in
//     chrome://tracing or Perfetto. Each input file becomes a pid, each
//     recording thread a tid; span begin/end pairs map to B/E events
//     (strictly nested per thread by construction) and instants to "i".
//   * a per-epoch latency-attribution table (default, or --table): for
//     every causal epoch, the wall-clock of each pipeline stage span, the
//     solver share (lp.mip.solve) and the rule-install share
//     (core.pipeline.stage.apply_rules), flagging the stage that ate the
//     largest slice of the epoch budget. An epoch whose root span
//     (core.pipeline.epoch / advance) the ring overwrote has no budget: it
//     is marked truncated and its rows carry no shares and no flag.
//   * a run-level block after each journal's per-epoch tables: for every
//     core.pipeline.stage.* span, the epoch roots core.pipeline.{epoch,
//     advance} and the ctrl.domain.{propose,reconcile,commit} phases, the
//     epochs seen, total seconds, nearest-rank p50/p99 of the per-epoch
//     totals and the share of the summed root wall time. Truncated epochs
//     are counted and left out of the shares. The ctrl.domain phases run
//     outside any epoch (each wraps several domains' epochs), so each of
//     their occurrences counts as one sample.
//
// Timestamps are whatever clock the producing run injected — wall seconds
// in benches, constant 0 in determinism tests (where the table degenerates
// to counts, which is fine: the table is for bench/crash dumps).
//
// Exit status: 0 on success, 2 on usage errors, 1 when any input fails to
// parse.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/event_log.h"
#include "obs/json.h"

namespace {

using apple::obs::json::Value;

struct JournalEvent {
  std::size_t id = 0;
  int phase = 0;  // 0 instant, 1 begin, 2 end
  double t = 0.0;
  std::uint64_t epoch = 0;
  std::uint64_t span = 0;
  std::uint64_t arg = 0;
};

struct JournalThread {
  std::uint64_t ordinal = 0;
  std::uint64_t dropped = 0;
  std::vector<JournalEvent> events;
};

struct Journal {
  std::string file;
  std::vector<std::string> names;
  std::vector<JournalThread> threads;
};

std::uint64_t as_u64(const Value& v) {
  return v.number < 0 ? 0 : static_cast<std::uint64_t>(v.number);
}

std::optional<Journal> load_journal(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "apple_trace: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::optional<Value> doc = apple::obs::json::parse(buf.str());
  const Value* journal = doc ? doc->find("journal") : nullptr;
  const Value* names = journal ? journal->find("names") : nullptr;
  const Value* threads = journal ? journal->find("threads") : nullptr;
  if (names == nullptr || !names->is_array() || threads == nullptr ||
      !threads->is_array()) {
    std::fprintf(stderr, "apple_trace: %s is not a flight journal\n",
                 path.c_str());
    return std::nullopt;
  }
  Journal out;
  out.file = path;
  for (const Value& n : names->items) out.names.push_back(n.string);
  for (const Value& t : threads->items) {
    JournalThread thread;
    if (const Value* ordinal = t.find("ordinal")) {
      thread.ordinal = as_u64(*ordinal);
    }
    if (const Value* dropped = t.find("dropped")) {
      thread.dropped = as_u64(*dropped);
    }
    const Value* events = t.find("events");
    if (events == nullptr || !events->is_array()) continue;
    for (const Value& e : events->items) {
      if (!e.is_array() || e.items.size() != 6) continue;
      JournalEvent ev;
      ev.id = static_cast<std::size_t>(as_u64(e.items[0]));
      ev.phase = static_cast<int>(as_u64(e.items[1]));
      ev.t = e.items[2].number;
      ev.epoch = as_u64(e.items[3]);
      ev.span = as_u64(e.items[4]);
      ev.arg = as_u64(e.items[5]);
      if (ev.id >= out.names.size()) continue;  // truncated/corrupt dump
      thread.events.push_back(ev);
    }
    out.threads.push_back(std::move(thread));
  }
  return out;
}

bool write_chrome_trace(const std::vector<Journal>& journals,
                        const std::string& path) {
  apple::obs::json::Writer w;
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();
  for (std::size_t j = 0; j < journals.size(); ++j) {
    const std::uint64_t pid = j + 1;
    for (const JournalThread& t : journals[j].threads) {
      const std::uint64_t tid = t.ordinal + 1;
      for (const JournalEvent& e : t.events) {
        w.begin_object();
        w.key("name");
        w.value(journals[j].names[e.id]);
        w.key("ph");
        w.value(e.phase == 1 ? "B" : (e.phase == 2 ? "E" : "i"));
        if (e.phase == 0) {
          w.key("s");
          w.value("t");
        }
        w.key("ts");
        w.value(e.t * 1e6);  // Chrome wants microseconds
        w.key("pid");
        w.value(pid);
        w.key("tid");
        w.value(tid);
        w.key("args");
        w.begin_object();
        w.key("epoch");
        w.value(e.epoch);
        w.key("span");
        w.value(e.span);
        w.key("arg");
        w.value(e.arg);
        w.end_object();
        w.end_object();
      }
    }
  }
  w.end_array();
  w.key("displayTimeUnit");
  w.value("ms");
  w.end_object();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << w.take() << '\n';
  return out.good();
}

// A completed span occurrence, attributed to the epoch its begin carried.
struct SpanSample {
  std::size_t name = 0;
  std::uint64_t epoch = 0;
  double duration = 0.0;
};

// Pairs begin/end events per thread by span id. Spans are strictly nested
// per thread, so a stack suffices; an unmatched begin (ring overwrote the
// end, or the process died inside the span) is dropped from the table.
void collect_spans(const JournalThread& t, std::vector<SpanSample>& out) {
  std::vector<JournalEvent> stack;
  for (const JournalEvent& e : t.events) {
    if (e.phase == 1) {
      stack.push_back(e);
    } else if (e.phase == 2) {
      while (!stack.empty() && stack.back().span != e.span) stack.pop_back();
      if (stack.empty()) continue;  // begin fell off the ring
      out.push_back(SpanSample{e.id, stack.back().epoch,
                               e.t - stack.back().t});
      stack.pop_back();
    }
  }
}

bool starts_with(const std::string& s, std::string_view prefix) {
  return s.size() >= prefix.size() &&
         s.compare(0, prefix.size(), prefix) == 0;
}

// (epoch -> name -> [total seconds, count]); std::map keeps output order
// deterministic.
using EpochTotals =
    std::map<std::uint64_t, std::map<std::string, std::pair<double, int>>>;

// The epoch budget: the summed root pipeline spans of the epoch. False when
// the ring overwrote them (the epoch is truncated).
bool root_wall(const std::map<std::string, std::pair<double, int>>& stages,
               double& wall) {
  wall = 0.0;
  bool has_root = false;
  for (const char* root : {"core.pipeline.epoch", "core.pipeline.advance"}) {
    const auto it = stages.find(root);
    if (it == stages.end()) continue;
    wall += it->second.first;
    has_root = true;
  }
  return has_root;
}

void print_attribution_table(const Journal& journal,
                             const EpochTotals& per_epoch) {
  // Instant counts per epoch (rule installs, solver node events).
  std::map<std::uint64_t, std::map<std::string, std::uint64_t>> instants;
  for (const JournalThread& t : journal.threads) {
    for (const JournalEvent& e : t.events) {
      if (e.phase == 0) ++instants[e.epoch][journal.names[e.id]];
    }
  }

  std::uint64_t dropped = 0;
  for (const JournalThread& t : journal.threads) dropped += t.dropped;
  std::printf("# %s (%zu threads%s)\n", journal.file.c_str(),
              journal.threads.size(),
              dropped > 0 ? ", ring dropped oldest events" : "");

  for (const auto& [epoch, stages] : per_epoch) {
    if (epoch == 0) continue;  // events outside any epoch scope
    // An epoch that lost its root span to the ring prints as truncated.
    double wall = 0.0;
    const bool has_root = root_wall(stages, wall);
    if (has_root) {
      std::printf("epoch %llu  wall %.6fs\n",
                  static_cast<unsigned long long>(epoch), wall);
    } else {
      std::printf("epoch %llu  truncated (root span fell off the ring)\n",
                  static_cast<unsigned long long>(epoch));
    }
    // One row: seconds and count, plus the share of the epoch budget when
    // there is one.
    const auto print_row = [&](const std::string& label,
                               const std::pair<double, int>& cell,
                               const char* flag) {
      if (!has_root) {
        std::printf("  %-40s %10.6fs  x%d\n", label.c_str(), cell.first,
                    cell.second);
        return;
      }
      const double share = wall > 0.0 ? 100.0 * cell.first / wall : 0.0;
      std::printf("  %-40s %10.6fs  x%-5d %5.1f%%%s\n", label.c_str(),
                  cell.first, cell.second, share, flag);
    };

    // Stage rows, largest first. Only core.pipeline.stage.* spans compete
    // for the "ate the budget" flag — solver/dataplane spans nest inside
    // them and would double-count.
    std::vector<std::pair<std::string, std::pair<double, int>>> rows(
        stages.begin(), stages.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.second.first > b.second.first;
                     });
    std::string biggest_stage;
    double biggest = -1.0;
    for (const auto& [name, cell] : rows) {
      if (starts_with(name, "core.pipeline.stage.") && cell.first > biggest) {
        biggest = cell.first;
        biggest_stage = name;
      }
    }
    for (const auto& [name, cell] : rows) {
      if (!starts_with(name, "core.pipeline.stage.")) continue;
      print_row(name, cell, name == biggest_stage ? "  <- epoch budget" : "");
    }
    const auto solver = stages.find("lp.mip.solve");
    if (solver != stages.end()) print_row("solver share", solver->second, "");
    const auto rules = stages.find("core.pipeline.stage.apply_rules");
    if (rules != stages.end()) {
      print_row("rule-install share", rules->second, "");
    }
    const auto inst = instants.find(epoch);
    if (inst != instants.end()) {
      std::printf("  instants:");
      for (const auto& [name, count] : inst->second) {
        std::printf(" %s=%llu", name.c_str(),
                    static_cast<unsigned long long>(count));
      }
      std::printf("\n");
    }
  }
}

bool in_run_summary(const std::string& name) {
  return starts_with(name, "core.pipeline.stage.") ||
         name == "core.pipeline.epoch" || name == "core.pipeline.advance" ||
         name == "ctrl.domain.propose" || name == "ctrl.domain.reconcile" ||
         name == "ctrl.domain.commit";
}

// Nearest-rank percentile of ascending `sorted` (non-empty): the value at
// 1-based rank ceil(p/100 * n).
double nearest_rank(const std::vector<double>& sorted, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(sorted.size()));
  return sorted[static_cast<std::size_t>(std::max(rank, 1.0)) - 1];
}

void print_run_summary(const Journal& journal,
                       const std::vector<SpanSample>& spans,
                       const EpochTotals& per_epoch) {
  struct Row {
    std::vector<double> samples;  // per-epoch totals (or occurrences)
    double budgeted = 0.0;        // the part inside non-truncated epochs
  };
  std::map<std::string, Row> rows;
  std::size_t epochs = 0;
  std::size_t truncated = 0;
  double root_total = 0.0;
  for (const auto& [epoch, stages] : per_epoch) {
    if (epoch == 0) continue;
    ++epochs;
    double wall = 0.0;
    const bool has_root = root_wall(stages, wall);
    if (has_root) {
      root_total += wall;
    } else {
      ++truncated;
    }
    for (const auto& [name, cell] : stages) {
      if (!in_run_summary(name)) continue;
      Row& row = rows[name];
      row.samples.push_back(cell.first);
      if (has_root) row.budgeted += cell.first;
    }
  }
  for (const SpanSample& s : spans) {
    if (s.epoch != 0 || !in_run_summary(journal.names[s.name])) continue;
    Row& row = rows[journal.names[s.name]];
    row.samples.push_back(s.duration);
    row.budgeted += s.duration;
  }

  std::printf("run  %zu epochs (%zu truncated), roots %.6fs\n", epochs,
              truncated, root_total);
  std::printf("  %-40s %7s %11s %11s %11s %6s\n", "span", "epochs", "total",
              "p50", "p99", "share");
  std::vector<std::pair<double, std::string>> order;
  for (auto& [name, row] : rows) {
    double total = 0.0;
    for (const double d : row.samples) total += d;
    std::sort(row.samples.begin(), row.samples.end());
    order.emplace_back(total, name);
  }
  std::stable_sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first > b.first;
  });
  for (const auto& [total, name] : order) {
    const Row& row = rows.at(name);
    const double share =
        root_total > 0.0 ? 100.0 * row.budgeted / root_total : 0.0;
    std::printf("  %-40s %7zu %10.6fs %10.6fs %10.6fs %5.1f%%\n", name.c_str(),
                row.samples.size(), total, nearest_rank(row.samples, 50.0),
                nearest_rank(row.samples, 99.0), share);
  }
}

// The per-epoch tables, then the run-level block.
void print_attribution(const Journal& journal) {
  std::vector<SpanSample> spans;
  for (const JournalThread& t : journal.threads) collect_spans(t, spans);
  EpochTotals per_epoch;
  for (const SpanSample& s : spans) {
    auto& cell = per_epoch[s.epoch][journal.names[s.name]];
    cell.first += s.duration;
    cell.second += 1;
  }
  print_attribution_table(journal, per_epoch);
  print_run_summary(journal, spans, per_epoch);
}

int usage() {
  std::fprintf(stderr,
               "usage: apple_trace [--chrome OUT.json] [--table] "
               "FLIGHT.json...\n"
               "  --chrome OUT.json  merge inputs into a Chrome trace file\n"
               "  --table            print the per-epoch latency attribution\n"
               "                     tables and the run-level block (default\n"
               "                     when --chrome is absent)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string chrome_path;
  bool want_table = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--chrome") {
      if (i + 1 >= argc) return usage();
      chrome_path = argv[++i];
    } else if (arg == "--table") {
      want_table = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) return usage();
  if (chrome_path.empty()) want_table = true;

  std::vector<Journal> journals;
  for (const std::string& file : files) {
    std::optional<Journal> journal = load_journal(file);
    if (!journal) return 1;
    journals.push_back(std::move(*journal));
  }
  if (!chrome_path.empty()) {
    if (!write_chrome_trace(journals, chrome_path)) {
      std::fprintf(stderr, "apple_trace: cannot write %s\n",
                   chrome_path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu journal%s)\n", chrome_path.c_str(),
                journals.size(), journals.size() == 1 ? "" : "s");
  }
  if (want_table) {
    for (const Journal& journal : journals) print_attribution(journal);
  }
  return 0;
}
