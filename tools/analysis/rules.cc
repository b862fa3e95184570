#include "analysis/rules.h"

#include <cctype>
#include <map>
#include <set>
#include <string>

namespace apple::analysis {
namespace {

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool is_identifier(const std::string& t) {
  return !t.empty() && (std::isalpha(static_cast<unsigned char>(t[0])) != 0 ||
                        t[0] == '_');
}

// "src/lp/mip.cc" -> "lp"; empty when not under src/ or flat.
std::string src_module(std::string_view path) {
  if (!starts_with(path, "src/")) return std::string();
  const std::string_view rest = path.substr(4);
  const std::size_t slash = rest.find('/');
  if (slash == std::string_view::npos) return std::string();
  return std::string(rest.substr(0, slash));
}

std::string dirname_of(std::string_view path) {
  const std::size_t slash = path.rfind('/');
  return slash == std::string_view::npos ? std::string()
                                         : std::string(path.substr(0, slash));
}

// Skips a balanced <...> starting at ts[i] == "<"; returns the index one
// past the closing ">". Bails at end of stream (malformed input).
std::size_t skip_angles(const std::vector<Token>& ts, std::size_t i) {
  std::size_t depth = 0;
  for (; i < ts.size(); ++i) {
    if (ts[i].text == "<") {
      ++depth;
    } else if (ts[i].text == ">") {
      if (--depth == 0) return i + 1;
    } else if (ts[i].text == ";") {
      return i;  // declarations never span a ';' inside template args
    }
  }
  return i;
}

// ---------------------------------------------------------------------------
// layering — module DAG + header hygiene + raw new/delete, migrated from the
// retired tools/apple_lint.cc so there is exactly one scanner.
// ---------------------------------------------------------------------------

// Allowed #include targets per src/ module, mirroring the library link DAG
// in src/*/CMakeLists.txt (DESIGN.md Sec. 6). A module always may include
// itself; common is the dependency-free contracts/utility layer.
const std::map<std::string, std::set<std::string>>& layering_dag() {
  static const std::map<std::string, std::set<std::string>> dag = {
      {"common", {}},
      {"obs", {"common"}},
      {"exec", {"common", "obs"}},
      {"net", {"common", "obs"}},
      {"lp", {"common", "obs", "exec"}},
      {"traffic", {"common", "obs", "net", "exec"}},
      {"vnf", {"common", "obs", "net"}},
      {"hsa", {"common", "obs", "net", "traffic"}},
      {"orch", {"common", "obs", "net", "vnf"}},
      {"dataplane", {"common", "obs", "net", "traffic", "vnf", "hsa"}},
      {"sim", {"common", "obs", "net", "vnf", "traffic", "hsa", "dataplane"}},
      {"fault",
       {"common", "obs", "net", "traffic", "vnf", "hsa", "dataplane", "orch",
        "sim"}},
      {"core",
       {"common", "obs", "net", "traffic", "hsa", "lp", "vnf", "dataplane",
        "orch", "sim", "fault"}},
      {"ctrl",
       {"common", "obs", "exec", "net", "traffic", "hsa", "lp", "vnf",
        "dataplane", "orch", "sim", "fault", "core"}},
      {"baselines",
       {"common", "obs", "exec", "net", "traffic", "hsa", "lp", "vnf",
        "dataplane", "orch", "sim", "fault", "core"}},
  };
  return dag;
}

class LayeringRule : public Rule {
 public:
  std::string_view name() const override { return "layering"; }
  std::string_view description() const override {
    return "module include DAG, #pragma once, header hygiene, raw new/delete";
  }

  void analyze(const SourceFile& file, const Corpus& corpus,
               Sink& sink) override {
    (void)corpus;
    const std::vector<Token>& ts = file.tokens();
    const bool in_src = starts_with(file.path(), "src/");

    if (in_src) {
      const std::string module = src_module(file.path());
      const auto& dag = layering_dag();
      const auto dag_it = dag.find(module);
      if (dag_it == dag.end()) {
        sink.report(file, 1,
                    "module '" + module +
                        "' is not in the layering DAG; add it to "
                        "tools/analysis/rules.cc and DESIGN.md");
        return;
      }
      for (const IncludeDirective& inc : file.includes()) {
        const std::size_t slash = inc.path.find('/');
        if (slash == std::string::npos) continue;  // system or local header
        const std::string target_module = inc.path.substr(0, slash);
        if (dag.count(target_module) > 0 && target_module != module &&
            dag_it->second.count(target_module) == 0) {
          sink.report(file, inc.line,
                      "layering violation: module '" + module +
                          "' must not include '" + inc.path +
                          "' (allowed: own module plus documented "
                          "dependencies; see DESIGN.md)");
        }
      }
    }

    if (file.is_header()) {
      bool saw_pragma_once = false;
      for (const std::string& raw : file.raw_lines()) {
        if (raw.find("#pragma once") != std::string::npos) {
          saw_pragma_once = true;
          break;
        }
      }
      if (!saw_pragma_once) {
        sink.report(file, 1, "header is missing '#pragma once'");
      }
      for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
        if (ts[i].text == "using" && ts[i + 1].text == "namespace") {
          sink.report(file, ts[i].line,
                      "'using namespace' is banned in headers");
        }
      }
    }

    if (in_src) {
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const std::string& t = ts[i].text;
        const std::string prev = i > 0 ? ts[i - 1].text : std::string();
        const std::string next = i + 1 < ts.size() ? ts[i + 1].text
                                                   : std::string();
        if (t == "new" && prev != "operator" &&
            (is_identifier(next) || next == "(" || next == "::")) {
          sink.report(file, ts[i].line,
                      "raw 'new' is banned: use containers or smart "
                      "pointers");
        }
        if (t == "delete" && prev != "operator" && prev != "=" &&
            (is_identifier(next) || next == "*" || next == "(" ||
             next == "[")) {
          sink.report(file, ts[i].line,
                      "raw 'delete' is banned: use containers or smart "
                      "pointers");
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// unordered-iter
// ---------------------------------------------------------------------------

const std::set<std::string>& unordered_type_heads() {
  static const std::set<std::string> heads = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  return heads;
}

// Range expressions routed through these helpers (src/common/sorted.h) are
// deterministic by construction.
const std::set<std::string>& blessed_snapshot_helpers() {
  static const std::set<std::string> helpers = {"sorted_keys", "sorted_items"};
  return helpers;
}

class UnorderedIterRule : public Rule {
 public:
  std::string_view name() const override { return "unordered-iter"; }
  std::string_view description() const override {
    return "iteration over std::unordered_map/set whose order can escape";
  }

  void collect(const SourceFile& file) override {
    // Pass 1 gathers type aliases (`using Cache = std::unordered_map<...>;`)
    // so pass 2 (lazily, in the first analyze call) can treat alias-typed
    // declarations as unordered too.
    const std::vector<Token>& ts = file.tokens();
    for (std::size_t i = 0; i + 3 < ts.size(); ++i) {
      if (ts[i].text != "using" || !is_identifier(ts[i + 1].text) ||
          ts[i + 2].text != "=") {
        continue;
      }
      for (std::size_t j = i + 3;
           j < ts.size() && ts[j].text != ";"; ++j) {
        if (unordered_type_heads().count(ts[j].text) > 0) {
          aliases_.insert(ts[i + 1].text);
          break;
        }
      }
    }
  }

  void analyze(const SourceFile& file, const Corpus& corpus,
               Sink& sink) override {
    if (!built_) {
      for (const SourceFile& f : corpus.files()) collect_decls(f);
      built_ = true;
    }
    const std::set<std::string> relevant = relevant_names(file, corpus);
    if (relevant.empty()) return;

    const std::vector<Token>& ts = file.tokens();
    for (std::size_t i = 0; i + 1 < ts.size(); ++i) {
      if (ts[i].text != "for" || ts[i + 1].text != "(") continue;
      // Find the matching ')' and the range-for ':' at paren depth 1.
      std::size_t depth = 0;
      std::size_t colon = 0;
      std::size_t first_semi = 0;
      std::size_t close = 0;
      for (std::size_t j = i + 1; j < ts.size(); ++j) {
        const std::string& t = ts[j].text;
        if (t == "(") {
          ++depth;
        } else if (t == ")") {
          if (--depth == 0) {
            close = j;
            break;
          }
        } else if (depth == 1 && t == ":" && colon == 0) {
          colon = j;
        } else if (depth == 1 && t == ";" && first_semi == 0) {
          first_semi = j;
        }
      }
      if (close == 0) continue;

      if (colon != 0 && (first_semi == 0 || colon < first_semi)) {
        // Range-for: flag when the range expression touches an unordered
        // name and is not routed through a sorted snapshot.
        bool blessed = false;
        std::string hit;
        for (std::size_t j = colon + 1; j < close; ++j) {
          if (blessed_snapshot_helpers().count(ts[j].text) > 0) {
            blessed = true;
          }
          if (hit.empty() && relevant.count(ts[j].text) > 0) {
            hit = ts[j].text;
          }
        }
        if (!blessed && !hit.empty()) {
          sink.report(file, ts[i].line,
                      "iteration over unordered container '" + hit +
                          "': order is not deterministic — iterate a "
                          "sorted snapshot (common/sorted.h) or suppress "
                          "with a justification");
        }
      } else if (first_semi != 0) {
        // Classic for: flag `it = container.begin()` in the init clause.
        for (std::size_t j = i + 2; j + 3 < first_semi; ++j) {
          if (relevant.count(ts[j].text) > 0 && ts[j + 1].text == "." &&
              (ts[j + 2].text == "begin" || ts[j + 2].text == "cbegin") &&
              ts[j + 3].text == "(") {
            sink.report(file, ts[i].line,
                        "iterator loop over unordered container '" +
                            ts[j].text +
                            "': order is not deterministic — iterate a "
                            "sorted snapshot (common/sorted.h) or suppress "
                            "with a justification");
            break;
          }
        }
      }
    }
  }

 private:
  // Records names declared with an unordered type in `file`: variables and
  // members (`std::unordered_map<K, V> by_id_;`) and functions returning
  // (references to) unordered containers (`const std::unordered_map<...>&
  // instances() const;`).
  void collect_decls(const SourceFile& file) {
    const std::vector<Token>& ts = file.tokens();
    std::set<std::string>& names = decls_[file.path()];
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const bool head = unordered_type_heads().count(ts[i].text) > 0;
      const bool alias = aliases_.count(ts[i].text) > 0;
      if (!head && !alias) continue;
      std::size_t j = i + 1;
      if (head) {
        if (j >= ts.size() || ts[j].text != "<") continue;
        j = skip_angles(ts, j);
      }
      while (j < ts.size() &&
             (ts[j].text == "&" || ts[j].text == "*")) {
        ++j;
      }
      if (j >= ts.size() || !is_identifier(ts[j].text)) continue;
      const std::string& next =
          j + 1 < ts.size() ? ts[j + 1].text : std::string();
      if (next == ";" || next == "=" || next == "{" || next == "," ||
          next == ")" || next == "(") {
        names.insert(ts[j].text);
      }
    }
  }

  // Names visible to `file`: its own declarations, its paired header/source,
  // and the files it includes (project-relative paths resolved against the
  // corpus, trying src/ first).
  std::set<std::string> relevant_names(const SourceFile& file,
                                       const Corpus& corpus) {
    std::set<std::string> out;
    auto add = [&](const std::string& path) {
      const auto it = decls_.find(path);
      if (it == decls_.end()) return;
      out.insert(it->second.begin(), it->second.end());
    };
    add(file.path());
    const std::string& p = file.path();
    if (ends_with(p, ".cc")) {
      add(p.substr(0, p.size() - 3) + ".h");
    } else if (ends_with(p, ".cpp")) {
      add(p.substr(0, p.size() - 4) + ".h");
    } else if (ends_with(p, ".h")) {
      add(p.substr(0, p.size() - 2) + ".cc");
    }
    const std::string dir = dirname_of(p);
    for (const IncludeDirective& inc : file.includes()) {
      for (const std::string& candidate :
           {"src/" + inc.path, dir + "/" + inc.path, inc.path}) {
        if (corpus.find(candidate) != nullptr) {
          add(candidate);
          break;
        }
      }
    }
    return out;
  }

  bool built_ = false;
  std::set<std::string> aliases_;
  std::map<std::string, std::set<std::string>> decls_;
};

// ---------------------------------------------------------------------------
// ambient-time
// ---------------------------------------------------------------------------

class AmbientTimeRule : public Rule {
 public:
  std::string_view name() const override { return "ambient-time"; }
  std::string_view description() const override {
    return "ambient wall-clock reads outside the src/obs Clock layer";
  }

  void collect(const SourceFile& file) override {
    // Track `using Clock = std::chrono::steady_clock;` aliases so
    // `Clock::now()` is caught too. Alias names are global across the
    // corpus: a false share across files only risks an extra finding on an
    // actual ::now() call, never a miss.
    const std::vector<Token>& ts = file.tokens();
    for (std::size_t i = 0; i + 3 < ts.size(); ++i) {
      if (ts[i].text != "using" || !is_identifier(ts[i + 1].text) ||
          ts[i + 2].text != "=") {
        continue;
      }
      for (std::size_t j = i + 3; j < ts.size() && ts[j].text != ";"; ++j) {
        if (clock_names().count(ts[j].text) > 0) {
          aliases_.insert(ts[i + 1].text);
          break;
        }
      }
    }
  }

  void analyze(const SourceFile& file, const Corpus& corpus,
               Sink& sink) override {
    (void)corpus;
    // Only src/ is held to the injected-Clock contract; bench/, tools/ and
    // tests measure wall-clock by design. src/obs is the injection layer.
    if (!starts_with(file.path(), "src/") ||
        starts_with(file.path(), "src/obs/")) {
      return;
    }
    static const std::set<std::string> c_calls = {
        "gettimeofday", "clock_gettime", "timespec_get"};
    const std::vector<Token>& ts = file.tokens();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if ((clock_names().count(ts[i].text) > 0 ||
           aliases_.count(ts[i].text) > 0) &&
          i + 2 < ts.size() && ts[i + 1].text == "::" &&
          ts[i + 2].text == "now") {
        sink.report(file, ts[i].line,
                    "ambient '" + ts[i].text +
                        "::now()': inject time via obs::Clock / "
                        "obs::Stopwatch so replays stay deterministic");
      }
      if (c_calls.count(ts[i].text) > 0 && i + 1 < ts.size() &&
          ts[i + 1].text == "(") {
        sink.report(file, ts[i].line,
                    "ambient '" + ts[i].text +
                        "()': inject time via obs::Clock instead");
      }
    }
  }

 private:
  static const std::set<std::string>& clock_names() {
    static const std::set<std::string> clocks = {
        "system_clock", "steady_clock", "high_resolution_clock"};
    return clocks;
  }

  std::set<std::string> aliases_;
};

// ---------------------------------------------------------------------------
// ambient-random
// ---------------------------------------------------------------------------

class AmbientRandomRule : public Rule {
 public:
  std::string_view name() const override { return "ambient-random"; }
  std::string_view description() const override {
    return "non-reproducible randomness (random_device, rand, unseeded "
           "engines)";
  }

  void analyze(const SourceFile& file, const Corpus& corpus,
               Sink& sink) override {
    (void)corpus;
    static const std::set<std::string> engines = {
        "mt19937",     "mt19937_64",   "default_random_engine",
        "minstd_rand", "minstd_rand0", "ranlux24_base",
        "ranlux48_base", "knuth_b"};
    const std::vector<Token>& ts = file.tokens();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const std::string& t = ts[i].text;
      if (t == "random_device") {
        sink.report(file, ts[i].line,
                    "'std::random_device' is banned: derive every stream "
                    "from an explicit seed for reproducible runs");
        continue;
      }
      if ((t == "rand" || t == "srand") && i + 1 < ts.size() &&
          ts[i + 1].text == "(") {
        sink.report(file, ts[i].line,
                    "banned call '" + t +
                        "()': use a seeded <random> engine for "
                        "reproducibility");
        continue;
      }
      if (engines.count(t) > 0 && i + 2 < ts.size() &&
          is_identifier(ts[i + 1].text)) {
        const std::string& after = ts[i + 2].text;
        const bool empty_braces = after == "{" && i + 3 < ts.size() &&
                                  ts[i + 3].text == "}";
        if (after == ";" || empty_braces) {
          sink.report(file, ts[i].line,
                      "unseeded '" + t + " " + ts[i + 1].text +
                          "': construct with an explicit seed (or seed in "
                          "the owner's constructor and suppress with a "
                          "justification)");
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// pointer-order
// ---------------------------------------------------------------------------

class PointerOrderRule : public Rule {
 public:
  std::string_view name() const override { return "pointer-order"; }
  std::string_view description() const override {
    return "ordered containers/comparators keyed by raw pointer value";
  }

  void analyze(const SourceFile& file, const Corpus& corpus,
               Sink& sink) override {
    (void)corpus;
    static const std::set<std::string> heads = {
        "map", "set", "multimap", "multiset", "less", "greater",
        "priority_queue"};
    const std::vector<Token>& ts = file.tokens();
    for (std::size_t i = 1; i + 1 < ts.size(); ++i) {
      if (heads.count(ts[i].text) == 0 || ts[i - 1].text != "::" ||
          ts[i + 1].text != "<") {
        continue;
      }
      // Examine the first template argument: key/element type for the
      // containers, compared type for less/greater.
      std::size_t depth = 1;
      std::string last;
      for (std::size_t j = i + 2; j < ts.size(); ++j) {
        const std::string& t = ts[j].text;
        if (t == "<") {
          ++depth;
        } else if (t == ">") {
          if (--depth == 0) break;
        } else if (t == "," && depth == 1) {
          break;
        } else if (t == ";") {
          break;
        }
        last = t;
      }
      if (last == "*") {
        sink.report(file, ts[i].line,
                    "'" + ts[i].text +
                        "' keyed by raw pointer value: pointer order is "
                        "allocation order, not deterministic — key by a "
                        "stable id instead");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// contract-config
// ---------------------------------------------------------------------------

class ContractConfigRule : public Rule {
 public:
  std::string_view name() const override { return "contract-config"; }
  std::string_view description() const override {
    return "*Config/*Options structs whose validate() is never invoked";
  }

  void collect(const SourceFile& file) override {
    const std::vector<Token>& ts = file.tokens();
    // Remember which files contain a member validate() *call*; definitions
    // (`void X::validate() const`) don't match because their preceding
    // token is '::', not '.' or '>'.
    for (std::size_t i = 1; i + 1 < ts.size(); ++i) {
      if (ts[i].text == "validate" && ts[i + 1].text == "(" &&
          (ts[i - 1].text == "." ||
           (ts[i - 1].text == ">" && i >= 2 && ts[i - 2].text == "-"))) {
        callers_.insert(file.path());
        break;
      }
    }
    if (!file.is_header()) return;
    for (std::size_t i = 0; i + 2 < ts.size(); ++i) {
      if (ts[i].text != "struct" && ts[i].text != "class") continue;
      const std::string& name = ts[i + 1].text;
      if (!is_identifier(name) ||
          (!ends_with(name, "Config") && !ends_with(name, "Options"))) {
        continue;
      }
      // Find the body; a ';' first means forward declaration.
      std::size_t open = 0;
      for (std::size_t j = i + 2; j < ts.size(); ++j) {
        if (ts[j].text == "{") {
          open = j;
          break;
        }
        if (ts[j].text == ";") break;
      }
      if (open == 0) continue;
      std::size_t depth = 0;
      for (std::size_t j = open; j < ts.size(); ++j) {
        if (ts[j].text == "{") {
          ++depth;
        } else if (ts[j].text == "}") {
          if (--depth == 0) break;
        } else if (depth == 1 && ts[j].text == "validate" &&
                   j + 1 < ts.size() && ts[j + 1].text == "(") {
          structs_.push_back(
              ConfigStruct{name, file.path(), ts[i].line});
          break;
        }
      }
    }
  }

  void analyze(const SourceFile& file, const Corpus& corpus,
               Sink& sink) override {
    for (const ConfigStruct& cs : structs_) {
      if (cs.file != file.path()) continue;
      bool consumed = false;
      for (const std::string& caller : callers_) {
        if (caller == cs.file) continue;
        const SourceFile* cf = corpus.find(caller);
        if (cf == nullptr) continue;
        for (const Token& t : cf->tokens()) {
          if (t.text == cs.name) {
            consumed = true;
            break;
          }
        }
        if (consumed) break;
      }
      if (!consumed) {
        sink.report(file, cs.line,
                    "'" + cs.name +
                        "' defines validate() but no consumer invokes it; "
                        "call it where the config enters the system");
      }
    }
  }

 private:
  struct ConfigStruct {
    std::string name;
    std::string file;
    std::size_t line;
  };
  std::vector<ConfigStruct> structs_;
  std::set<std::string> callers_;
};

// ---------------------------------------------------------------------------
// metric-name — APPLE_OBS_* instrument/event names must be lowercase dotted
// string literals. Runtime-built names defeat the interned-id cache (the
// macros resolve the instrument once per call site into a static) and break
// snapshot/journal determinism; names that fail the obs scheme
// ([a-z0-9_.] with an interior dot) would abort at first use via the
// registry's APPLE_CHECK. The token stream drops string literals, so the
// rule locates call sites in tokens() and inspects raw_lines() for the
// literal itself.
// ---------------------------------------------------------------------------

class MetricNameRule : public Rule {
 public:
  std::string_view name() const override { return "metric-name"; }
  std::string_view description() const override {
    return "APPLE_OBS_* name arguments must be lowercase dotted string "
           "literals";
  }

  void analyze(const SourceFile& file, const Corpus& corpus,
               Sink& sink) override {
    (void)corpus;
    // src/obs defines the macros (and forwards `name` between them); only
    // call sites elsewhere carry actual metric names.
    if (starts_with(file.path(), "src/obs/")) return;
    // Per-line scan offsets so two macro calls on one raw line each match
    // their own occurrence.
    std::map<std::size_t, std::size_t> line_offset;
    for (const Token& t : file.tokens()) {
      if (!name_taking_macros().contains(t.text)) continue;
      check_call_site(file, t, line_offset, sink);
    }
  }

 private:
  static const std::set<std::string, std::less<>>& name_taking_macros() {
    static const std::set<std::string, std::less<>> macros = {
        "APPLE_OBS_COUNT",     "APPLE_OBS_COUNT_N",
        "APPLE_OBS_GAUGE_SET", "APPLE_OBS_GAUGE_MAX",
        "APPLE_OBS_OBSERVE",   "APPLE_OBS_OBSERVE_SIZE",
        "APPLE_OBS_SPAN",      "APPLE_OBS_EVENT",
        "APPLE_OBS_EVENT_N",
    };
    return macros;
  }

  // Mirrors obs::valid_instrument_name (src/obs/metrics.cc): lowercase
  // [a-z0-9_.], at least one dot, no leading/trailing dot.
  static bool valid_metric_name(std::string_view name) {
    if (name.empty()) return false;
    bool has_dot = false;
    for (const char c : name) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_' || c == '.';
      if (!ok) return false;
      if (c == '.') has_dot = true;
    }
    return has_dot && name.front() != '.' && name.back() != '.';
  }

  void check_call_site(const SourceFile& file, const Token& t,
                       std::map<std::size_t, std::size_t>& line_offset,
                       Sink& sink) {
    const std::vector<std::string>& lines = file.raw_lines();
    if (t.line == 0 || t.line > lines.size()) return;
    const std::string& line = lines[t.line - 1];
    std::size_t& offset = line_offset[t.line];
    const std::size_t pos = line.find(t.text, offset);
    if (pos == std::string::npos) return;  // e.g. token-pasted; don't guess
    offset = pos + t.text.size();
    // Window: rest of this line plus two continuation lines, enough for a
    // wrapped call site.
    std::string tail = line.substr(pos + t.text.size());
    for (std::size_t k = 0; k < 2 && t.line + k < lines.size(); ++k) {
      tail += ' ';
      tail += lines[t.line + k];
    }
    std::size_t i = 0;
    const auto skip_ws = [&] {
      while (i < tail.size() &&
             std::isspace(static_cast<unsigned char>(tail[i])) != 0) {
        ++i;
      }
    };
    skip_ws();
    // Not a call (mention in a comment that shares the line, macro list in
    // this rule, ...): nothing to check.
    if (i >= tail.size() || tail[i] != '(') return;
    ++i;
    skip_ws();
    if (i >= tail.size()) return;  // window too small; don't guess
    if (tail[i] != '"') {
      sink.report(file, t.line,
                  "'" + t.text +
                      "' name argument must be a string literal "
                      "(runtime-built metric names defeat the interned-id "
                      "cache and break snapshot determinism)");
      return;
    }
    ++i;
    std::string literal;
    while (i < tail.size() && tail[i] != '"') {
      literal += tail[i];
      ++i;
    }
    if (i >= tail.size()) return;  // literal spans past the window
    if (!valid_metric_name(literal)) {
      sink.report(file, t.line,
                  "metric name \"" + literal +
                      "\" must be lowercase dotted ([a-z0-9_.] with an "
                      "interior dot) — the obs registry contracts on it");
    }
  }
};

}  // namespace

std::vector<std::unique_ptr<Rule>> make_default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<UnorderedIterRule>());
  rules.push_back(std::make_unique<AmbientTimeRule>());
  rules.push_back(std::make_unique<AmbientRandomRule>());
  rules.push_back(std::make_unique<PointerOrderRule>());
  rules.push_back(std::make_unique<LayeringRule>());
  rules.push_back(std::make_unique<ContractConfigRule>());
  rules.push_back(std::make_unique<MetricNameRule>());
  return rules;
}

Analyzer make_default_analyzer() {
  Analyzer analyzer;
  for (auto& rule : make_default_rules()) {
    analyzer.add_rule(std::move(rule));
  }
  return analyzer;
}

}  // namespace apple::analysis
