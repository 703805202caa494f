#include "lint/analyzer.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <deque>
#include <functional>
#include <sstream>
#include <tuple>
#include <utility>

#include "lint/lexer.hpp"

namespace osprey::lint {

namespace {

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool is_ident(const Token& t) { return t.kind == Tok::kIdent; }
bool is_punct(const Token& t, const char* text) {
  return t.kind == Tok::kPunct && t.text == text;
}

// Path predicates (identical scoping to the v1 scanner, plus serve in
// the wall-clock set: the serving tier runs on simulated time too).
bool rng_applies(const std::string& p) {
  return !starts_with(p, "src/num/rng.");
}
bool wall_clock_applies(const std::string& p) {
  return starts_with(p, "src/fabric/") || starts_with(p, "src/emews/") ||
         starts_with(p, "src/aero/") || starts_with(p, "src/serve/") ||
         starts_with(p, "src/shard/");
}
bool raw_thread_applies(const std::string& p) {
  return starts_with(p, "src/") && !starts_with(p, "src/util/");
}
bool fabric_applies(const std::string& p) {
  return starts_with(p, "src/fabric/");
}
bool serve_applies(const std::string& p) {
  return starts_with(p, "src/serve/");
}
bool aero_applies(const std::string& p) {
  return starts_with(p, "src/aero/");
}
// Cross-shard isolation: everything in src/shard/ EXCEPT the partition
// (the one sanctioned owner of per-partition orchestration state) must
// stay at the envelope level — no reaching into another partition's
// metadata db, flow service or AERO server, and no direct origin serve.
bool shard_isolation_applies(const std::string& p) {
  return starts_with(p, "src/shard/") &&
         !starts_with(p, "src/shard/partition.");
}

// The small hashes live in util/hash.hpp only.
bool hash_copy_applies(const std::string& p) {
  return p != "src/util/hash.hpp";
}

/// A number token spelling one of the splitmix64 or FNV-1a constants
/// (any case, digit separators or integer suffix).
bool hash_constant(const std::string& number) {
  std::string n;
  for (char c : number) {
    if (c == '\'') continue;
    n += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  while (!n.empty() && (n.back() == 'u' || n.back() == 'l')) n.pop_back();
  static const char* kConstants[] = {
      "0x9e3779b97f4a7c15", "0xbf58476d1ce4e5b9", "0x94d049bb133111eb",
      "0xcbf29ce484222325", "0x100000001b3",      "14695981039346656037",
      "1099511628211"};
  for (const char* k : kConstants) {
    if (n == k) return true;
  }
  return false;
}

bool counter_name(const std::string& s) {
  if (s.size() < 2 || s.back() != '_') return false;
  for (char c : s) {
    if (!(std::islower(static_cast<unsigned char>(c)) ||
          std::isdigit(static_cast<unsigned char>(c)) || c == '_')) {
      return false;
    }
  }
  static const char* kWords[] = {"count", "completed", "failed", "succeeded",
                                 "fires", "injected", "processed", "total"};
  for (const char* w : kWords) {
    if (s.find(w) != std::string::npos) return true;
  }
  return false;
}

std::string dirname_of(const std::string& path) {
  std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kRules = {
      {"rng",
       "std::rand/srand/random_device outside src/num/rng — all randomness "
       "flows through the deterministic num::RngStream"},
      {"wall-clock",
       "chrono clocks / time() in a simulated layer (fabric, emews, aero, "
       "serve) — use virtual time or the injected util::Clock"},
      {"raw-thread",
       "std::thread outside src/util — concurrency is owned by "
       "util::ThreadPool / util::Channel"},
      {"relative-include",
       "#include \"../...\" — internal headers are included as "
       "\"<module>/<header>.hpp\" rooted at src/"},
      {"fabric-raw-throw",
       "throw std::runtime_error in src/fabric — fabric services fail "
       "through typed osprey::util errors so retry/fault layers can "
       "classify and recover"},
      {"adhoc-counter",
       "size_t/uint64_t counter member in src/fabric — counters belong in "
       "obs::MetricsRegistry so they reach snapshots and Prometheus"},
      {"serve-direct-origin",
       "AeroServer::serve_latest() from serve-tier code — reads go through "
       "serve::ResultCache::lookup() for hit/miss/revalidate accounting"},
      {"wal-bypass",
       "direct mutation of MetadataDb backing state (objects_/runs_) in "
       "src/aero — every mutation goes through the WAL append path; only "
       "MetadataDb::apply()/load_snapshot() carry allows"},
      {"test-registration",
       "tests/test_*.cpp not listed in tests/CMakeLists.txt — it would "
       "silently never run"},
      {"layering",
       "src-to-src include edge not declared in tools/osprey_layers.txt "
       "(the module-layering DAG util -> crypto/num -> gp/epi/rt/gsa -> "
       "fabric/emews/aero/obs -> serve/core)"},
      {"include-cycle",
       "cycle in the include graph — reported with the full include chain"},
      {"determinism-taint",
       "a fabric/serve/obs/aero function reaches a wall-clock / raw-RNG / "
       "raw-thread / getenv / unordered-iteration sink through the call "
       "graph (full call chain in the diagnostic); sanctioned owners are "
       "declared as taint barriers in tools/osprey_layers.txt"},
      {"shard-isolation",
       "orchestration-state type (MetadataDb / FlowsService / AeroServer / "
       "serve_latest) referenced in src/shard outside partition.* — the "
       "fabric and coordinator speak only in mailbox envelopes; "
       "ShardPartition is the sole owner of per-partition state"},
      {"hash-copy",
       "a splitmix64 or FNV-1a constant outside src/util/hash.hpp — use "
       "util::mix64 / util::splitmix64_next / util::fnv1a instead of "
       "another copy"},
      {"stale-suppression",
       "a 'grandfathered' allow() suppression outlived the PR that "
       "introduced its rule — migrate the code instead (not suppressible)"},
  };
  return kRules;
}

std::string module_of(const std::string& path) {
  if (starts_with(path, "src/")) {
    std::size_t slash = path.find('/', 4);
    if (slash == std::string::npos) return "";
    return path.substr(4, slash - 4);
  }
  std::size_t slash = path.find('/');
  if (slash == std::string::npos) return "";
  std::string root = path.substr(0, slash);
  if (root == "tests" || root == "bench" || root == "tools" ||
      root == "examples") {
    return root;
  }
  return "";
}

void Analyzer::add_file(const std::string& path, const std::string& content) {
  Entry e;
  e.lexed = lex(content);
  for (const AllowMark& mark : e.lexed.allows) {
    auto& covered = e.allowed[mark.rule];
    covered.insert(mark.line);
    covered.insert(mark.line + 1);
  }
  files_[path] = std::move(e);
}

void Analyzer::set_test_registry(const std::string& cmake_content) {
  test_cmake_ = cmake_content;
  has_test_cmake_ = true;
}

// ---------------------------------------------------------------------------
// Token rules
// ---------------------------------------------------------------------------

void Analyzer::token_rules(const std::string& path, const Entry& e,
                           std::vector<Finding>& out) const {
  const std::vector<Token>& toks = e.lexed.tokens;
  auto report = [&](const char* rule, std::size_t line, std::string message) {
    if (e.allow_covers(rule, line)) return;
    out.push_back({path, line, rule, std::move(message), {}});
  };

  // relative-include works on the directive list: a directive quoted in
  // a comment or raw string never reaches it (the v1 false positive).
  for (const IncludeDirective& inc : e.lexed.includes) {
    if (!inc.angled && starts_with(inc.path, "../")) {
      report("relative-include", inc.line,
             "relative ../ include; include as \"<module>/<header>.hpp\" "
             "rooted at src/");
    }
  }

  const bool rng_on = rng_applies(path);
  const bool clock_on = wall_clock_applies(path);
  const bool thread_on = raw_thread_applies(path);
  const bool fabric_on = fabric_applies(path);
  const bool serve_on = serve_applies(path);
  const bool aero_on = aero_applies(path);
  const bool shard_on = shard_isolation_applies(path);

  if (hash_copy_applies(path)) {
    for (const Token& t : toks) {
      if (t.kind == Tok::kNumber && hash_constant(t.text)) {
        report("hash-copy", t.line,
               "splitmix64/FNV-1a constant " + t.text +
                   " outside src/util/hash.hpp; call util::mix64, "
                   "util::splitmix64_next or util::fnv1a instead");
      }
    }
  }

  auto bare_or_std = [&](std::size_t j) {
    if (j == 0) return true;
    const Token& prev = toks[j - 1];
    if (is_punct(prev, ".") || is_punct(prev, ">") || is_ident(prev)) {
      return false;
    }
    if (is_punct(prev, "::")) {
      return j >= 2 && is_ident(toks[j - 2]) && toks[j - 2].text == "std";
    }
    return true;
  };

  for (std::size_t j = 0; j < toks.size(); ++j) {
    const Token& t = toks[j];
    if (!is_ident(t)) continue;
    const std::string& s = t.text;
    const bool call_next = j + 1 < toks.size() && is_punct(toks[j + 1], "(");

    if (rng_on) {
      if (s == "random_device" || ((s == "rand" || s == "srand") && call_next)) {
        report("rng", t.line,
               "non-deterministic RNG; use num::RngStream (src/num/rng)");
      }
    }
    if (clock_on) {
      bool hit = s == "system_clock" || s == "steady_clock" ||
                 s == "high_resolution_clock";
      hit = hit || ((s == "gettimeofday" || s == "clock_gettime" ||
                     s == "localtime" || s == "mktime") &&
                    call_next);
      hit = hit || (s == "time" && call_next && bare_or_std(j));
      if (hit) {
        report("wall-clock", t.line,
               "wall clock in a simulated layer; use the fabric's virtual "
               "time or the injected util::Clock/util::SimClock");
      }
    }
    if (thread_on && (s == "thread" || s == "jthread") && j >= 2 &&
        is_punct(toks[j - 1], "::") && is_ident(toks[j - 2]) &&
        toks[j - 2].text == "std") {
      report("raw-thread", t.line,
             "raw std::thread outside src/util; use util::ThreadPool or a "
             "util-level primitive");
    }
    if (fabric_on && s == "throw" && j + 3 < toks.size() &&
        is_ident(toks[j + 1]) && toks[j + 1].text == "std" &&
        is_punct(toks[j + 2], "::") && is_ident(toks[j + 3]) &&
        toks[j + 3].text == "runtime_error") {
      report("fabric-raw-throw", t.line,
             "raw std::runtime_error from a fabric service; throw a typed "
             "osprey::util error (util/error.hpp) so retry/fault layers can "
             "catch and recover");
    }
    if (fabric_on && (s == "size_t" || s == "uint64_t")) {
      // [mutable] [std::] size_t|uint64_t countish_name_ [=;{] at the
      // start of a member declaration.
      std::size_t first = j;
      if (first >= 2 && is_punct(toks[first - 1], "::") &&
          is_ident(toks[first - 2]) && toks[first - 2].text == "std") {
        first -= 2;
      }
      if (first >= 1 && is_ident(toks[first - 1]) &&
          toks[first - 1].text == "mutable") {
        --first;
      }
      bool decl_start =
          first == 0 || is_punct(toks[first - 1], ";") ||
          is_punct(toks[first - 1], "{") || is_punct(toks[first - 1], "}") ||
          is_punct(toks[first - 1], ":");
      if (decl_start && j + 1 < toks.size() && is_ident(toks[j + 1]) &&
          counter_name(toks[j + 1].text) && j + 2 < toks.size() &&
          (is_punct(toks[j + 2], "=") || is_punct(toks[j + 2], ";") ||
           is_punct(toks[j + 2], "{"))) {
        report("adhoc-counter", toks[j + 1].line,
               "ad-hoc counter member in src/fabric; register an "
               "obs::Counter on the service's MetricsRegistry instead so "
               "the value reaches snapshots and the Prometheus export");
      }
    }
    if (aero_on && (s == "objects_" || s == "runs_") &&
        j + 2 < toks.size() && is_punct(toks[j + 1], ".") &&
        is_ident(toks[j + 2])) {
      // objects_.push_back(...), runs_.clear(), ... — a mutation of the
      // MetadataDb backing containers that did not come through the WAL
      // funnel. Reads (objects_.find, runs_.size, iteration) pass.
      static const char* kMutators[] = {"emplace", "emplace_back",
                                        "push_back", "pop_back",
                                        "erase", "insert", "clear"};
      const std::string& method = toks[j + 2].text;
      for (const char* m : kMutators) {
        if (method == m) {
          report("wal-bypass", t.line,
                 "direct mutation of MetadataDb backing state (" + s + "." +
                     method + "); every mutation must flow through the WAL "
                     "append path — MetadataDb::apply()/load_snapshot() are "
                     "the only sanctioned sites (each carries an allow)");
          break;
        }
      }
    }
    if (shard_on && (s == "MetadataDb" || s == "FlowsService" ||
                     s == "AeroServer" || s == "serve_latest")) {
      report("shard-isolation", t.line,
             "reference to per-partition orchestration state (" + s +
                 ") in src/shard outside partition.*; the fabric and "
                 "coordinator communicate only through mailbox envelopes — "
                 "move the access into ShardPartition");
    }
    if (serve_on && s == "serve_latest" && call_next) {
      report("serve-direct-origin", t.line,
             "direct serve_latest() from serve-tier code; go through "
             "serve::ResultCache::lookup() so every read gets hit/miss/"
             "revalidate accounting and invalidation (the cache's own "
             "origin fetch carries an allow)");
    }
  }

  // stale-suppression: grandfathering is a one-PR amnesty. Any allow()
  // still marked "grandfathered" after that PR merges is older than the
  // rule that introduced it, and must be fixed, not kept. Deliberately
  // not suppressible.
  for (const AllowMark& mark : e.lexed.allows) {
    if (!mark.grandfathered) continue;
    out.push_back({path, mark.line, "stale-suppression",
                   "grandfathered allow(" + mark.rule +
                       ") outlived the PR that introduced the rule; migrate "
                       "the code instead of carrying the suppression",
                   {}});
  }
}

// ---------------------------------------------------------------------------
// Include graph: layering + cycles
// ---------------------------------------------------------------------------

std::string Analyzer::resolve_include(const std::string& includer,
                                      const IncludeDirective& inc) const {
  if (inc.angled) return "";
  const std::string dir = dirname_of(includer);
  const std::string candidates[] = {
      dir.empty() ? inc.path : dir + "/" + inc.path,
      "src/" + inc.path,
      "tools/" + inc.path,
      inc.path,
  };
  for (const std::string& c : candidates) {
    if (files_.count(c) != 0) return c;
  }
  return "";
}

void Analyzer::structural_rules(const AnalyzerOptions& opts,
                                std::vector<Finding>& out) const {
  (void)opts;
  // Resolved project-internal include edges, deterministic order.
  std::map<std::string, std::vector<std::pair<std::size_t, std::string>>>
      edges;  // includer -> [(line, includee)]
  for (const auto& [path, entry] : files_) {
    auto& v = edges[path];
    for (const IncludeDirective& inc : entry.lexed.includes) {
      std::string target = resolve_include(path, inc);
      if (!target.empty() && target != path) v.emplace_back(inc.line, target);
    }
  }

  // Layering: every src-to-src cross-module edge must be declared.
  std::set<std::string> undeclared_reported;
  for (const auto& [path, targets] : edges) {
    if (!starts_with(path, "src/")) continue;
    const std::string m = module_of(path);
    if (m.empty()) continue;
    const Entry& entry = files_.at(path);
    if (!layers_.declared(m)) {
      if (undeclared_reported.insert(m).second) {
        out.push_back({path, 0, "layering",
                       "module '" + m +
                           "' is not declared in tools/osprey_layers.txt; "
                           "declare its layer and allowed dependencies",
                       {}});
      }
      continue;
    }
    for (const auto& [line, target] : targets) {
      if (!starts_with(target, "src/")) continue;
      const std::string n = module_of(target);
      if (n.empty() || n == m) continue;
      if (layers_.edge_allowed(m, n)) continue;
      if (entry.allow_covers("layering", line)) continue;
      std::string allowed;
      auto it = layers_.deps.find(m);
      if (it != layers_.deps.end()) {
        for (const std::string& d : it->second) {
          if (!allowed.empty()) allowed += ", ";
          allowed += d;
        }
      }
      out.push_back(
          {path, line, "layering",
           "include of \"" + target + "\" makes module '" + m +
               "' depend on '" + n +
               "', which the declared layering DAG does not allow (declared "
               "deps of " +
               m + ": " + (allowed.empty() ? "none" : allowed) + ")",
           {path + ":" + std::to_string(line) + "  #include \"" + target +
                "\"",
            target + ":1  module " + n}});
    }
  }

  // Include cycles: DFS, each cycle reported once (keyed by its file
  // set), anchored at its lexicographically smallest member.
  std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
  std::set<std::string> seen_cycles;
  std::vector<std::string> stack;

  std::function<void(const std::string&)> dfs = [&](const std::string& u) {
    color[u] = 1;
    stack.push_back(u);
    for (const auto& [line, v] : edges[u]) {
      if (color[v] == 1) {
        auto it = std::find(stack.begin(), stack.end(), v);
        std::vector<std::string> cycle(it, stack.end());
        std::string key;
        std::vector<std::string> sorted = cycle;
        std::sort(sorted.begin(), sorted.end());
        for (const std::string& f : sorted) key += f + "|";
        if (!seen_cycles.insert(key).second) continue;
        std::vector<std::string> chain;
        for (std::size_t k = 0; k < cycle.size(); ++k) {
          const std::string& from = cycle[k];
          const std::string& to = cycle[(k + 1) % cycle.size()];
          std::size_t at = 0;
          for (const auto& [l, tgt] : edges[from]) {
            if (tgt == to) {
              at = l;
              break;
            }
          }
          chain.push_back(from + ":" + std::to_string(at) +
                          "  #include \"" + to + "\"");
        }
        out.push_back({sorted.front(), 0, "include-cycle",
                       "include cycle: " + sorted.front() + " -> ... -> " +
                           sorted.front() + " (" +
                           std::to_string(cycle.size()) + " files)",
                       chain});
      } else if (color[v] == 0) {
        dfs(v);
      }
    }
    stack.pop_back();
    color[u] = 2;
  };
  for (const auto& [path, _] : edges) {
    if (color[path] == 0) dfs(path);
  }
}

// ---------------------------------------------------------------------------
// Determinism taint reachability
// ---------------------------------------------------------------------------

void Analyzer::taint_rule(std::vector<Finding>& out) const {
  struct Node {
    FunctionDef def;
    bool barrier = false;
  };
  std::vector<Node> nodes;
  for (const auto& [path, entry] : files_) {
    if (!starts_with(path, "src/")) continue;
    const bool barrier = layers_.barrier(path);
    for (FunctionDef& def : extract_functions(path, entry.lexed)) {
      // A suppressed seed site never seeds (allow at the sink kills the
      // whole derived family of findings).
      auto& seeds = def.seeds;
      seeds.erase(std::remove_if(seeds.begin(), seeds.end(),
                                 [&](const TaintSeed& s) {
                                   return entry.allow_covers(
                                       "determinism-taint", s.line);
                                 }),
                  seeds.end());
      if (barrier) seeds.clear();
      nodes.push_back({std::move(def), barrier});
    }
  }

  // Name index over non-barrier functions (taint cannot flow through a
  // barrier, so edges into barriers are irrelevant).
  std::map<std::string, std::vector<std::size_t>> by_base;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i].barrier) by_base[nodes[i].def.base].push_back(i);
  }

  auto qualified_matches = [](const FunctionDef& def,
                              const std::vector<std::string>& quals) {
    if (quals.empty()) return true;
    // Split def.qualified into components and require `quals` to be a
    // suffix of the components preceding the base name.
    std::vector<std::string> comps;
    std::size_t pos = 0;
    while (true) {
      std::size_t sep = def.qualified.find("::", pos);
      if (sep == std::string::npos) {
        comps.push_back(def.qualified.substr(pos));
        break;
      }
      comps.push_back(def.qualified.substr(pos, sep - pos));
      pos = sep + 2;
    }
    if (comps.empty()) return false;
    comps.pop_back();  // drop base name
    if (quals.size() > comps.size()) return false;
    return std::equal(quals.rbegin(), quals.rend(), comps.rbegin());
  };

  // Reverse edges: callee -> (caller, call line).
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> callers(
      nodes.size());
  for (std::size_t u = 0; u < nodes.size(); ++u) {
    if (nodes[u].barrier) continue;
    for (const CallSite& site : nodes[u].def.calls) {
      auto it = by_base.find(site.name);
      if (it == by_base.end()) continue;
      for (std::size_t v : it->second) {
        if (v == u) continue;
        if (!qualified_matches(nodes[v].def, site.quals)) continue;
        callers[v].emplace_back(u, site.line);
      }
    }
  }

  // BFS from seeded functions toward callers; parent links give the
  // shortest call chain from any function to its nearest sink.
  struct Trace {
    bool tainted = false;
    std::size_t next = 0;      // toward the sink; self when seeded
    std::size_t call_line = 0; // line in THIS function calling `next`
    const TaintSeed* seed = nullptr;
  };
  std::vector<Trace> trace(nodes.size());
  std::deque<std::size_t> queue;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].def.seeds.empty()) continue;
    trace[i] = {true, i, nodes[i].def.seeds.front().line,
                &nodes[i].def.seeds.front()};
    queue.push_back(i);
  }
  while (!queue.empty()) {
    std::size_t v = queue.front();
    queue.pop_front();
    for (const auto& [u, line] : callers[v]) {
      if (trace[u].tainted) continue;
      trace[u] = {true, v, line, nullptr};
      queue.push_back(u);
    }
  }

  // Report every tainted entry-point function with its chain.
  std::vector<std::size_t> entries;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!trace[i].tainted) continue;
    if (layers_.taint_entries.count(module_of(nodes[i].def.file)) == 0) {
      continue;
    }
    entries.push_back(i);
  }
  std::sort(entries.begin(), entries.end(), [&](std::size_t a, std::size_t b) {
    const FunctionDef& fa = nodes[a].def;
    const FunctionDef& fb = nodes[b].def;
    return std::tie(fa.file, fa.line, fa.qualified) <
           std::tie(fb.file, fb.line, fb.qualified);
  });

  for (std::size_t e : entries) {
    const FunctionDef& entry_def = nodes[e].def;
    const Entry& file_entry = files_.at(entry_def.file);
    if (file_entry.allow_covers("determinism-taint", entry_def.line)) continue;

    std::vector<std::string> chain;
    std::string pretty;
    std::size_t cur = e;
    const TaintSeed* seed = nullptr;
    while (true) {
      const FunctionDef& d = nodes[cur].def;
      chain.push_back(d.file + ":" + std::to_string(d.line) + "  " +
                      d.qualified);
      if (!pretty.empty()) pretty += " -> ";
      pretty += d.qualified;
      if (trace[cur].next == cur) {
        seed = trace[cur].seed;
        break;
      }
      cur = trace[cur].next;
    }
    if (seed == nullptr) continue;  // defensive; a chain always ends in a seed
    chain.push_back(nodes[cur].def.file + ":" +
                    std::to_string(seed->line) + "  " + seed->symbol + " [" +
                    seed->kind + "]");
    pretty += " -> " + seed->symbol;

    out.push_back(
        {entry_def.file, entry_def.line, "determinism-taint",
         "'" + entry_def.qualified + "' reaches non-deterministic " +
             seed->kind + " sink " + seed->symbol + " (" +
             nodes[cur].def.file + ":" + std::to_string(seed->line) +
             "): " + pretty,
         std::move(chain)});
  }
}

// ---------------------------------------------------------------------------
// test-registration
// ---------------------------------------------------------------------------

void Analyzer::registration_rule(std::vector<Finding>& out) const {
  if (!has_test_cmake_) return;
  for (const auto& [path, entry] : files_) {
    if (!starts_with(path, "tests/")) continue;
    std::size_t slash = path.rfind('/');
    std::string base = path.substr(slash + 1);
    if (base.rfind("test_", 0) != 0) continue;
    if (base.size() < 4 || base.substr(base.size() - 4) != ".cpp") continue;
    if (test_cmake_.find(base) != std::string::npos) continue;
    if (entry.any_allow("test-registration")) continue;
    out.push_back({path, 0, "test-registration",
                   "not registered in tests/CMakeLists.txt; it will never "
                   "run",
                   {}});
  }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

std::vector<Finding> Analyzer::run(const AnalyzerOptions& opts) {
  std::vector<Finding> findings;
  for (const auto& [path, entry] : files_) {
    token_rules(path, entry, findings);
  }
  registration_rule(findings);
  if (opts.layering) structural_rules(opts, findings);
  if (opts.taint) taint_rule(findings);

  if (!opts.changed.empty()) {
    auto touches = [&](const Finding& f) {
      if (opts.changed.count(f.file) != 0) return true;
      for (const std::string& hop : f.chain) {
        std::size_t colon = hop.find(':');
        if (colon != std::string::npos &&
            opts.changed.count(hop.substr(0, colon)) != 0) {
          return true;
        }
      }
      return false;
    };
    findings.erase(
        std::remove_if(findings.begin(), findings.end(),
                       [&](const Finding& f) { return !touches(f); }),
        findings.end());
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  return findings;
}

std::string findings_to_json(const std::vector<Finding>& findings,
                             std::size_t checked_files) {
  std::ostringstream js;
  js << "{\n  \"checked_files\": " << checked_files
     << ",\n  \"findings\": [\n";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    js << "    {\"file\": \"" << json_escape(f.file)
       << "\", \"line\": " << f.line << ", \"rule\": \""
       << json_escape(f.rule) << "\", \"message\": \""
       << json_escape(f.message) << "\"";
    if (!f.chain.empty()) {
      js << ", \"chain\": [";
      for (std::size_t k = 0; k < f.chain.size(); ++k) {
        js << "\"" << json_escape(f.chain[k]) << "\""
           << (k + 1 < f.chain.size() ? ", " : "");
      }
      js << "]";
    }
    js << "}" << (i + 1 < findings.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  return js.str();
}

}  // namespace osprey::lint
