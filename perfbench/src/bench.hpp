#pragma once

/// \file bench.hpp
/// Shared pieces of the named benchmark: options, the result record
/// every workload fills, wall-clock spans recorded around the
/// benchmark's own calls into each layer, per-layer self-time
/// attribution, and the correctness-check / self-test plumbing.
///
/// All timing here is wall-clock and lives only in the benchmark; the
/// program under test never sees it.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Traced run only: run just this layer replay ("" = all).
  std::string only_replay;
};

/// Where spans and per-run records go, relative to the working
/// directory (the repository root).
inline const std::string kOutDir = ".bench_out";

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One named correctness check over a workload's outputs.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Threads a workload may use (counting the calling thread) and the
/// most it was seen using.
struct ThreadBudget {
  std::string layout;     // e.g. "3 shards + caller"
  int budget = 1;
  int observed_max = 1;
};

/// Everything one invocation reports.
struct Outcome {
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;  // human-readable lines before the JSON
  ThreadBudget threads;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
  bool correct() const;
};

// --- process probes -------------------------------------------------
double peak_rss_mb();
/// Threads currently in this process (/proc/self/status).
int thread_count();
int available_cpus();
std::string sha256_hex(const std::string& bytes);

/// Run `rep` at least `min_reps` times and then as long as another
/// repetition of the last one's length still fits in `seconds`.
/// `rep` returns its own wall time in seconds.
void repeat_for(double seconds, int min_reps,
                const std::function<double()>& rep);

// --- host-speed probe ------------------------------------------------
/// The host is shared: while the benchmark was sized, a fixed piece of
/// work ran up to 1.7x slower for stretches of seconds to minutes,
/// whatever the benchmark did. Medians within a run cannot remove a
/// slow stretch that covers the whole run, so every end-to-end time is
/// reported at a reference host speed instead: a workload runs the
/// probe between its operations, and the times measured in a round (a
/// repetition and the set-up-only repetitions that follow it) are
/// divided by the round's slowdown, its mean probe time divided by
/// kProbeRefMs. The probe is frozen here, apart from src/, so a change
/// to the program moves the reported times as much as the raw ones.
/// Call it from one thread at a time.
/// Its three parts, floating point (exp, log1p), string formatting
/// with std::map inserts and lookups, and a dependent walk over an
/// 8 MiB table (memory latency), together slowed about as much as the
/// `ww_rt` cycles and the `fleet` days did in the host's slow stretches.
double probe_ms();
/// About the probe's time on the 4-vCPU host it was sized on, in its
/// fast stretches; a host running at this speed reports raw times.
constexpr double kProbeRefMs = 1.5;
/// Bytes the probe keeps resident (its table), left out of peak_rss_mb.
constexpr double kProbeTableBytes = 8.0 * 1024 * 1024;
/// Mean probe time over `probes` divided by kProbeRefMs; 1 when empty.
double slowdown(const std::vector<double>& probes);

// --- wall-clock spans ----------------------------------------------
/// In-memory span recorder for the traced run. A span is named after
/// the layer whose public function it wraps ("<layer>.<call>"); its
/// parent is the innermost open span; `tag` carries the cycle, day or
/// request id.
class SpanLog {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint64_t tag = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  SpanLog() { spans_.reserve(1 << 16); }

  int begin(const char* name, std::uint64_t tag = 0);
  void end(int id);

  /// Self time (ms) per layer, the span name's prefix before '.'. A
  /// span's self time is its duration minus the part of it covered by
  /// its child spans.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Write every span as TSV: id, parent, name, tag, start_ns, end_ns
  /// (relative to the first span).
  void write_tsv(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> name_ids_;
};

/// RAII span; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, std::uint64_t tag = 0)
      : log_(log), id_(log != nullptr ? log->begin(name, tag) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// Per-layer self-time table of one traced repetition. Starts from the
/// span self times; a layer replay that measured an internal layer
/// moves that time out of the layer span that enclosed it (`from`).
class LayerTimes {
 public:
  LayerTimes(const SpanLog& spans, double wall_ms);
  void carve(const std::string& from, const std::string& to, double ms);
  /// Share of the repetition's wall time the layer self times cover.
  double coverage() const;
  std::vector<std::string> table() const;

 private:
  std::map<std::string, double> ms_;
  double wall_ms_;
  double clamped_ms_ = 0.0;  // replay time beyond its enclosing span
};

// --- correctness checks and their self-test ------------------------
/// A workload's checks over its collected outputs `Obs`, plus one
/// corruption per check; the self-test proves each check fires on its
/// corrupted copy.
template <class Obs>
struct CheckSuite {
  std::function<std::vector<Check>(const Obs&)> evaluate;
  std::vector<std::pair<std::string, std::function<void(Obs&)>>> corruptions;
};

/// Returns false (with reasons in `log`) unless every check passes on
/// `obs` and each corruption makes its named check fail.
template <class Obs>
bool self_test(const std::string& workload, const Obs& obs,
               const CheckSuite<Obs>& suite, std::vector<std::string>& log) {
  bool ok = true;
  for (const Check& c : suite.evaluate(obs)) {
    if (!c.ok) {
      log.push_back(workload + ": clean output fails " + c.name + " (" +
                    c.detail + ")");
      ok = false;
    }
  }
  for (const auto& [name, corrupt] : suite.corruptions) {
    Obs bad = obs;
    corrupt(bad);
    bool fired = false;
    for (const Check& c : suite.evaluate(bad)) {
      if (c.name == name && !c.ok) fired = true;
    }
    log.push_back(workload + ": corrupted " + name + " -> " +
                  (fired ? "check fired" : "CHECK DID NOT FIRE"));
    ok = ok && fired;
  }
  return ok;
}

// --- the crypto layer replay, shared by the workloads ----------------
/// (recorded SHA-256 hex, payload bytes) pairs read back from a run.
using Payloads = std::vector<std::pair<std::string, std::string>>;

/// Hash every payload with crypto::Sha256::hash_hex; each must equal
/// the checksum MetadataDb recorded. Fills the crypto.sha256.* values.
struct HashReplay {
  Check check{"replay.sha256_matches_recorded", true, ""};
  double ms = 0.0;
};
HashReplay replay_sha256(const Payloads& payloads,
                         std::map<std::string, double>& values);

// --- the metric sets ------------------------------------------------
/// End-to-end metrics, the same names on every workload (what each
/// means per workload is in README.md).
struct EndToEnd {
  /// Set-up samples (build, registration, launch), each with the host
  /// slowdown of its round.
  std::vector<std::pair<double, double>> setups;
  std::vector<double> walls;  // time to solution of each repetition
  std::vector<std::vector<double>> op_ms;  // per-operation, per repetition
  std::vector<double> slowdowns;  // host slowdown of each repetition's round

  /// Adds one repetition; its times are raw wall clock.
  void add(double wall_s, std::vector<double> ops, double slowdown);
  /// Medians over set-ups and repetitions; with `adjusted` each sample
  /// is first divided by its slowdown (the reported metrics), without
  /// it the raw wall-clock figures (printed beside them).
  double setup_s(bool adjusted = true) const;
  double wall_s(bool adjusted = true) const;
  /// The q-quantile of each repetition's operation latencies, then the
  /// median over repetitions: a slow spell of the host that covers less
  /// than half of the repetitions does not move it.
  double op_quantile(double q, bool adjusted = true) const;
};
/// Notes failed_ratio and the repetition walls; with `trace` off also
/// emits the end-to-end metrics.
void finish(Outcome& out, const EndToEnd& e2e, bool trace);

/// Per-layer metrics: every name in the fixed catalog is emitted, in
/// catalog order; layers a workload does not exercise report 0.
void emit_per_layer(Outcome& out, const std::map<std::string, double>& values);

// --- workloads -----------------------------------------------------
Outcome run_ww_rt(const Options& options);
Outcome run_fleet(const Options& options);
Outcome run_gsa(const Options& options);

/// Each runs the workload once at reduced size and self-tests its
/// checks; appends a line per check to `log`.
bool self_test_ww_rt(std::vector<std::string>& log);
bool self_test_fleet(std::vector<std::string>& log);
bool self_test_gsa(std::vector<std::string>& log);

/// "%.6g"-style formatting for notes.
std::string fmt(double value, int precision = 6);

}  // namespace perfbench
