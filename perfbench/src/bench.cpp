#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

#include "crypto/sha256.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

bool Outcome::correct() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

int available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

std::string sha256_hex(const std::string& bytes) {
  return osprey::crypto::Sha256::hash_hex(bytes);
}

void repeat_for(double seconds, int min_reps,
                const std::function<double()>& rep) {
  auto t0 = Clock::now();
  int reps = 0;
  double last = 0.0;
  while (reps < min_reps || seconds_since(t0) + last <= seconds) {
    last = rep();
    ++reps;
  }
}

namespace {
// The probe's result goes here, so the compiler cannot drop its work.
volatile double probe_sink = 0.0;
}  // namespace

double probe_ms() {
  static const std::vector<double> fp = [] {
    std::vector<double> v(4096);
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = 0.5 + 0.25 * std::sin(0.1 * i);
    return v;
  }();
  // One cycle through a random permutation, so each step depends on
  // the last and misses the caches.
  static const std::vector<std::uint32_t> table = [] {
    const std::size_t n = static_cast<std::size_t>(kProbeTableBytes) / 4;
    std::vector<std::uint32_t> order(n), next(n);
    for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 88172645463325252ull;  // xorshift64
    for (std::size_t i = n - 1; i > 0; --i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::swap(order[i], order[x % i]);
    }
    for (std::size_t i = 0; i < n; ++i) next[order[i]] = order[(i + 1) % n];
    return next;
  }();
  static std::uint32_t at = 0;

  auto t = Clock::now();
  double acc = 0.0;
  for (int r = 1; r <= 4; ++r) {
    for (double x : fp) acc += std::exp(-x * r) * std::log1p(x);
  }
  std::map<std::string, int> keys;
  char buf[32];
  for (int i = 0; i < 300; ++i) {
    std::snprintf(buf, sizeof(buf), "k%07.3f", i * 1.37);
    keys[buf] = i;
  }
  for (int i = 0; i < 600; ++i) {
    std::snprintf(buf, sizeof(buf), "k%07.3f", (i % 300) * 1.37);
    acc += static_cast<double>(keys.count(buf));
  }
  for (int i = 0; i < 5000; ++i) at = table[at];
  const double ms = ms_since(t);
  probe_sink = acc + at;
  return ms;
}

double slowdown(const std::vector<double>& probes) {
  if (probes.empty()) return 1.0;
  double sum = 0.0;
  for (double p : probes) sum += p;
  return sum / static_cast<double>(probes.size()) / kProbeRefMs;
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
  return buf;
}

HashReplay replay_sha256(const Payloads& payloads,
                         std::map<std::string, double>& values) {
  HashReplay out;
  double bytes = 0.0;
  for (const auto& [checksum, body] : payloads) {
    auto t = Clock::now();
    std::string hex = sha256_hex(body);
    out.ms += ms_since(t);
    bytes += static_cast<double>(body.size());
    if (hex != checksum) {
      out.check.ok = false;
      out.check.detail = "payload checksum differs";
    }
  }
  if (payloads.empty()) {
    out.check.ok = false;
    out.check.detail = "no payloads read back";
  }
  values["crypto.sha256.calls"] = static_cast<double>(payloads.size());
  values["crypto.sha256.bytes"] = bytes;
  values["crypto.sha256.ms"] = out.ms;
  return out;
}

// --- metric sets -----------------------------------------------------

void finish(Outcome& out, const EndToEnd& e2e, bool trace) {
  out.note("  failed_ratio = " +
           fmt(out.attempted ? static_cast<double>(out.failed) /
                                   static_cast<double>(out.attempted)
                             : 0.0));
  std::string walls = "  repetition wall_s (raw):";
  std::string slow = "  repetition host slowdown:";
  for (std::size_t r = 0; r < e2e.walls.size(); ++r) {
    walls += ' ' + fmt(e2e.walls[r], 4);
    slow += ' ' + fmt(e2e.slowdowns[r], 3);
  }
  out.note(walls);
  out.note(slow);
  if (trace) return;
  out.note("  raw wall clock: setup_s " + fmt(e2e.setup_s(false)) +
           ", wall_s " + fmt(e2e.wall_s(false)) + ", op_ms_p50 " +
           fmt(e2e.op_quantile(0.50, false)) + ", op_ms_p75 " +
           fmt(e2e.op_quantile(0.75, false)));
  out.metric("setup_s", e2e.setup_s(), "s");
  out.metric("peak_rss_mb", peak_rss_mb() - kProbeTableBytes / (1024 * 1024),
             "MB");
  out.metric("wall_s", e2e.wall_s(), "s");
  out.metric("op_ms_p50", e2e.op_quantile(0.50), "ms");
  out.metric("op_ms_p75", e2e.op_quantile(0.75), "ms");
}

void EndToEnd::add(double wall_s, std::vector<double> ops, double slowdown) {
  walls.push_back(wall_s);
  op_ms.push_back(std::move(ops));
  slowdowns.push_back(slowdown);
}

double EndToEnd::setup_s(bool adjusted) const {
  std::vector<double> v;
  for (const auto& [s, slow] : setups) v.push_back(adjusted ? s / slow : s);
  return median(v);
}

double EndToEnd::wall_s(bool adjusted) const {
  std::vector<double> v;
  for (std::size_t r = 0; r < walls.size(); ++r) {
    v.push_back(adjusted ? walls[r] / slowdowns[r] : walls[r]);
  }
  return median(v);
}

double EndToEnd::op_quantile(double q, bool adjusted) const {
  std::vector<double> per_rep;
  for (std::size_t r = 0; r < op_ms.size(); ++r) {
    per_rep.push_back(quantile(op_ms[r], q) / (adjusted ? slowdowns[r] : 1.0));
  }
  return median(per_rep);
}

namespace {

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"rt.refit_full.calls", "count"},
    {"rt.refit_full.ms", "ms"},
    {"rt.refit_warm.calls", "count"},
    {"rt.refit_warm.ms_p50", "ms"},
    {"rt.refit_warm.ms_p75", "ms"},
    {"rt.ensemble.ms", "ms"},
    {"rt.cycles", "count"},
    {"rt.rmse", "Rt"},
    {"rt.cov95_gap", "ratio"},
    {"util.csv.parse_ms", "ms"},
    {"util.csv.format_ms", "ms"},
    {"util.value.parse_ms", "ms"},
    {"util.value.to_json_ms", "ms"},
    {"crypto.sha256.calls", "count"},
    {"crypto.sha256.bytes", "bytes"},
    {"crypto.sha256.ms", "ms"},
    {"aero.polls", "count"},
    {"aero.updates", "count"},
    {"aero.runs", "count"},
    {"aero.db.queries", "count"},
    {"aero.db.updates", "count"},
    {"aero.db.snapshot_ms", "ms"},
    {"aero.wal.appends", "count"},
    {"aero.wal.bytes", "bytes"},
    {"aero.wal.syncs", "count"},
    {"aero.wal.recover_ms", "ms"},
    {"fabric.events", "count"},
    {"fabric.ns_per_event", "ns"},
    {"fabric.idle_step_us_p50", "us"},
    {"shard.epoch_ms_p50", "ms"},
    {"shard.epoch_ms_p80", "ms"},
    {"shard.partitions", "count"},
    {"shard.speedup", "x"},
    {"shard.efficiency", "ratio"},
    {"serve.hits", "count"},
    {"serve.misses", "count"},
    {"serve.revalidates", "count"},
    {"serve.invalidations", "count"},
    {"serve.hit_ratio", "ratio"},
    {"serve.shed", "count"},
    {"serve.lookup_us_p50", "us"},
    {"emews.tasks", "count"},
    {"emews.pool_utilization", "ratio"},
    {"emews.driver_polls", "count"},
    {"gsa.advance.calls", "count"},
    {"gsa.advance.ms", "ms"},
    {"epi.metarvm.evals", "count"},
    {"epi.metarvm.eval_ms", "ms"},
    {"core.build_ms", "ms"},
    {"core.harness_calls", "count"},
    {"obs.bench_trace_overhead_pct", "%"},
    {"obs.sim_trace_overhead_pct", "%"},
    {"bench.layer_coverage", "ratio"},
};

}  // namespace

void emit_per_layer(Outcome& out,
                    const std::map<std::string, double>& values) {
  for (const auto& [name, unit] : kPerLayer) {
    auto it = values.find(name);
    out.metric(name, it == values.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const auto& entry : kPerLayer) known = known || name == entry.first;
    if (!known) out.note("unlisted per-layer metric dropped: " + name);
  }
}

// --- SpanLog ---------------------------------------------------------

int SpanLog::begin(const char* name, std::uint64_t tag) {
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<std::uint32_t>(names_.size()));
  if (inserted) names_.emplace_back(name);
  Span s;
  s.name = it->second;
  s.parent = open_.empty() ? -1 : open_.back();
  s.tag = tag;
  s.start_ns = now_ns();
  spans_.push_back(s);
  int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, double> SpanLog::self_ms_by_layer() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string& name = names_[s.name];
    out[name.substr(0, name.find('.'))] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
  }
  return out;
}

void SpanLog::write_tsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "id\tparent\tname\ttag\tstart_ns\tend_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%zu\t%d\t%s\t%llu\t%lld\t%lld\n", i, s.parent,
                 names_[s.name].c_str(),
                 static_cast<unsigned long long>(s.tag),
                 static_cast<long long>(s.start_ns - base),
                 static_cast<long long>(s.end_ns - base));
  }
  std::fclose(f);
}

// --- LayerTimes --------------------------------------------------------

LayerTimes::LayerTimes(const SpanLog& spans, double wall_ms)
    : ms_(spans.self_ms_by_layer()), wall_ms_(wall_ms) {
  // The root "bench" span is the benchmark's own glue, not a layer.
  ms_.erase("bench");
}

void LayerTimes::carve(const std::string& from, const std::string& to,
                       double ms) {
  double moved = std::min(ms, ms_[from]);
  clamped_ms_ += ms - moved;
  ms_[from] -= moved;
  ms_[to] += moved;
}

double LayerTimes::coverage() const {
  double sum = 0.0;
  for (const auto& [layer, ms] : ms_) sum += ms;
  return wall_ms_ > 0.0 ? sum / wall_ms_ : 0.0;
}

std::vector<std::string> LayerTimes::table() const {
  std::vector<std::string> lines;
  for (const auto& [layer, ms] : ms_) {
    lines.push_back("  layer " + layer + ": self " + fmt(ms, 5) + " ms (" +
                    fmt(wall_ms_ > 0 ? 100.0 * ms / wall_ms_ : 0.0, 3) +
                    "% of wall)");
  }
  if (clamped_ms_ > 0.0) {
    lines.push_back("  replays measured " + fmt(clamped_ms_, 4) +
                    " ms more than their enclosing spans held (the host's "
                    "speed changed between run and replay); shares are "
                    "estimates");
  }
  return lines;
}

}  // namespace perfbench
