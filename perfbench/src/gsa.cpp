/// Workload `gsa`: paper use case 2 through core::GsaUseCase — N
/// interleaved MUSIC instances over MetaRVM, evaluated by an EMEWS
/// worker pool launched through the simulated PBS. A closed loop: each
/// instance submits its next point only after its last one returned.
/// Three workers plus the driver thread; the GP fits run serially on
/// the driver (GpConfig::parallel off, bit-identical either way) so the
/// workload stays inside the thread budget.
///
/// The platform's task database stamps tasks with the process's steady
/// clock, so the benchmark reads per-iteration wall times straight from
/// the task records.

#include <algorithm>
#include <map>
#include <memory>

#include "bench.hpp"
#include "core/metarvm_gsa.hpp"
#include "core/platform.hpp"
#include "core/usecase_gsa.hpp"
#include "emews/task_db.hpp"
#include "epi/metarvm.hpp"
#include "gsa/music.hpp"
#include "util/log.hpp"

namespace perfbench {
namespace {

using namespace osprey;

struct GsaSize {
  std::size_t replicates = 4;
  std::size_t evaluations = 120;  // per instance
  std::size_t workers = 3;
};

core::GsaUseCaseConfig make_config(std::uint64_t seed, const GsaSize& size) {
  core::GsaUseCaseConfig config;
  config.n_replicates = size.replicates;
  config.n_workers = size.workers;
  config.music.n_total = size.evaluations;
  config.music.seed = seed;
  config.music.gp.parallel = false;
  config.model_seed = seed + 2024;
  return config;
}

struct GsaRep {
  double setup_s = 0.0;  // to the first task submission
  double wall_s = 0.0;   // to every instance spending its budget
  std::vector<double> iteration_ms;  // per instance, submit to next submit
  double slowdown = 1.0;  // host slowdown of the repetition's round
  std::vector<std::vector<double>> s1;  // per replicate
  std::uint64_t tasks = 0;
  std::uint64_t failed_tasks = 0;
  std::uint64_t evaluations = 0;
  double pool_utilization = 0.0;
  std::uint64_t driver_polls = 0;
  int threads_max = 1;
};

GsaRep run_once(std::uint64_t seed, const GsaSize& size, SpanLog* spans) {
  const std::int64_t t0 = now_ns();
  GsaRep rep;
  std::unique_ptr<core::OspreyPlatform> platform;
  std::unique_ptr<core::GsaUseCase> usecase;
  {
    ScopedSpan span(spans, "core.build");
    platform = std::make_unique<core::OspreyPlatform>();
    usecase = std::make_unique<core::GsaUseCase>(*platform,
                                                 make_config(seed, size));
  }
  // The pool's and the driver's log lines mark points inside run();
  // count the process's threads at each of them. The sink runs under
  // the log's own lock.
  int threads_seen = thread_count();
  const util::LogLevel level = util::log_level();
  util::set_log_level(util::LogLevel::kInfo);
  util::LogSink previous = util::set_log_sink(
      [&threads_seen](util::LogLevel, const std::string&, const std::string&) {
        threads_seen = std::max(threads_seen, thread_count());
      });
  core::GsaUseCaseResult result;
  {
    ScopedSpan span(spans, "core.gsa_run");
    result = usecase->run();
  }
  rep.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  util::set_log_sink(std::move(previous));
  util::set_log_level(level);
  rep.threads_max = threads_seen;

  emews::TaskDb& db = platform->task_db();
  std::map<std::int64_t, std::vector<std::uint64_t>> submits;  // by replicate
  std::uint64_t first_submit = UINT64_MAX;
  for (emews::TaskId id = 0; id < db.total_submitted(); ++id) {
    emews::TaskRecord rec = db.snapshot(id);
    if (rec.status == emews::TaskStatus::kFailed) ++rep.failed_tasks;
    first_submit = std::min(first_submit, rec.submitted_ns);
    submits[rec.payload.at("replicate").as_int()].push_back(rec.submitted_ns);
  }
  rep.tasks = db.total_submitted();
  rep.setup_s = static_cast<double>(static_cast<std::int64_t>(first_submit) - t0) / 1e9;
  rep.wall_s -= rep.setup_s;
  for (const auto& [replicate, times] : submits) {
    // The refinement phase: one point per iteration of the closed loop.
    for (std::size_t k = make_config(seed, size).music.n_init + 1;
         k < times.size(); ++k) {
      rep.iteration_ms.push_back(static_cast<double>(times[k] - times[k - 1]) / 1e6);
    }
  }
  for (const gsa::MusicResult& r : result.replicates) {
    rep.s1.push_back(r.final_s1);
    rep.evaluations += r.evaluations;
  }
  rep.pool_utilization = result.pool_utilization;
  rep.driver_polls = result.driver_polls;
  return rep;
}

// --- checks -------------------------------------------------------------

constexpr std::size_t kTv = 1;  // Table 1 order: ts, tv, pea, psh, phd
constexpr double kInertMax = 0.05;

struct GsaObs {
  std::vector<GsaRep> reps;
  std::size_t expected_evaluations = 0;
};

std::vector<Check> evaluate_checks(const GsaObs& obs) {
  Check same{"gsa.s1_repeats", true, ""};
  Check range{"gsa.s1_in_unit_interval", true, ""};
  Check inert{"gsa.inert_tv_near_zero", true, ""};
  Check tasks{"gsa.tasks_complete", true, ""};
  for (const GsaRep& r : obs.reps) {
    if (r.s1 != obs.reps.front().s1) {
      same.ok = false;
      same.detail = "S1 differs between runs of a seed";
    }
    for (const auto& s1 : r.s1) {
      for (double s : s1) {
        if (!(s >= 0.0 && s <= 1.0)) {
          range.ok = false;
          range.detail = "S1 " + fmt(s);
        }
      }
      if (s1.size() <= kTv || !(s1[kTv] < kInertMax)) {
        inert.ok = false;
        inert.detail = "S1(tv) " + (s1.size() > kTv ? fmt(s1[kTv]) : "missing");
      }
    }
    if (r.failed_tasks > 0 || r.evaluations != obs.expected_evaluations ||
        r.tasks != obs.expected_evaluations) {
      tasks.ok = false;
      tasks.detail = std::to_string(r.failed_tasks) + " failed, " +
                     std::to_string(r.evaluations) + " of " +
                     std::to_string(obs.expected_evaluations) + " evaluations";
    }
  }
  if (obs.reps.size() < 2) {
    same.ok = false;
    same.detail = "needs two runs of the seed";
  }
  return {same, range, inert, tasks};
}

CheckSuite<GsaObs> check_suite() {
  CheckSuite<GsaObs> suite;
  suite.evaluate = evaluate_checks;
  suite.corruptions = {
      {"gsa.s1_repeats", [](GsaObs& o) { o.reps.back().s1[0][0] += 1e-12; }},
      {"gsa.s1_in_unit_interval", [](GsaObs& o) { o.reps.front().s1[0][0] = 1.5; o.reps.back().s1[0][0] = 1.5; }},
      {"gsa.inert_tv_near_zero",
       [](GsaObs& o) { for (auto& r : o.reps) r.s1[0][kTv] = 0.3; }},
      {"gsa.tasks_complete", [](GsaObs& o) { o.reps.back().failed_tasks = 1; }},
  };
  return suite;
}

/// gsa/gp + epi: replicate 0 re-run synchronously through MusicEngine
/// and evaluate_metarvm_qoi; must reproduce the interleaved run's S1.
struct GsaReplay {
  Check same{"replay.music_reproduces_replicate0", true, ""};
  std::vector<double> advance_ms;
  std::vector<double> eval_ms;
};

GsaReplay replay_music(std::uint64_t seed, const GsaSize& size,
                       const std::vector<double>& s1) {
  GsaReplay out;
  core::GsaUseCaseConfig config = make_config(seed, size);
  gsa::MusicConfig mc = config.music;
  mc.seed = config.music.seed + 0;
  epi::MetaRvm model(config.model);
  gsa::MusicEngine engine(mc);
  auto evaluate = [&](const gsa::Vector& x) {
    auto t = Clock::now();
    double y = core::evaluate_metarvm_qoi(model, x, config.model_seed, 0);
    out.eval_ms.push_back(ms_since(t));
    return y;
  };
  gsa::Matrix design = engine.initial_design_box();
  for (std::size_t i = 0; i < design.rows(); ++i) {
    gsa::Vector x = design.row(i);
    engine.ingest(x, evaluate(x));
  }
  for (;;) {
    auto t = Clock::now();
    std::optional<gsa::Vector> next = engine.advance();
    out.advance_ms.push_back(ms_since(t));
    if (!next) break;
    engine.ingest(*next, evaluate(*next));
  }
  if (engine.result().final_s1 != s1) {
    out.same.ok = false;
    out.same.detail = "synchronous replicate 0 S1 differs";
  }
  return out;
}

constexpr int kSetupOnlyPerRep = 2;
/// Probes run before and after each repetition and each set-up-only
/// one; more of them average over the host's fast and slow spells.
constexpr int kProbesAround = 10;

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

Outcome run_gsa(const Options& options) {
  Outcome out;
  const GsaSize size;
  out.threads = {std::to_string(size.workers) + " pool workers + driver",
                 static_cast<int>(size.workers) + 1, 1};
  GsaObs obs;
  obs.expected_evaluations = size.replicates * size.evaluations;
  std::map<std::string, double> v;

  EndToEnd e2e;
  if (!options.trace) {
    // Set-up ends at the first task submission, before any MUSIC
    // refinement, so a set-up-only repetition runs the same use case
    // with the budget cut to the initial design.
    GsaSize setup_size = size;
    setup_size.evaluations = make_config(options.seed, size).music.n_init;
    // GsaUseCase::run gives no point between iterations to probe at
    // from outside, so the probes bracket each repetition.
    repeat_for(options.seconds, 2, [&] {
      auto t = Clock::now();
      std::vector<double> probes;
      for (int i = 0; i < kProbesAround; ++i) probes.push_back(probe_ms());
      obs.reps.push_back(run_once(options.seed, size, nullptr));
      for (int i = 0; i < kProbesAround; ++i) probes.push_back(probe_ms());
      std::vector<double> round_setups;
      for (int i = 0; i < kSetupOnlyPerRep; ++i) {
        round_setups.push_back(
            run_once(options.seed, setup_size, nullptr).setup_s);
        for (int k = 0; k < kProbesAround; ++k) probes.push_back(probe_ms());
      }
      obs.reps.back().slowdown = slowdown(probes);
      for (double s : round_setups) e2e.setups.emplace_back(s, slowdown(probes));
      return seconds_since(t);
    });
  } else {
    obs.reps.push_back(run_once(options.seed, size, nullptr));
    SpanLog spans;
    {
      ScopedSpan root(&spans, "bench.rep");
      obs.reps.push_back(run_once(options.seed, size, &spans));
    }
    // Layer shares are of the traced repetition's end-to-end wall time
    // (set-up plus run); the benchmark's own reads are "bench" spans.
    const double traced_ms =
        (obs.reps.back().setup_s + obs.reps.back().wall_s) * 1e3;
    spans.write_tsv(kOutDir + "/spans-gsa.tsv");

    const GsaRep& base = obs.reps.front();
    v["emews.tasks"] = static_cast<double>(base.tasks);
    v["emews.pool_utilization"] = base.pool_utilization;
    v["emews.driver_polls"] = static_cast<double>(base.driver_polls);
    v["core.build_ms"] = obs.reps.back().setup_s * 1e3;
    v["obs.bench_trace_overhead_pct"] =
        100.0 * (obs.reps.back().wall_s - base.wall_s) / base.wall_s;

    LayerTimes layers(spans, traced_ms);
    if (options.only_replay.empty() || options.only_replay == "gsa") {
      GsaReplay rp = replay_music(options.seed, size, base.s1.front());
      out.checks.push_back(rp.same);
      v["gsa.advance.calls"] = static_cast<double>(rp.advance_ms.size());
      v["gsa.advance.ms"] = mean(rp.advance_ms);
      v["epi.metarvm.evals"] = static_cast<double>(rp.eval_ms.size());
      v["epi.metarvm.eval_ms"] = mean(rp.eval_ms);
      // Every instance advances on the driver thread, so replicate 0's
      // advance time scaled by the instance count comes out of the run.
      // MetaRVM evaluations run on the workers beside the driver, off
      // its blocking path, so they are reported but not carved.
      double advance_total = 0.0;
      for (double x : rp.advance_ms) advance_total += x;
      layers.carve("core", "gsa",
                   static_cast<double>(size.replicates) * advance_total);
    }
    v["bench.layer_coverage"] = layers.coverage();
    out.note("traced repetition, layer self times (core = GsaUseCase::run "
             "minus the replayed MUSIC advance):");
    for (const std::string& line : layers.table()) out.note(line);
    emit_per_layer(out, v);
  }

  for (const Check& c : evaluate_checks(obs)) out.checks.push_back(c);
  for (const GsaRep& r : obs.reps) {
    out.attempted += r.tasks;
    out.failed += r.failed_tasks;
    out.threads.observed_max = std::max(out.threads.observed_max, r.threads_max);
    e2e.setups.emplace_back(r.setup_s, r.slowdown);
    e2e.add(r.wall_s, r.iteration_ms, r.slowdown);
  }
  const GsaRep& r0 = obs.reps.front();
  out.note("gsa: " + std::to_string(obs.reps.size()) + " repetition(s), " +
           std::to_string(size.replicates) + " MUSIC instances x " +
           std::to_string(size.evaluations) + " evaluations on " +
           std::to_string(size.workers) + " workers");
  out.note("  gsa_wall_s = " + fmt(e2e.wall_s()) + " s, iteration p50 " +
           fmt(e2e.op_quantile(0.5)) + " ms, pool utilization " +
           fmt(r0.pool_utilization));
  std::string s1 = "  replicate 0 S1 (ts, tv, pea, psh, phd) =";
  for (double s : r0.s1.front()) {
    s1 += ' ';
    s1 += fmt(s, 4);
  }
  out.note(s1);
  finish(out, e2e, options.trace);
  return out;
}

bool self_test_gsa(std::vector<std::string>& log) {
  GsaSize size;
  size.replicates = 2;
  size.evaluations = 40;
  GsaObs obs;
  obs.expected_evaluations = size.replicates * size.evaluations;
  obs.reps.push_back(run_once(7, size, nullptr));
  obs.reps.push_back(run_once(7, size, nullptr));
  bool ok = self_test("gsa", obs, check_suite(), log);

  // The layer replay's equality check: clean, then against a corrupted S1.
  std::vector<double> s1 = obs.reps.front().s1.front();
  bool clean = replay_music(7, size, s1).same.ok;
  s1[0] += 1e-12;
  bool fired = !replay_music(7, size, s1).same.ok;
  if (!clean) log.push_back("gsa: clean replay fails replay.music_reproduces_replicate0");
  log.push_back(std::string("gsa: corrupted replay.music_reproduces_replicate0 -> ") +
                (fired ? "check fired" : "CHECK DID NOT FIRE"));
  return ok && clean && fired;
}

}  // namespace perfbench
