/// Workload `ww_rt`: the paper's Figure-1 pipeline, sample to served
/// R(t). Four plants publish every IWSS sample as it lands; AERO polls
/// daily, runs the warm-start Goldstein refits and the population-
/// weighted ensemble, writes its metadata through the WAL (over a
/// MemFs), and a serve::FrontEnd reads the ensemble after each cycle.
/// Virtual time is stepped from outside, one poll period at a time, so
/// each cycle's wall time runs from the poll that sees a new sample to
/// the refreshed ensemble being served fresh.

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>

#include "aero/wal.hpp"
#include "bench.hpp"
#include "core/platform.hpp"
#include "core/usecase_ww.hpp"
#include "fabric/auth.hpp"
#include "num/rng.hpp"
#include "num/stats.hpp"
#include "rt/ensemble.hpp"
#include "rt/goldstein.hpp"
#include "serve/cache.hpp"
#include "serve/frontend.hpp"
#include "util/csv.hpp"
#include "util/durable_fs.hpp"
#include "util/string_util.hpp"
#include "util/value.hpp"

namespace perfbench {
namespace {

using namespace osprey;
using util::kDay;
using util::kHour;
using util::kSecond;

struct WwSize {
  int horizon_days = 120;
};

/// What one repetition observed.
struct WwRep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> cycle_ms;      // poll seeing a new sample -> served
  double slowdown = 1.0;  // host slowdown of the repetition's round
  std::vector<double> idle_step_us;  // poll periods with nothing new
  int cycles = 0;
  int fresh_cycles = 0;
  int aggregate_versions = 0;
  std::string db_digest;  // SHA-256 of the MetadataDb snapshot
  double rmse = 0.0;
  double cov95 = 0.0;
  std::map<std::string, double> counts;  // per-layer counters
  int threads_max = 1;
};

/// Inputs and outputs of every analysis in one repetition, read back
/// from storage for the layer replays.
struct WwCapture {
  std::vector<std::vector<std::string>> inputs;     // [plant][run] csv
  std::vector<std::vector<std::string>> summaries;  // [plant][run] csv
  std::vector<std::string> aggregates;              // [publication] csv
  std::vector<std::string> draws_uuids;             // [plant]
  Payloads payloads;
  util::MemFs fs;
  std::string db_json;
  double snapshot_ms = 0.0;
  double lookup_us_p50 = 0.0;
};

// --- the harness's serialization, reproduced for the replays ---------
// core/usecase_ww.cpp keeps these in an anonymous namespace; the rt
// replay must produce the same bytes to prove it did the same work.

std::vector<epi::WwSample> parse_samples(const std::string& csv) {
  util::CsvTable table = util::CsvTable::parse(csv);
  std::vector<epi::WwSample> out;
  out.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    epi::WwSample s;
    s.day = static_cast<int>(table.cell_double(r, "day"));
    s.concentration = table.cell_double(r, "concentration_gc_per_l");
    out.push_back(s);
  }
  return out;
}

std::string series_to_csv(const rt::RtSeries& series) {
  util::CsvTable table({"day", "median", "lo95", "hi95"});
  for (std::size_t t = 0; t < series.days(); ++t) {
    table.add_row({std::to_string(t), util::format("%.6f", series.median[t]),
                   util::format("%.6f", series.lo95[t]),
                   util::format("%.6f", series.hi95[t])});
  }
  return table.to_string();
}

std::string draws_to_csv(const rt::RtPosterior& posterior, int max_draws) {
  std::vector<std::string> header;
  for (std::size_t t = 0; t < posterior.days(); ++t) {
    header.push_back("d" + std::to_string(t));
  }
  util::CsvTable table(header);
  std::size_t n = std::min<std::size_t>(posterior.n_draws(),
                                        static_cast<std::size_t>(max_draws));
  for (std::size_t d = 0; d < n; ++d) {
    std::vector<std::string> row;
    row.reserve(posterior.days());
    for (std::size_t t = 0; t < posterior.days(); ++t) {
      row.push_back(util::format("%.5f", posterior.draws(d, t)));
    }
    table.add_row(std::move(row));
  }
  return table.to_string();
}

rt::RtPosterior csv_to_posterior(const std::string& csv) {
  util::CsvTable table = util::CsvTable::parse(csv);
  rt::RtPosterior out;
  out.draws = num::Matrix(table.num_rows(), table.num_cols());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const auto& row = table.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      out.draws(r, c) = std::strtod(row[c].c_str(), nullptr);
    }
  }
  return out;
}

std::vector<double> trimmed(const std::vector<double>& v, std::size_t k) {
  if (v.size() <= 2 * k) return v;
  return std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(k),
                             v.end() - static_cast<std::ptrdiff_t>(k));
}

double counter(core::OspreyPlatform& platform, const char* name) {
  return static_cast<double>(platform.metrics().counter(name).value());
}

// --- one repetition ----------------------------------------------------

/// One repetition: set up, step the campaign, read the ensemble after
/// each cycle. With `setup_only` it returns right after set-up. With
/// `probes` it runs the host-speed probe after each cycle, appends its
/// times there and leaves them out of the campaign's wall time.
WwRep run_once(std::uint64_t seed, const WwSize& size, SpanLog* spans,
               WwCapture* capture, bool setup_only = false,
               std::vector<double>* probes = nullptr) {
  auto t0 = Clock::now();
  WwRep rep;
  // Declared before the platform: the update listener and the WAL disk
  // must outlive the AERO server.
  std::map<std::string, int> versions_seen;
  util::MemFs fs;
  std::unique_ptr<core::OspreyPlatform> platform;
  std::unique_ptr<core::WastewaterUseCase> usecase;
  std::unique_ptr<serve::ResultCache> cache;
  std::unique_ptr<serve::FrontEnd> frontend;
  std::string token;
  {
    ScopedSpan span(spans, "core.build");
    platform = std::make_unique<core::OspreyPlatform>();
    platform->aero().enable_durability(fs);
    core::WwUseCaseConfig config;
    config.horizon_days = size.horizon_days;
    config.seed = seed;
    config.ww.publish_period_days = 1;
    usecase = std::make_unique<core::WastewaterUseCase>(*platform, config);
    usecase->build();
    cache = std::make_unique<serve::ResultCache>(platform->aero(),
                                                 platform->metrics());
    frontend = std::make_unique<serve::FrontEnd>(
        platform->loop(), platform->auth(), *cache, platform->metrics());
    token = platform->auth().issue_token("stakeholder",
                                         {fabric::scopes::kServe});
    platform->aero().add_update_listener(
        [&versions_seen](const std::string& uuid) { ++versions_seen[uuid]; });
  }
  rep.setup_s = seconds_since(t0);
  rep.threads_max = thread_count();
  if (setup_only) {
    cache.reset();
    return rep;
  }

  core::OspreyPlatform& p = *platform;
  const std::string agg_uuid = usecase->aggregate_outputs()[0];
  const std::size_t plants = usecase->generators().size();
  if (capture != nullptr) {
    capture->inputs.assign(plants, {});
    capture->summaries.assign(plants, {});
    for (const auto& outs : usecase->analysis_outputs()) {
      capture->draws_uuids.push_back(outs[1]);
    }
  }
  auto read_latest = [&p](const std::string& uuid) {
    auto v = p.aero().db().latest_version(uuid);
    return p.storage_endpoint(v->endpoint)
        .get(v->collection, v->path, p.aero().token())
        .bytes;
  };

  const int first_day = core::WwUseCaseConfig().first_poll_day;
  auto run_start = Clock::now();
  double probe_s = 0.0;
  for (int day = first_day; day <= size.horizon_days + 1; ++day) {
    auto s0 = Clock::now();
    std::uint64_t updates_before = p.aero().updates_detected();
    int agg_before = versions_seen[agg_uuid];
    {
      ScopedSpan span(spans, "fabric.step", static_cast<std::uint64_t>(day));
      p.run_until(static_cast<util::SimTime>(day + 1) * kDay + 5 * kHour);
    }
    if (p.aero().updates_detected() == updates_before) {
      rep.idle_step_us.push_back(ms_since(s0) * 1e3);
      continue;
    }
    ++rep.cycles;
    serve::ServeResponse response;
    bool answered = false;
    {
      ScopedSpan span(spans, "serve.read", static_cast<std::uint64_t>(day));
      frontend->submit({agg_uuid, token, "stakeholders"},
                       [&](const serve::ServeResponse& r) {
                         response = r;
                         answered = true;
                       });
      p.run_until(p.loop().now() + kSecond);
    }
    const int agg_now = versions_seen[agg_uuid];
    const bool served = answered &&
                        (response.outcome == serve::ServeOutcome::kHit ||
                         response.outcome == serve::ServeOutcome::kMiss ||
                         response.outcome == serve::ServeOutcome::kRevalidate);
    const bool fresh = served && agg_now > agg_before &&
                       response.estimate.reason.empty() &&
                       !response.estimate.stale &&
                       response.estimate.version.has_value() &&
                       response.estimate.version->version == agg_now;
    if (fresh) ++rep.fresh_cycles;
    rep.cycle_ms.push_back(ms_since(s0));
    if (probes != nullptr) {
      auto p0 = Clock::now();
      probes->push_back(probe_ms());
      probe_s += seconds_since(p0);
    }

    if (capture != nullptr) {
      ScopedSpan span(spans, "bench.capture", static_cast<std::uint64_t>(day));
      for (std::size_t i = 0; i < plants; ++i) {
        const std::string& summary = usecase->analysis_outputs()[i][0];
        if (static_cast<int>(capture->summaries[i].size()) <
            versions_seen[summary]) {
          capture->inputs[i].push_back(
              read_latest(usecase->ingestions()[i].output_uuid));
          capture->summaries[i].push_back(read_latest(summary));
        }
      }
      if (agg_now > agg_before) capture->aggregates.push_back(read_latest(agg_uuid));
    }
  }
  rep.wall_s = seconds_since(run_start) - probe_s;
  rep.threads_max = std::max(rep.threads_max, thread_count());
  rep.aggregate_versions = versions_seen[agg_uuid];

  // Counters first: the reads below query the metadata db themselves.
  aero::AeroServer& aero = p.aero();
  rep.counts["aero.polls"] = static_cast<double>(aero.polls());
  rep.counts["aero.updates"] = static_cast<double>(aero.updates_detected());
  rep.counts["aero.runs"] =
      static_cast<double>(aero.ingestion_runs() + aero.analysis_runs());
  rep.counts["aero.db.queries"] = static_cast<double>(aero.db().query_count());
  rep.counts["aero.db.updates"] =
      static_cast<double>(aero.db().update_count());
  rep.counts["aero.wal.appends"] = counter(p, "aero_wal_appends_total");
  rep.counts["aero.wal.syncs"] = static_cast<double>(fs.sync_count());
  double wal_bytes = 0.0;
  for (const std::string& path : fs.list("aero-wal/")) {
    wal_bytes += static_cast<double>(fs.read(path)->size());
  }
  rep.counts["aero.wal.bytes"] = wal_bytes;
  rep.counts["fabric.events"] =
      static_cast<double>(p.loop().events_processed());
  rep.counts["rt.refit_full.calls"] = counter(p, "rt_refit_full_total");
  rep.counts["rt.refit_warm.calls"] = counter(p, "rt_refit_warm_total");
  rep.counts["serve.hits"] = static_cast<double>(cache->hits());
  rep.counts["serve.misses"] = static_cast<double>(cache->misses());
  rep.counts["serve.revalidates"] = static_cast<double>(cache->revalidates());
  rep.counts["serve.invalidations"] =
      static_cast<double>(cache->invalidations());
  rep.counts["serve.shed"] =
      static_cast<double>(frontend->shed() + frontend->denied());
  double harness_calls = 0.0;
  for (const core::HarnessInfo& h : usecase->harnesses().list()) {
    harness_calls += static_cast<double>(h.invocations);
  }
  rep.counts["core.harness_calls"] = harness_calls;

  std::string db_json = aero.db().to_json().to_json();
  rep.db_digest = sha256_hex(db_json);

  // Accuracy of the final published estimates against the generator's
  // ground truth: the four plants and the ensemble.
  std::vector<double> rmse, cov;
  for (const auto& po : usecase->plant_outputs()) {
    rmse.push_back(num::rmse(trimmed(po.series.median, 7), trimmed(po.truth, 7)));
    cov.push_back(po.series.coverage(po.truth));
  }
  if (usecase->has_aggregate()) {
    rt::RtSeries agg = usecase->aggregate_output();
    std::vector<double> truth = usecase->aggregate_truth(agg.days());
    rmse.push_back(num::rmse(trimmed(agg.median, 7), trimmed(truth, 7)));
    cov.push_back(agg.coverage(truth));
  }
  for (double v : rmse) rep.rmse += v / static_cast<double>(rmse.size());
  for (double v : cov) rep.cov95 += v / static_cast<double>(cov.size());

  if (capture != nullptr) {
    ScopedSpan span(spans, "bench.capture");
    auto s0 = Clock::now();
    util::Value snapshot = aero.db().to_json();
    capture->snapshot_ms = ms_since(s0);
    capture->db_json = snapshot.to_json();
    for (const std::string& uuid : aero.db().object_uuids()) {
      auto v = aero.db().latest_version(uuid);
      if (!v) continue;
      capture->payloads.emplace_back(v->checksum, read_latest(uuid));
    }
    capture->fs = fs;
    std::vector<double> lookup_us;
    for (int i = 0; i < 1000; ++i) {
      auto l0 = Clock::now();
      cache->lookup(agg_uuid);
      lookup_us.push_back(ms_since(l0) * 1e3);
    }
    capture->lookup_us_p50 = median(lookup_us);
  }
  cache.reset();  // detach from the server before it goes
  return rep;
}

// --- checks -------------------------------------------------------------

// Accuracy gates: an optimisation may not quietly trade estimator
// accuracy for speed.
constexpr double kMaxRmse = 0.15;
constexpr double kMaxCovGap = 0.15;

std::vector<Check> evaluate_checks(const std::vector<WwRep>& reps) {
  std::vector<Check> checks;
  Check cycles{"ww_rt.cycles_observed", true, ""};
  Check fresh{"ww_rt.every_cycle_served_fresh", true, ""};
  Check digest{"ww_rt.db_digest_repeats", true, ""};
  Check accuracy{"ww_rt.accuracy_gate", true, ""};
  for (const WwRep& r : reps) {
    if (r.cycles == 0 || r.aggregate_versions != r.cycles) {
      cycles.ok = false;
      cycles.detail = std::to_string(r.cycles) + " cycles, " +
                      std::to_string(r.aggregate_versions) + " ensembles";
    }
    if (r.fresh_cycles != r.cycles) {
      fresh.ok = false;
      fresh.detail = std::to_string(r.cycles - r.fresh_cycles) +
                     " cycle(s) not served fresh";
    }
    if (r.db_digest != reps.front().db_digest) {
      digest.ok = false;
      digest.detail = "MetadataDb snapshot differs between runs of a seed";
    }
    double gap = std::abs(r.cov95 - 0.95);
    if (!(r.rmse < kMaxRmse) || !(gap < kMaxCovGap)) {
      accuracy.ok = false;
      accuracy.detail = "rmse " + fmt(r.rmse) + ", coverage " + fmt(r.cov95);
    }
  }
  if (reps.size() < 2) {
    digest.ok = false;
    digest.detail = "needs two runs of the seed";
  }
  return {cycles, fresh, digest, accuracy};
}

CheckSuite<std::vector<WwRep>> check_suite() {
  CheckSuite<std::vector<WwRep>> suite;
  suite.evaluate = evaluate_checks;
  suite.corruptions = {
      {"ww_rt.cycles_observed",
       [](std::vector<WwRep>& r) { r.back().aggregate_versions -= 1; }},
      {"ww_rt.every_cycle_served_fresh",
       [](std::vector<WwRep>& r) { r.back().fresh_cycles -= 1; }},
      {"ww_rt.db_digest_repeats",
       [](std::vector<WwRep>& r) { r.back().db_digest[0] ^= 1; }},
      {"ww_rt.accuracy_gate", [](std::vector<WwRep>& r) { r.back().rmse = 1.0; }},
  };
  return suite;
}

// --- layer replays ------------------------------------------------------

struct Replays {
  std::map<std::string, double> values;
  std::vector<Check> checks;
  double rt_ms = 0.0, util_ms = 0.0, crypto_ms = 0.0;
};

bool wanted(const Options& o, const char* layer) {
  return o.only_replay.empty() || o.only_replay == layer;
}

/// rt (+ util.csv): every refit and ensemble, re-issued through
/// GoldsteinEstimator / aggregate_population_weighted with the
/// harness's seeds, must reproduce the published CSVs byte for byte.
void replay_rt(const WwCapture& cap, std::uint64_t seed, Replays& out) {
  const core::WwUseCaseConfig defaults;
  const std::vector<epi::Plant> plants = epi::chicago_plants();
  std::vector<double> full_ms, warm_ms, ensemble_ms;
  double parse_ms = 0.0, format_ms = 0.0;
  Check same{"replay.rt_reproduces_published", true, ""};
  std::vector<std::vector<std::string>> draws(plants.size());
  for (std::size_t i = 0; i < plants.size(); ++i) {
    rt::GoldsteinConfig conf = defaults.goldstein;
    conf.flow_liters_per_day = plants[i].avg_flow_mgd * 3.785e6;
    conf.seed = static_cast<std::uint64_t>(
        static_cast<std::int64_t>(seed * 1000 + i));
    rt::GoldsteinEstimator estimator(conf);
    rt::GoldsteinChainState state;
    for (std::size_t k = 0; k < cap.inputs[i].size(); ++k) {
      auto t = Clock::now();
      std::vector<epi::WwSample> samples = parse_samples(cap.inputs[i][k]);
      parse_ms += ms_since(t);
      const int days = samples.back().day + 1;
      const bool warm = state.valid() && days >= state.days;
      t = Clock::now();
      rt::RtPosterior posterior;
      if (warm) {
        std::uint64_t update_seed =
            num::RngStream(conf.seed).substream(state.updates + 1).next_u64();
        posterior = estimator.estimate_update(samples, days, update_seed, state);
      } else {
        posterior = estimator.estimate(samples, days, conf.seed, &state);
      }
      rt::RtSeries series = posterior.summarize();
      (warm ? warm_ms : full_ms).push_back(ms_since(t));
      t = Clock::now();
      std::string summary = series_to_csv(series);
      draws[i].push_back(draws_to_csv(posterior, defaults.aggregate_draws));
      format_ms += ms_since(t);
      if (summary != cap.summaries[i][k]) {
        same.ok = false;
        same.detail = "plant " + std::to_string(i) + " refit " +
                      std::to_string(k) + " differs";
      }
    }
  }
  // The ensemble: members in the aggregation harness's order (its
  // inputs object is keyed by draws uuid).
  std::vector<std::size_t> order(plants.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return cap.draws_uuids[a] < cap.draws_uuids[b];
  });
  for (std::size_t k = 0; k < cap.aggregates.size(); ++k) {
    std::vector<rt::EnsembleMember> members;
    std::size_t min_days = SIZE_MAX;
    auto t = Clock::now();
    for (std::size_t i : order) {
      if (k >= draws[i].size()) break;
      rt::EnsembleMember m;
      m.name = cap.draws_uuids[i];
      m.population_weight = static_cast<double>(plants[i].population_served);
      m.posterior = csv_to_posterior(draws[i][k]);
      min_days = std::min(min_days, m.posterior.days());
      members.push_back(std::move(m));
    }
    parse_ms += ms_since(t);
    if (members.size() != plants.size()) {
      same.ok = false;
      same.detail = "ensemble " + std::to_string(k) + " has no matching refits";
      break;
    }
    t = Clock::now();
    for (rt::EnsembleMember& m : members) {
      if (m.posterior.days() == min_days) continue;
      num::Matrix cut(m.posterior.n_draws(), min_days);
      for (std::size_t d = 0; d < m.posterior.n_draws(); ++d) {
        for (std::size_t c = 0; c < min_days; ++c) {
          cut(d, c) = m.posterior.draws(d, c);
        }
      }
      m.posterior.draws = std::move(cut);
    }
    rt::RtSeries series =
        rt::aggregate_population_weighted(members).summarize();
    ensemble_ms.push_back(ms_since(t));
    t = Clock::now();
    std::string csv = series_to_csv(series);
    format_ms += ms_since(t);
    if (csv != cap.aggregates[k]) {
      same.ok = false;
      same.detail = "ensemble " + std::to_string(k) + " differs";
    }
  }
  out.checks.push_back(same);
  auto mean = [](const std::vector<double>& v) {
    double s = 0.0;
    for (double x : v) s += x;
    return v.empty() ? 0.0 : s / static_cast<double>(v.size());
  };
  out.values["rt.refit_full.ms"] = mean(full_ms);
  out.values["rt.refit_warm.ms_p50"] = quantile(warm_ms, 0.50);
  out.values["rt.refit_warm.ms_p75"] = quantile(warm_ms, 0.75);
  out.values["rt.ensemble.ms"] = mean(ensemble_ms);
  out.values["util.csv.parse_ms"] = parse_ms;
  out.values["util.csv.format_ms"] = format_ms;
  for (double v : full_ms) out.rt_ms += v;
  for (double v : warm_ms) out.rt_ms += v;
  for (double v : ensemble_ms) out.rt_ms += v;
  out.util_ms += parse_ms + format_ms;
}

/// aero WAL (+ util.value): recover the run's WAL into a fresh
/// MetadataDb (must equal the live snapshot) and re-parse every logged
/// operation record.
void replay_wal(const WwCapture& cap, Replays& out) {
  Check same{"replay.wal_recovers_live_snapshot", true, ""};
  util::MemFs disk = cap.fs;
  aero::MetadataDb db(0xAE70);
  double recover_ms = 0.0;
  {
    aero::Wal wal(disk, aero::WalOptions{});
    auto t = Clock::now();
    wal.recover(db);
    recover_ms = ms_since(t);
  }
  if (db.to_json().to_json() != cap.db_json) {
    same.ok = false;
    same.detail = "recovered MetadataDb differs from the live one";
  }
  double parse_ms = 0.0, to_json_ms = 0.0;
  Check round{"replay.wal_records_round_trip", true, ""};
  for (const std::string& path : cap.fs.list("aero-wal/wal-")) {
    std::string buf = *cap.fs.read(path);
    std::size_t offset = 0;
    while (offset < buf.size()) {
      aero::DecodedRecord rec = aero::decode_record(buf, offset);
      if (rec.status != aero::DecodeStatus::kOk) {
        round.ok = false;
        round.detail = "damaged record in " + path;
        break;
      }
      offset += rec.consumed;
      auto t = Clock::now();
      util::Value v = util::Value::parse_json(rec.payload);
      parse_ms += ms_since(t);
      t = Clock::now();
      std::string json = v.to_json();
      to_json_ms += ms_since(t);
      if (json != rec.payload) {
        round.ok = false;
        round.detail = "record does not round-trip";
      }
    }
  }
  out.checks.push_back(same);
  out.checks.push_back(round);
  out.values["aero.wal.recover_ms"] = recover_ms;
  out.values["util.value.parse_ms"] = parse_ms;
  out.values["util.value.to_json_ms"] = to_json_ms;
  out.util_ms += parse_ms + to_json_ms;
}

constexpr const char* kLayout = "event loop on the caller";
constexpr int kSetupOnlyPerRep = 4;

}  // namespace

// --- entry points ---------------------------------------------------------

Outcome run_ww_rt(const Options& options) {
  Outcome out;
  out.threads = {kLayout, 1, 1};
  const WwSize size;
  std::vector<WwRep> reps;

  EndToEnd e2e;
  if (!options.trace) {
    repeat_for(options.seconds, 2, [&] {
      auto t = Clock::now();
      std::vector<double> probes;
      reps.push_back(
          run_once(options.seed, size, nullptr, nullptr, false, &probes));
      // Set-up is short next to a campaign: interleave set-up-only
      // repetitions so its median rests on samples spread over the run.
      std::vector<double> round_setups;
      for (int i = 0; i < kSetupOnlyPerRep; ++i) {
        round_setups.push_back(
            run_once(options.seed, size, nullptr, nullptr, true).setup_s);
        probes.push_back(probe_ms());
      }
      reps.back().slowdown = slowdown(probes);
      for (double s : round_setups) e2e.setups.emplace_back(s, slowdown(probes));
      return seconds_since(t);
    });
  } else {
    // One untraced repetition (counts + the overhead baseline), one
    // traced repetition, then the layer replays.
    reps.push_back(run_once(options.seed, size, nullptr, nullptr));
    SpanLog spans;
    WwCapture cap;
    {
      ScopedSpan root(&spans, "bench.rep");
      reps.push_back(run_once(options.seed, size, &spans, &cap));
    }
    // Layer shares are of the traced repetition's end-to-end wall time
    // (set-up plus run); the benchmark's own reads are "bench" spans.
    const double traced_ms =
        (reps.back().setup_s + reps.back().wall_s) * 1e3;
    spans.write_tsv(kOutDir + "/spans-ww_rt.tsv");

    Replays rp;
    if (wanted(options, "rt")) replay_rt(cap, options.seed, rp);
    if (wanted(options, "wal")) replay_wal(cap, rp);
    if (wanted(options, "crypto")) {
      HashReplay h = replay_sha256(cap.payloads, rp.values);
      rp.checks.push_back(h.check);
      rp.crypto_ms = h.ms;
    }
    for (const Check& c : rp.checks) out.checks.push_back(c);

    const WwRep& base = reps.front();
    std::map<std::string, double> v = base.counts;
    for (const auto& [k, x] : rp.values) v[k] = x;
    v["rt.cycles"] = base.cycles;
    v["rt.rmse"] = base.rmse;
    v["rt.cov95_gap"] = std::abs(base.cov95 - 0.95);
    v["aero.db.snapshot_ms"] = cap.snapshot_ms;
    v["fabric.ns_per_event"] = base.wall_s * 1e9 / v["fabric.events"];
    v["fabric.idle_step_us_p50"] = median(base.idle_step_us);
    double lookups = v["serve.hits"] + v["serve.misses"] + v["serve.revalidates"];
    v["serve.hit_ratio"] = lookups > 0 ? v["serve.hits"] / lookups : 0.0;
    v["serve.lookup_us_p50"] = cap.lookup_us_p50;
    v["core.build_ms"] = reps.back().setup_s * 1e3;
    const double untraced = base.setup_s + base.wall_s;
    const double traced = reps.back().setup_s + reps.back().wall_s;
    v["obs.bench_trace_overhead_pct"] = 100.0 * (traced - untraced) / untraced;

    LayerTimes layers(spans, traced_ms);
    layers.carve("fabric", "rt", rp.rt_ms);
    layers.carve("fabric", "util", rp.util_ms);
    layers.carve("fabric", "crypto", rp.crypto_ms);
    v["bench.layer_coverage"] = layers.coverage();
    out.note("traced repetition, layer self times (fabric = event loop, "
             "AERO and every layer not replayed):");
    for (const std::string& line : layers.table()) out.note(line);
    emit_per_layer(out, v);
  }

  for (const WwRep& r : reps) {
    out.attempted += static_cast<std::uint64_t>(r.cycles);
    out.failed += static_cast<std::uint64_t>(r.cycles - r.fresh_cycles);
    out.threads.observed_max = std::max(out.threads.observed_max, r.threads_max);
  }
  for (const Check& c : evaluate_checks(reps)) out.checks.push_back(c);

  for (const WwRep& r : reps) {
    e2e.setups.emplace_back(r.setup_s, r.slowdown);
    e2e.add(r.wall_s, r.cycle_ms, r.slowdown);
  }
  const WwRep& r0 = reps.front();
  out.note("ww_rt: " + std::to_string(reps.size()) + " repetition(s) of " +
           std::to_string(size.horizon_days) + " days, " +
           std::to_string(r0.cycles) + " cycles each");
  out.note("  rt_fresh_ms_p50 = " + fmt(e2e.op_quantile(0.50)) + " ms");
  out.note("  rt_fresh_ms_p75 = " + fmt(e2e.op_quantile(0.75)) +
           " ms (median over repetitions of " + std::to_string(r0.cycles) +
           " cycles each)");
  out.note("  ww_campaign_s = " + fmt(e2e.wall_s()) + " s");
  out.note("  rt_rmse = " + fmt(r0.rmse) + " Rt, rt_cov95_gap = " +
           fmt(std::abs(r0.cov95 - 0.95)) + " (coverage " + fmt(r0.cov95) + ")");
  finish(out, e2e, options.trace);
  return out;
}

bool self_test_ww_rt(std::vector<std::string>& log) {
  WwSize size;
  size.horizon_days = 60;
  std::vector<WwRep> reps;
  WwCapture cap;
  reps.push_back(run_once(7, size, nullptr, nullptr));
  reps.push_back(run_once(7, size, nullptr, &cap));
  bool ok = self_test("ww_rt", reps, check_suite(), log);

  // The layer replays' equality checks: clean, then one corruption each.
  auto run_replays = [](const WwCapture& c) {
    Replays rp;
    replay_rt(c, 7, rp);
    replay_wal(c, rp);
    rp.checks.push_back(replay_sha256(c.payloads, rp.values).check);
    return rp.checks;
  };
  for (const Check& c : run_replays(cap)) {
    if (!c.ok) {
      log.push_back("ww_rt: clean replay fails " + c.name + " (" + c.detail + ")");
      ok = false;
    }
  }
  std::vector<std::pair<std::string, std::function<void(WwCapture&)>>> corruptions = {
      {"replay.rt_reproduces_published",
       [](WwCapture& c) { c.aggregates.back().back() ^= 1; }},
      {"replay.wal_recovers_live_snapshot",
       [](WwCapture& c) { c.db_json.back() ^= 1; }},
      {"replay.sha256_matches_recorded",
       [](WwCapture& c) { c.payloads.front().first[0] ^= 1; }},
  };
  for (const auto& [name, corrupt] : corruptions) {
    WwCapture bad = cap;
    corrupt(bad);
    bool fired = false;
    for (const Check& c : run_replays(bad)) fired = fired || (c.name == name && !c.ok);
    log.push_back(std::string("ww_rt: corrupted ") + name + " -> " +
                  (fired ? "check fired" : "CHECK DID NOT FIRE"));
    ok = ok && fired;
  }
  return ok;
}

}  // namespace perfbench
