/// Workload `fleet`: core::make_surveillance_campaign with 1500 feeds
/// polled hourly on a 3-shard shard::ShardedFabric (tracing off), plus
/// a daily read sweep of every feed's latest analysis through
/// ShardedFabric::lookup. Analysis is a stub, so the work is fabric
/// dispatch, AERO polls and metadata, and the epoch barrier. The
/// campaign name comes from the seed, which moves every feed's
/// partition key and so its shard placement.
///
/// Not durable: ShardedFabric::enable_durability shares one DurableFs
/// across shard threads without synchronization (see README.md), so
/// the WAL is measured on `ww_rt` instead.

#include <algorithm>
#include <map>
#include <memory>

#include "bench.hpp"
#include "core/usecase_shard.hpp"
#include "shard/fabric.hpp"
#include "util/value.hpp"

namespace perfbench {
namespace {

using namespace osprey;
using util::kDay;
using util::kHour;

struct FleetSize {
  int feeds = 1500;
  int days = 56;
  std::size_t shards = 3;
  int idle_hours = 24;  // hourly steps after the last publication
};

struct FleetRep {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> day_ms;    // daily epoch + read sweep
  double slowdown = 1.0;         // host slowdown of the repetition's round
  std::vector<double> epoch_ms;  // daily epoch alone
  std::vector<double> idle_step_us;
  std::uint64_t events = 0;
  std::uint64_t aggregates = 0;
  std::uint64_t rounds = 0;
  std::uint64_t polls = 0;  // during the campaign horizon
  std::uint64_t runs = 0;
  std::uint64_t failed_runs = 0;
  std::uint64_t reads = 0;        // of published objects
  std::uint64_t stale_reads = 0;  // ... not served fresh
  std::string metrics_digest;     // SHA-256 of merged_metrics()
  std::map<std::string, double> counts;
  int threads_max = 1;
};

struct FleetCapture {
  Payloads payloads;
  double snapshot_ms = 0.0;
  double value_to_json_ms = 0.0;
  double value_parse_ms = 0.0;
  bool snapshots_round_trip = true;
  double lookup_us_p50 = 0.0;
};

std::string campaign_name(std::uint64_t seed) {
  std::string name = "s";
  name += std::to_string(seed);
  return name;
}

/// One repetition. With `probes` it runs the host-speed probe after
/// each day, appends its times there and leaves them out of the
/// campaign's wall time.
FleetRep run_once(std::uint64_t seed, const FleetSize& size,
                  std::size_t shards, bool sim_tracing, SpanLog* spans,
                  FleetCapture* capture, bool setup_only = false,
                  std::vector<double>* probes = nullptr) {
  auto t0 = Clock::now();
  FleetRep rep;
  std::unique_ptr<shard::ShardedFabric> fabric;
  shard::CampaignSpec campaign;
  {
    ScopedSpan span(spans, "core.build");
    shard::ShardedFabricConfig config;
    config.num_shards = shards;
    config.tracing = sim_tracing;
    config.seed = seed;
    fabric = std::make_unique<shard::ShardedFabric>(config);
    campaign = core::make_surveillance_campaign(
        campaign_name(seed), size.feeds, size.days, kHour);
    fabric->register_campaign(campaign);
  }
  rep.setup_s = seconds_since(t0);
  rep.threads_max = thread_count();
  if (setup_only) return rep;

  std::vector<std::string> qualified;  // "<partition>/<analysis uuid>"
  auto run_start = Clock::now();
  double probe_s = 0.0;
  for (int day = 1; day <= size.days; ++day) {
    auto s0 = Clock::now();
    {
      ScopedSpan span(spans, "shard.epoch", static_cast<std::uint64_t>(day));
      fabric->run_until(static_cast<util::SimTime>(day) * kDay);
    }
    rep.epoch_ms.push_back(ms_since(s0));
    if (qualified.empty()) {
      for (const std::string& key : fabric->partition_keys()) {
        for (const auto& feed : fabric->partition(key).feeds()) {
          qualified.push_back(key + "/" + feed.analysis_uuid);
        }
      }
    }
    for (const std::string& q : qualified) {
      ScopedSpan span(spans, "serve.lookup", static_cast<std::uint64_t>(day));
      serve::ResultCache::Result r = fabric->lookup(q);
      if (!r.estimate.version.has_value()) continue;  // not yet published
      ++rep.reads;
      if (r.estimate.stale || !r.estimate.reason.empty()) ++rep.stale_reads;
    }
    rep.day_ms.push_back(ms_since(s0));
    if (probes != nullptr) {
      auto p0 = Clock::now();
      probes->push_back(probe_ms());
      probe_s += seconds_since(p0);
    }
  }
  rep.wall_s = seconds_since(run_start) - probe_s;
  rep.threads_max = std::max(rep.threads_max, thread_count());
  auto sum_servers = [&](auto&& f) {
    std::uint64_t total = 0;
    for (const std::string& key : fabric->partition_keys()) {
      total += f(fabric->partition(key).server());
    }
    return total;
  };
  rep.polls = sum_servers([](aero::AeroServer& s) { return s.polls(); });

  for (int h = 1; h <= size.idle_hours; ++h) {
    auto s0 = Clock::now();
    fabric->run_until(static_cast<util::SimTime>(size.days) * kDay +
                      h * kHour);
    rep.idle_step_us.push_back(ms_since(s0) * 1e3);
  }

  rep.events = fabric->events_processed();
  rep.aggregates = fabric->coordinator().aggregates_published(campaign.name);
  rep.rounds = fabric->coordinator().rounds_dispatched(campaign.name);
  rep.metrics_digest = sha256_hex(fabric->merged_metrics().to_json());
  rep.runs = sum_servers([](aero::AeroServer& s) {
    return s.ingestion_runs() + s.analysis_runs();
  });
  rep.failed_runs =
      sum_servers([](aero::AeroServer& s) { return s.failed_runs(); });
  rep.counts["aero.polls"] = static_cast<double>(rep.polls);
  rep.counts["aero.updates"] = static_cast<double>(
      sum_servers([](aero::AeroServer& s) { return s.updates_detected(); }));
  rep.counts["aero.runs"] = static_cast<double>(rep.runs);
  rep.counts["aero.db.queries"] = static_cast<double>(
      sum_servers([](aero::AeroServer& s) { return s.db().query_count(); }));
  rep.counts["aero.db.updates"] = static_cast<double>(
      sum_servers([](aero::AeroServer& s) { return s.db().update_count(); }));
  rep.counts["fabric.events"] = static_cast<double>(rep.events);
  rep.counts["shard.partitions"] =
      static_cast<double>(fabric->num_partitions());
  double hits = 0, misses = 0, revalidates = 0, invalidations = 0;
  for (const std::string& key : fabric->partition_keys()) {
    serve::ResultCache& cache = fabric->partition(key).cache();
    hits += static_cast<double>(cache.hits());
    misses += static_cast<double>(cache.misses());
    revalidates += static_cast<double>(cache.revalidates());
    invalidations += static_cast<double>(cache.invalidations());
  }
  rep.counts["serve.hits"] = hits;
  rep.counts["serve.misses"] = misses;
  rep.counts["serve.revalidates"] = revalidates;
  rep.counts["serve.invalidations"] = invalidations;
  double lookups = hits + misses + revalidates;
  rep.counts["serve.hit_ratio"] = lookups > 0 ? hits / lookups : 0.0;

  if (capture != nullptr) {
    ScopedSpan span(spans, "bench.capture");
    // The stub transform is the identity, so each feed's transformed
    // object holds its last published timeline payload.
    const util::SimTime end = static_cast<util::SimTime>(size.days) * kDay;
    for (const shard::FeedSpec& feed : campaign.feeds) {
      const std::string* payload = nullptr;
      for (const auto& [at, body] : feed.timeline) {
        if (at <= end) payload = &body;
      }
      shard::ShardPartition& part = fabric->partition(feed.name);
      auto v = part.server().db().latest_version(part.feeds()[0].ingest_uuid);
      if (payload != nullptr && v.has_value()) {
        capture->payloads.emplace_back(v->checksum, *payload);
      }
    }
    for (const std::string& key : fabric->partition_keys()) {
      auto s0 = Clock::now();
      util::Value snapshot = fabric->partition(key).server().db().to_json();
      capture->snapshot_ms += ms_since(s0);
      s0 = Clock::now();
      std::string json = snapshot.to_json();
      capture->value_to_json_ms += ms_since(s0);
      s0 = Clock::now();
      util::Value parsed = util::Value::parse_json(json);
      capture->value_parse_ms += ms_since(s0);
      if (parsed.to_json() != json) capture->snapshots_round_trip = false;
    }
    std::vector<double> lookup_us;
    for (std::size_t i = 0; i < 1000 && !qualified.empty(); ++i) {
      auto l0 = Clock::now();
      fabric->lookup(qualified[i % qualified.size()]);
      lookup_us.push_back(ms_since(l0) * 1e3);
    }
    capture->lookup_us_p50 = median(lookup_us);
  }
  return rep;
}

// --- checks -------------------------------------------------------------

struct FleetObs {
  std::vector<FleetRep> reps;  // at the workload's shard count
  FleetRep reference;          // the same campaign on one shard
};

std::vector<Check> evaluate_checks(const FleetObs& obs) {
  Check same{"fleet.shard_count_invariant", true, ""};
  Check runs{"fleet.no_failed_runs", true, ""};
  Check fresh{"fleet.reads_served_fresh", true, ""};
  const FleetRep& ref = obs.reference;
  for (const FleetRep& r : obs.reps) {
    if (r.events != ref.events || r.aggregates != ref.aggregates ||
        r.rounds != ref.rounds || r.reads != ref.reads ||
        r.metrics_digest != ref.metrics_digest) {
      same.ok = false;
      same.detail = "events " + std::to_string(r.events) + " vs " +
                    std::to_string(ref.events) + ", aggregates " +
                    std::to_string(r.aggregates) + " vs " +
                    std::to_string(ref.aggregates) +
                    (r.metrics_digest != ref.metrics_digest
                         ? ", merged_metrics digests differ"
                         : "");
    }
  }
  std::vector<const FleetRep*> all{&ref};
  for (const FleetRep& r : obs.reps) all.push_back(&r);
  for (const FleetRep* r : all) {
    if (r->failed_runs > 0) {
      runs.ok = false;
      runs.detail = std::to_string(r->failed_runs) + " failed flow run(s)";
    }
    if (r->stale_reads > 0 || r->reads == 0) {
      fresh.ok = false;
      fresh.detail = std::to_string(r->stale_reads) + " of " +
                     std::to_string(r->reads) + " reads not fresh";
    }
  }
  if (obs.reps.empty()) same.ok = false;
  return {same, runs, fresh};
}

CheckSuite<FleetObs> check_suite() {
  CheckSuite<FleetObs> suite;
  suite.evaluate = evaluate_checks;
  suite.corruptions = {
      {"fleet.shard_count_invariant",
       [](FleetObs& o) { o.reference.metrics_digest[0] ^= 1; }},
      {"fleet.no_failed_runs", [](FleetObs& o) { o.reps.back().failed_runs = 1; }},
      {"fleet.reads_served_fresh",
       [](FleetObs& o) { o.reps.back().stale_reads = 1; }},
  };
  return suite;
}

}  // namespace

Outcome run_fleet(const Options& options) {
  Outcome out;
  const FleetSize size;
  out.threads = {std::to_string(size.shards) + " shard threads + caller",
                 static_cast<int>(size.shards) + 1, 1};
  FleetObs obs;
  std::map<std::string, double> v;

  EndToEnd e2e;
  if (!options.trace) {
    repeat_for(options.seconds, 2, [&] {
      auto t = Clock::now();
      std::vector<double> probes;
      obs.reps.push_back(run_once(options.seed, size, size.shards, false,
                                  nullptr, nullptr, false, &probes));
      // A set-up-only repetition, interleaved so the set-up median rests
      // on samples spread over the run.
      double setup = run_once(options.seed, size, size.shards, false,
                              nullptr, nullptr, true)
                         .setup_s;
      probes.push_back(probe_ms());
      obs.reps.back().slowdown = slowdown(probes);
      e2e.setups.emplace_back(setup, slowdown(probes));
      return seconds_since(t);
    });
    obs.reference = run_once(options.seed, size, 1, false, nullptr, nullptr);
  } else {
    obs.reps.push_back(
        run_once(options.seed, size, size.shards, false, nullptr, nullptr));
    SpanLog spans;
    FleetCapture cap;
    {
      ScopedSpan root(&spans, "bench.rep");
      obs.reps.push_back(
          run_once(options.seed, size, size.shards, false, &spans, &cap));
    }
    // Layer shares are of the traced repetition's end-to-end wall time
    // (set-up plus run); the benchmark's own reads are "bench" spans.
    const double traced_ms =
        (obs.reps.back().setup_s + obs.reps.back().wall_s) * 1e3;
    spans.write_tsv(kOutDir + "/spans-fleet.tsv");
    obs.reference = run_once(options.seed, size, 1, false, nullptr, nullptr);
    FleetRep sim_traced =
        run_once(options.seed, size, size.shards, true, nullptr, nullptr);

    const FleetRep& base = obs.reps.front();
    v = base.counts;
    v["fabric.ns_per_event"] =
        base.wall_s * 1e9 / static_cast<double>(base.events);
    v["fabric.idle_step_us_p50"] = median(base.idle_step_us);
    v["shard.epoch_ms_p50"] = quantile(base.epoch_ms, 0.50);
    v["shard.epoch_ms_p80"] = quantile(base.epoch_ms, 0.80);
    v["shard.speedup"] = obs.reference.wall_s / base.wall_s;
    v["shard.efficiency"] =
        v["shard.speedup"] / static_cast<double>(size.shards);
    v["serve.lookup_us_p50"] = cap.lookup_us_p50;
    v["core.build_ms"] = obs.reps.back().setup_s * 1e3;
    v["obs.bench_trace_overhead_pct"] =
        100.0 * (obs.reps.back().wall_s - base.wall_s) / base.wall_s;
    v["obs.sim_trace_overhead_pct"] =
        100.0 * (sim_traced.wall_s - base.wall_s) / base.wall_s;

    double sha_ms = 0.0;
    if (options.only_replay.empty() || options.only_replay == "crypto") {
      HashReplay h = replay_sha256(cap.payloads, v);
      out.checks.push_back(h.check);
      sha_ms = h.ms;
    }
    out.checks.push_back({"replay.snapshots_round_trip",
                          cap.snapshots_round_trip, ""});
    v["aero.db.snapshot_ms"] = cap.snapshot_ms;
    v["util.value.to_json_ms"] = cap.value_to_json_ms;
    v["util.value.parse_ms"] = cap.value_parse_ms;

    LayerTimes layers(spans, traced_ms);
    layers.carve("shard", "crypto", sha_ms);
    v["bench.layer_coverage"] = layers.coverage();
    out.note("traced repetition, layer self times (shard = everything "
             "under ShardedFabric::run_until):");
    for (const std::string& line : layers.table()) out.note(line);
    out.note("1 shard " + fmt(obs.reference.wall_s) + " s vs " +
             std::to_string(size.shards) + " shards " + fmt(base.wall_s) +
             " s; simulated tracing on " + fmt(sim_traced.wall_s) + " s");
  }

  for (const Check& c : evaluate_checks(obs)) out.checks.push_back(c);
  double polls = 0.0, wall = 0.0;
  for (const FleetRep& r : obs.reps) {
    out.attempted += r.runs + r.reads;
    out.failed += r.failed_runs + r.stale_reads;
    out.threads.observed_max = std::max(out.threads.observed_max, r.threads_max);
    e2e.setups.emplace_back(r.setup_s, r.slowdown);
    e2e.add(r.wall_s, r.day_ms, r.slowdown);
    polls += static_cast<double>(r.polls);
    wall += r.wall_s / r.slowdown;
  }
  if (options.trace) emit_per_layer(out, v);
  out.note("fleet: " + std::to_string(obs.reps.size()) + " repetition(s), " +
           std::to_string(size.feeds) + " feeds polled hourly for " +
           std::to_string(size.days) + " days on " +
           std::to_string(size.shards) + " shards");
  out.note("  fleet_polls_per_s = " + fmt(polls / wall) + " 1/s");
  out.note("  day (epoch + read sweep) p50 = " +
           fmt(e2e.op_quantile(0.5)) + " ms, p75 = " +
           fmt(e2e.op_quantile(0.75)) + " ms");
  finish(out, e2e, options.trace);
  return out;
}

bool self_test_fleet(std::vector<std::string>& log) {
  FleetSize size;
  size.feeds = 60;
  size.days = 14;
  FleetObs obs;
  obs.reps.push_back(run_once(7, size, size.shards, false, nullptr, nullptr));
  obs.reference = run_once(7, size, 1, false, nullptr, nullptr);
  return self_test("fleet", obs, check_suite(), log);
}

}  // namespace perfbench
