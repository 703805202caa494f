/// Micro-benchmarks (google-benchmark) of the substrates: throughput
/// numbers that bound how far the simulated platform scales — SHA-256
/// hashing, storage puts, event-loop dispatch, EMEWS task round-trips,
/// MetaRVM steps/s, GP fit/predict scaling, Saltelli throughput, and the
/// Goldstein MCMC iteration cost.

#include <benchmark/benchmark.h>

#include <cmath>

#include "crypto/sha256.hpp"
#include "emews/task_api.hpp"
#include "emews/worker_pool.hpp"
#include "epi/metarvm.hpp"
#include "epi/wastewater.hpp"
#include "fabric/event_loop.hpp"
#include "fabric/storage.hpp"
#include "fabric/timer.hpp"
#include "gp/gp.hpp"
#include "gsa/sobol.hpp"
#include "num/sampling.hpp"
#include "rt/ensemble.hpp"
#include "rt/goldstein.hpp"
#include "util/thread_pool.hpp"

using namespace osprey;

static void BM_Sha256(benchmark::State& state) {
  std::string payload(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash_hex(payload));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 20);

static void BM_StoragePut(benchmark::State& state) {
  fabric::EventLoop loop;
  fabric::AuthService auth;
  fabric::StorageEndpoint ep("bench", loop, auth);
  std::string token = auth.issue_full_token("bench");
  ep.create_collection("c", token);
  std::string payload(4096, 'x');
  std::size_t i = 0;
  for (auto _ : state) {
    ep.put("c", "obj" + std::to_string(i++ % 1000), payload, token);
  }
}
BENCHMARK(BM_StoragePut);

static void BM_EventLoopDispatch(benchmark::State& state) {
  for (auto _ : state) {
    fabric::EventLoop loop;
    for (int i = 0; i < 1000; ++i) {
      loop.schedule_at(i, [] {});
    }
    loop.run_all();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventLoopDispatch);

// The idle-poll path: a periodic timer re-arming on a loop with about
// three pending events (the other timers), as an AERO poll that finds
// no upstream change. Each iteration fires one event.
static void BM_TimerIdleFire(benchmark::State& state) {
  fabric::EventLoop loop;
  fabric::AuthService auth;
  fabric::TimerService timers(loop, auth);
  obs::TraceRecorder tracer;
  tracer.set_enabled(false);  // attached but off, as in a throughput run
  timers.set_tracer(&tracer);
  std::string token = auth.issue_full_token("bench");
  std::uint64_t polls = 0;
  for (int i = 0; i < 4; ++i) {
    timers.every(4, i, [&polls] { ++polls; }, token,
                 "poll:feed" + std::to_string(i));
  }
  for (auto _ : state) {
    loop.run_until(loop.now() + 1);
  }
  benchmark::DoNotOptimize(polls);
  state.SetItemsProcessed(static_cast<std::int64_t>(polls));
}
BENCHMARK(BM_TimerIdleFire);

static void BM_TaskRoundTrip(benchmark::State& state) {
  emews::TaskDb db;
  emews::TaskQueue queue(db, "bench");
  emews::WorkerPool pool(
      db, "bench",
      [](const util::Value& v) { return v; },
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    emews::TaskFuture f = queue.submit(util::Value(1.0));
    benchmark::DoNotOptimize(f.get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TaskRoundTrip)->Arg(1)->Arg(4);

static void BM_MetaRvmRun(benchmark::State& state) {
  epi::MetaRvm model(epi::MetaRvmConfig::single_group(
      state.range(0), state.range(0) / 2000 + 1, 90));
  epi::MetaRvmParams params;
  std::uint64_t rep = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.hospitalization_qoi(params, 1, rep++));
  }
  state.SetItemsProcessed(state.iterations() * 90);  // days simulated
}
BENCHMARK(BM_MetaRvmRun)->Arg(10'000)->Arg(200'000)->Arg(2'000'000);

static void BM_WastewaterGenerate(benchmark::State& state) {
  std::uint64_t seed = 0;
  for (auto _ : state) {
    epi::WastewaterGenerator gen(epi::chicago_plants()[0],
                                 epi::chicago_truths()[0],
                                 epi::WastewaterConfig{}, seed++);
    benchmark::DoNotOptimize(gen.samples().size());
  }
}
BENCHMARK(BM_WastewaterGenerate);

static void BM_GpFit(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  num::RngStream rng(1);
  num::Matrix x = num::latin_hypercube(n, 5, rng);
  num::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x(i, 0) + std::sin(3.0 * x(i, 1)) + 0.1 * rng.normal();
  }
  gp::GpConfig cfg;
  cfg.mle_restarts = 0;
  cfg.mle_max_iterations = 60;
  for (auto _ : state) {
    gp::GaussianProcess gp(cfg);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp.log_marginal_likelihood());
  }
}
BENCHMARK(BM_GpFit)->Arg(50)->Arg(100)->Arg(200);

namespace {

/// A GP conditioned on an n-point 5-D LHS with fixed hyperparameters —
/// the shared starting state of the add_point scaling cases.
osprey::gp::GaussianProcess prefit_gp(std::size_t n, bool incremental) {
  num::RngStream rng(1);
  num::Matrix x = num::latin_hypercube(n, 5, rng);
  num::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = x(i, 0) + std::sin(3.0 * x(i, 1)) + 0.1 * rng.normal();
  }
  gp::GpConfig cfg;
  cfg.mle_restarts = 0;
  cfg.mle_max_iterations = 40;
  cfg.incremental = incremental;
  cfg.reopt_every = 0;  // isolate the conditioning cost per added point
  gp::GaussianProcess gp(cfg);
  gp.fit(x, y);
  return gp;
}

void run_gp_add_point(benchmark::State& state, bool incremental) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kAdds = 16;
  gp::GaussianProcess base = prefit_gp(n, incremental);
  num::RngStream rng(2);
  num::Matrix extra = num::latin_hypercube(kAdds, 5, rng);
  for (auto _ : state) {
    state.PauseTiming();
    gp::GaussianProcess gp = base;
    state.ResumeTiming();
    for (std::size_t i = 0; i < kAdds; ++i) {
      gp.add_point(extra.row(i), extra(i, 0));
    }
    benchmark::DoNotOptimize(gp.predict({0.5, 0.5, 0.5, 0.5, 0.5}).mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAdds));
}

}  // namespace

/// The MUSIC acquisition hot path: one design point appended per step.
/// Incremental = rank-1 Cholesky extension (O(n^2)); FullRefit = the
/// seed behavior (rebuild + refactorize, O(n^3) per point).
static void BM_GpAddPointIncremental(benchmark::State& state) {
  run_gp_add_point(state, true);
}
BENCHMARK(BM_GpAddPointIncremental)->Arg(50)->Arg(100)->Arg(200);

static void BM_GpAddPointFullRefit(benchmark::State& state) {
  run_gp_add_point(state, false);
}
BENCHMARK(BM_GpAddPointFullRefit)->Arg(50)->Arg(100)->Arg(200);

static void BM_GpLeaveOneOut(benchmark::State& state) {
  gp::GaussianProcess gp =
      prefit_gp(static_cast<std::size_t>(state.range(0)), true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.leave_one_out().rmse);
  }
}
BENCHMARK(BM_GpLeaveOneOut)->Arg(100)->Arg(200);

/// Args: {n training points, parallel batch prediction on/off}.
static void BM_GpPredictMean(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  num::RngStream rng(1);
  num::Matrix x = num::latin_hypercube(n, 5, rng);
  num::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = x(i, 0) + x(i, 1);
  gp::GpConfig cfg;
  cfg.mle_restarts = 0;
  cfg.mle_max_iterations = 40;
  cfg.parallel = state.range(1) != 0;
  gp::GaussianProcess gp(cfg);
  gp.fit(x, y);
  num::Matrix queries = num::latin_hypercube(1024, 5, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict_mean(queries));
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_GpPredictMean)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({200, 0})
    ->Args({200, 1});

/// The Saltelli pass MUSIC runs on its surrogate every advance: means
/// on A, B and all five AB_j in one pick-freeze call.
/// Args: {n training points, parallel on/off}.
static void BM_SurrogateSaltelliPickFreeze(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  num::RngStream rng(1);
  num::Matrix x = num::latin_hypercube(n, 5, rng);
  num::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = x(i, 0) + x(i, 1);
  gp::GpConfig cfg;
  cfg.mle_restarts = 0;
  cfg.mle_max_iterations = 40;
  cfg.parallel = state.range(1) != 0;
  gp::GaussianProcess gp(cfg);
  gp.fit(x, y);
  gsa::SaltelliDesign design = gsa::saltelli_design(
      std::vector<num::ParamRange>(5, num::ParamRange{"u", 0.0, 1.0}), 1024);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict_mean_pick_freeze(design.a, design.b));
  }
  state.SetItemsProcessed(state.iterations() * 1024 * 7);
}
BENCHMARK(BM_SurrogateSaltelliPickFreeze)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({200, 0})
    ->Args({200, 1});

static void BM_SaltelliOnCheapModel(benchmark::State& state) {
  auto ranges = std::vector<num::ParamRange>{
      {"a", 0, 1}, {"b", 0, 1}, {"c", 0, 1}, {"d", 0, 1}, {"e", 0, 1}};
  gsa::ModelFn fn = [](const num::Vector& x) {
    return x[0] + 2.0 * x[1] * x[2] + x[3] - x[4];
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gsa::saltelli_indices(fn, ranges,
                              static_cast<std::size_t>(state.range(0))));
  }
}
BENCHMARK(BM_SaltelliOnCheapModel)->Arg(256)->Arg(1024);

static void BM_GoldsteinMcmc(benchmark::State& state) {
  epi::Plant plant = epi::chicago_plants()[0];
  epi::WastewaterConfig ww;
  ww.days = 90;
  epi::WastewaterGenerator gen(plant, epi::chicago_truths()[0], ww, 3);
  rt::GoldsteinConfig cfg;
  cfg.iterations = static_cast<int>(state.range(0));
  cfg.burnin = cfg.iterations / 2;
  cfg.flow_liters_per_day = plant.avg_flow_mgd * 3.785e6;
  rt::GoldsteinEstimator estimator(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(estimator.estimate(gen.samples(), 90));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GoldsteinMcmc)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

/// The Figure-2 per-plant fan-out: 4 Goldstein chains, serially (arg 0)
/// vs fanned out on a 4-thread pool (arg 1). Posteriors are
/// bit-identical either way; only the wall clock changes.
static void BM_EnsembleEstimate4Plants(benchmark::State& state) {
  const int days = 90;
  auto plants = epi::chicago_plants();
  auto truths = epi::chicago_truths();
  epi::WastewaterConfig ww;
  ww.days = days;
  std::vector<rt::PlantData> inputs;
  for (std::size_t p = 0; p < plants.size(); ++p) {
    epi::WastewaterGenerator gen(plants[p], truths[p], ww, 100 + p);
    rt::PlantData pd;
    pd.name = plants[p].name;
    pd.population_weight = static_cast<double>(plants[p].population_served);
    pd.samples = gen.samples();
    pd.config.iterations = 1500;
    pd.config.burnin = 750;
    pd.config.flow_liters_per_day = plants[p].avg_flow_mgd * 3.785e6;
    pd.config.seed = 500 + p;
    inputs.push_back(std::move(pd));
  }
  const bool parallel = state.range(0) != 0;
  util::ThreadPool pool(parallel ? inputs.size() : 1);
  for (auto _ : state) {
    auto members =
        rt::estimate_members(inputs, days, parallel ? &pool : nullptr);
    benchmark::DoNotOptimize(members.front().posterior.draws(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs.size()));
}
BENCHMARK(BM_EnsembleEstimate4Plants)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

BENCHMARK_MAIN();
