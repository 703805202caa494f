/// The named OSPREY benchmark program.
///
///   osprey_perfbench --workload <ww_rt|fleet|gsa> --seed <n>
///                    --seconds <s> --trace <0|1> [--only-replay <layer>]
///   osprey_perfbench --self-test
///
/// Prints human-readable lines (machine fingerprint, thread budget, the
/// workload's named metrics, check results) and, as the last line, one
/// JSON object {"correct", "attempted", "failed", "metrics"}. With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 the
/// per-layer ones. Exits 1 when a correctness check fails.

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "util/log.hpp"
#include "util/value.hpp"

using namespace perfbench;

namespace {

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  return osprey::util::Value(s).to_json();
}

std::string result_json(const Outcome& out) {
  std::string m;
  for (const Metric& metric : out.metrics) {
    if (!m.empty()) m += ", ";
    m += json_string(metric.name) + ": {\"value\": " +
         json_number(metric.value) + ", \"unit\": " +
         json_string(metric.unit) + "}";
  }
  return std::string("{\"correct\": ") + (out.correct() ? "true" : "false") +
         ", \"attempted\": " + std::to_string(out.attempted) +
         ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {" +
         m + "}}";
}

int usage() {
  std::fprintf(stderr,
               "usage: osprey_perfbench --workload <ww_rt|fleet|gsa>"
               " --seed <n> --seconds <s> --trace <0|1> [--only-replay "
               "<layer>]\n"
               "       osprey_perfbench --self-test\n");
  return 2;
}

int self_test_all() {
  std::vector<std::string> log;
  bool ok = true;
  ok = self_test_ww_rt(log) && ok;
  ok = self_test_fleet(log) && ok;
  ok = self_test_gsa(log) && ok;
  for (const std::string& line : log) std::printf("%s\n", line.c_str());
  std::printf("self-test: %s\n", ok ? "every check fires" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  osprey::util::set_log_level(osprey::util::LogLevel::kError);
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--self-test") return self_test_all();
    if (i + 1 >= argc) return usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--only-replay") {
      options.only_replay = value;
    } else {
      return usage();
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) return usage();
  ::mkdir(kOutDir.c_str(), 0755);

  Outcome out;
  if (options.workload == "ww_rt") {
    out = run_ww_rt(options);
  } else if (options.workload == "fleet") {
    out = run_fleet(options);
  } else if (options.workload == "gsa") {
    out = run_gsa(options);
  } else {
    return usage();
  }

  const int nproc = available_cpus();
  std::printf("fingerprint: nproc=%d compiler=\"%s\" build=%s\n", nproc,
              compiler().c_str(), PERFBENCH_BUILD_TYPE);
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("threads: %s; budget %d, observed max %d, nproc %d%s\n",
              out.threads.layout.c_str(), out.threads.budget,
              out.threads.observed_max, nproc,
              out.threads.observed_max > nproc ? " -- EXCEEDS NPROC" : "");
  for (const std::string& line : out.notes) std::printf("%s\n", line.c_str());
  for (const Check& c : out.checks) {
    std::printf("check %s: %s%s%s\n", c.name.c_str(), c.ok ? "ok" : "FAILED",
                c.detail.empty() ? "" : " -- ", c.detail.c_str());
  }
  std::string json = result_json(out);

  // The same record, with its fingerprint, kept beside the spans.
  std::string record = kOutDir + "/" + options.workload + "-seed" +
                       std::to_string(options.seed) + "-trace" +
                       (options.trace ? "1" : "0") + ".txt";
  if (std::FILE* f = std::fopen(record.c_str(), "w")) {
    std::fprintf(f, "nproc=%d compiler=\"%s\" build=%s threads=%s budget=%d "
                 "observed=%d\n%s\n",
                 nproc, compiler().c_str(), PERFBENCH_BUILD_TYPE,
                 out.threads.layout.c_str(), out.threads.budget,
                 out.threads.observed_max, json.c_str());
    std::fclose(f);
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}
