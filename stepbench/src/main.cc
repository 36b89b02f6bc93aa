// stepbench: the step-ledger benchmark binary. Runs one workload through
// the program's public APIs and prints its metrics; run.py in this
// directory builds it and adds the machine and provenance record.
//
//   stepbench --workload convnet_direct|lm_ps_socket|serve_open
//             --seed N --seconds S --trace 0|1 --out-dir DIR
//   stepbench --list-metrics
//
// With --trace 0 the last stdout line is the end-to-end result, with
// --trace 1 the per-layer result; both are one JSON object with keys
// correct, attempted, failed and metrics. DIR receives scratch inputs, a
// detail report and, when traced, a Chrome trace of the run's spans.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "procs.h"
#include "workloads.h"

namespace {

using namespace stepbench;

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--out-dir DIR\n       %s --list-metrics\n",
               argv0, argv0);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
  return static_cast<bool>(out);
}

std::string MetricList(const std::vector<Metric>& metrics) {
  std::string out = "[";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += std::string(i ? ", " : "") +
           JsonObject().Str("name", metrics[i].name)
               .Str("unit", metrics[i].unit)
               .Dump();
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list-metrics") {
      std::printf("%s\n", JsonObject()
                              .Raw("end_to_end", MetricList(EndToEndMetrics()))
                              .Raw("per_layer", MetricList(PerLayerMetrics()))
                              .Dump()
                              .c_str());
      return 0;
    }
    if (i + 1 >= argc) return Usage(argv[0]);
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
      have_seconds = config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = config.trace || std::strcmp(value, "0") == 0;
    } else if (flag == "--out-dir") {
      config.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (config.workload.empty() || !have_seed || !have_seconds || !have_trace ||
      config.out_dir.empty()) {
    return Usage(argv[0]);
  }

  InstallReaper();
  SpanLog log;
  RunResult r;
  if (config.workload == "convnet_direct") {
    r = RunConvnetDirect(config, &log);
  } else if (config.workload == "lm_ps_socket") {
    r = RunLmPsSocket(config, &log);
  } else if (config.workload == "serve_open") {
    r = RunServeOpen(config, &log);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  if (!ChildPids().empty()) r.Fail("worker processes outlived the run");

  const std::string stem = config.out_dir + "/" + config.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  if (config.trace) {
    if (!WriteFile(stem + ".trace.json", log.ToChromeTraceJson())) {
      r.Fail("cannot write " + stem + ".trace.json");
    }
    r.detail.Str("chrome_trace", stem + ".trace.json");
  }
  r.detail.Int("spans", static_cast<int64_t>(log.size()));

  // Every metric of the mode's list, in list order; a missing one is a
  // benchmark bug and reads as null so the result is refused.
  const std::vector<Metric>& list =
      config.trace ? PerLayerMetrics() : EndToEndMetrics();
  JsonObject metrics;
  for (const Metric& m : list) {
    auto it = r.metrics.find(m.name);
    const double value = it == r.metrics.end() && config.trace ? 0.0
                         : it == r.metrics.end()               ? NAN
                                                               : it->second;
    std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), value,
                m.unit.c_str());
    metrics.Raw(m.name,
                JsonObject().Num("value", value).Str("unit", m.unit).Dump());
  }
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;
  std::printf("failed_frac %.6f (%lld of %lld)\n", failed_frac,
              static_cast<long long>(r.failed),
              static_cast<long long>(r.attempted));
  if (!r.error.empty()) std::printf("error: %s\n", r.error.c_str());

  const std::string report =
      JsonObject()
          .Str("workload", config.workload)
          .Int("seed", static_cast<long long>(config.seed))
          .Num("seconds", config.seconds)
          .Bool("trace", config.trace)
          .Raw("params", r.params.Dump())
          .Raw("metrics", metrics.Dump())
          .Num("failed_frac", failed_frac)
          .Str("error", r.error)
          .Raw("detail", r.detail.Dump())
          .Dump();
  if (!WriteFile(stem + ".detail.json", report + "\n")) {
    std::fprintf(stderr, "cannot write %s.detail.json\n", stem.c_str());
  }
  std::printf("detail %s.detail.json\n", stem.c_str());

  if (r.attempted < 1) r.attempted = 1;
  std::printf("%s\n", JsonObject()
                          .Bool("correct", r.correct)
                          .Int("attempted", r.attempted)
                          .Int("failed", r.failed)
                          .Raw("metrics", metrics.Dump())
                          .Dump()
                          .c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
