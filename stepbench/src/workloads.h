// The benchmark's workloads and the shape of what a run reports.

#ifndef STEPBENCH_WORKLOADS_H_
#define STEPBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "json.h"
#include "ledger.h"

namespace stepbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // Directory inside the checkout for generated inputs and reports.
  std::string out_dir;
};

struct Metric {
  std::string name;
  std::string unit;
};

// End-to-end metrics, reported by every untraced run. For training
// workloads the latencies are step wall times; for serve_open they are
// request latencies from the scheduled send time and examples_per_s counts
// only correct responses completed within the 5 ms limit (goodput).
const std::vector<Metric>& EndToEndMetrics();

// Per-layer metrics, reported by every traced run (0 where a layer does not
// take part in the workload, e.g. rpc.* outside lm_ps_socket).
const std::vector<Metric>& PerLayerMetrics();

// Ops given their own kernel.<Op>.ms_per_step metric; every other op's
// time goes to kernel.other.ms_per_step.
const std::vector<std::string>& KernelOps();

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::string error;  // first failure, for the log
  std::map<std::string, double> metrics;
  // Workload parameters and extra report fields (encoded JSON values).
  JsonObject params;
  JsonObject detail;

  void Fail(const std::string& why) {
    if (error.empty()) error = why;
    correct = false;
  }
};

RunResult RunConvnetDirect(const Config& config, SpanLog* log);
RunResult RunLmPsSocket(const Config& config, SpanLog* log);
RunResult RunServeOpen(const Config& config, SpanLog* log);

}  // namespace stepbench

#endif  // STEPBENCH_WORKLOADS_H_
