// Turning what a run observed into named metrics: per-step kernel
// breakdowns, registry deltas and set-up spans. Shared by all workloads.

#ifndef STEPBENCH_REPORT_H_
#define STEPBENCH_REPORT_H_

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ledger.h"
#include "procs.h"
#include "workloads.h"

namespace stepbench {

// Sums of StepBreakdowns over the traced steps of a phase.
struct TraceTotals {
  int64_t steps = 0;
  double wall_us = 0;
  double kernel_union_us = 0;
  double nonkernel_us = 0;
  double ready_wait_us_sum = 0;
  int64_t ready_wait_count = 0;
  double recv_wait_us = 0;
  int64_t nodes = 0;
  std::map<std::string, double> op_us;

  void Add(const StepBreakdown& step);
};

// kernel.*, executor.nonkernel_ms_per_step, executor.ready_wait_us_mean and
// rendezvous.recv_wait_ms_per_step from `totals`; `flops_per_step` gives
// the FLOPs each op type does per step for the gflops metrics. Also lists
// every op with at least 1% of kernel time in r->detail.
void AddKernelMetrics(const TraceTotals& totals,
                      const std::map<std::string, double>& flops_per_step,
                      RunResult* r);

// threadpool.*, data.* and rpc.* metrics from a registry delta over
// `steps` steps.
void AddRegistryMetrics(const RegistryDelta& delta, double steps,
                        RunResult* r);

// graph.build_ms, session.create_ms, session.compile_ms, cluster.spawn_ms:
// medians over the run's set-ups of the spans of those names.
void AddSetupSpanMetrics(const SpanLog& log, RunResult* r);

// The benchmark shares its machine with other virtual machines; while
// the hypervisor runs them ("steal" time) every timing stretches. A timed
// window during which more than this share of CPU time was stolen is
// measured once more, and the quieter of the two windows is kept.
constexpr double kQuietStealShare = 0.02;
constexpr int kMaxWindows = 2;

// Runs `window` (one timed window, returning its result and whether the
// run may go on) until a window is quiet or kMaxWindows ran. Returns the
// quietest window's result; appends every window's steal share to
// `steal_shares`.
template <typename R>
R MeasureQuietWindow(const std::function<std::pair<R, bool>()>& window,
                     std::vector<double>* steal_shares) {
  R best{};
  double best_share = 2.0;
  for (int i = 0; i < kMaxWindows; ++i) {
    const CpuTimes before = ReadCpuTimes();
    std::pair<R, bool> result = window();
    const double share = StealShare(before, ReadCpuTimes());
    steal_shares->push_back(share);
    if (share < best_share) {
      best = std::move(result.first);
      best_share = share;
    }
    if (!result.second || share <= kQuietStealShare) break;
  }
  return best;
}

// Milliseconds between two metrics::NowMicros() readings.
inline double MsBetween(int64_t start_us, int64_t end_us) {
  return static_cast<double>(end_us - start_us) / 1000.0;
}

}  // namespace stepbench

#endif  // STEPBENCH_REPORT_H_
