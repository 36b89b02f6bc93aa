// Step-ledger arithmetic: spans recorded by the benchmark around its calls
// into the program, the interval algebra that turns them into busy and
// self times, registry deltas, and the per-step breakdown of a traced
// step's StepStats. Everything here is pure bookkeeping over numbers the
// program already exposes; nothing in it is timed or run concurrently with
// the program except SpanLog::Add, which is thread-safe.

#ifndef STEPBENCH_LEDGER_H_
#define STEPBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "runtime/tracing.h"

namespace stepbench {

// A closed-open time interval in microseconds.
struct Interval {
  int64_t start = 0;
  int64_t end = 0;
};

// Total length covered by the union of `intervals` (overlaps counted once;
// empty or inverted intervals contribute nothing).
int64_t UnionLength(std::vector<Interval> intervals);

// Length of `parent` covered by the union of `children`, each clipped to
// `parent` first.
int64_t CoveredLength(Interval parent, std::vector<Interval> children);

// One benchmark-side span. `parent` is the id of the span that caused it
// (-1 for roots); `step` is the step or request id it belongs to (-1 when
// it belongs to none); `lane` names the row it is drawn on in the Chrome
// trace (the benchmark thread, a device, "transfers", ...).
struct Span {
  int64_t id = -1;
  std::string name;
  std::string lane;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t parent = -1;
  int64_t step = -1;
};

// In-memory span store; written out once at the end of a run.
class SpanLog {
 public:
  // Stores `span` with a fresh id and returns that id.
  int64_t Add(Span span);

  // Opens a span starting now and returns its id; End(id) closes it.
  int64_t Begin(std::string name, int64_t parent = -1, int64_t step = -1);
  void End(int64_t id);

  // Summed self time per span name, in milliseconds: each span's duration
  // minus the part of it its direct children cover.
  std::map<std::string, double> SelfMsByName() const;

  // Durations (end - start) of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  size_t size() const;

  // Chrome trace_event JSON: one "X" event per span, a row per lane, ids,
  // parents and step ids in args.
  std::string ToChromeTraceJson() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t parent = -1,
             int64_t step = -1)
      : log_(log), id_(log->Begin(std::move(name), parent, step)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  const int64_t id_;
};

// The change in the global metrics registry between two snapshots.
// Counter and histogram reads sum over every tag set of a name.
class RegistryDelta {
 public:
  RegistryDelta(const tfrepro::metrics::RegistrySnapshot& before,
                const tfrepro::metrics::RegistrySnapshot& after);

  int64_t Counter(const std::string& name) const;

  // The merged delta histogram of `name` (tag sets whose bucket bounds
  // differ from the first one found are skipped). Empty when absent.
  tfrepro::metrics::MetricSnapshot Histogram(const std::string& name) const;

  // Convenience: delta sum / delta count of a histogram, 0 when empty.
  double HistogramMean(const std::string& name) const;

 private:
  const tfrepro::metrics::RegistrySnapshot& before_;
  const tfrepro::metrics::RegistrySnapshot& after_;
};

// What one traced step's StepStats says about where its time went.
struct StepBreakdown {
  double wall_us = 0;          // the step's Run span
  double kernel_union_us = 0;  // union of non-transfer node intervals
  // Wall time covered by no node interval and no Recv wait: the Run
  // span's self time once the step's events are its children.
  double nonkernel_us = 0;
  std::map<std::string, double> op_us;  // summed durations per op
  double ready_wait_us_sum = 0;         // scheduled -> start gaps
  int64_t ready_wait_count = 0;
  double recv_wait_us = 0;  // summed Recv transfer waits
  int64_t nodes = 0;
};

// Breaks down `stats` for a step whose Run call spanned `run`. Node and
// transfer intervals are clipped to `run` before unions are taken.
StepBreakdown AnalyzeStep(const tfrepro::StepStats& stats, Interval run);

// Adds one traced step to `log`: the Run span `run`, and as its children
// the step's StepStats node intervals and Recv waits. Returns the step's
// breakdown, whose nonkernel_us equals the Run span's self time.
StepBreakdown RecordTracedStep(SpanLog* log, Span run,
                               const tfrepro::StepStats& stats);

// Percentile of `values` (q in [0, 1]) by linear interpolation between
// order statistics; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

}  // namespace stepbench

#endif  // STEPBENCH_LEDGER_H_
