#include "ledger.h"

#include <algorithm>
#include <cmath>

#include "json.h"

namespace stepbench {

using tfrepro::metrics::MetricSnapshot;
using tfrepro::metrics::RegistrySnapshot;

namespace {

// Ops whose node interval is waiting for a tensor, not computing one.
bool IsTransferOp(const std::string& op) {
  return op == "_Send" || op == "_Recv";
}

}  // namespace

int64_t UnionLength(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t total = 0;
  bool open = false;
  Interval cur;
  for (const Interval& iv : intervals) {
    if (iv.end <= iv.start) continue;
    if (!open || iv.start > cur.end) {
      if (open) total += cur.end - cur.start;
      cur = iv;
      open = true;
    } else {
      cur.end = std::max(cur.end, iv.end);
    }
  }
  if (open) total += cur.end - cur.start;
  return total;
}

int64_t CoveredLength(Interval parent, std::vector<Interval> children) {
  for (Interval& c : children) {
    c.start = std::max(c.start, parent.start);
    c.end = std::min(c.end, parent.end);
  }
  return UnionLength(std::move(children));
}

int64_t SpanLog::Add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  span.id = static_cast<int64_t>(spans_.size());
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

int64_t SpanLog::Begin(std::string name, int64_t parent, int64_t step) {
  Span span;
  span.name = std::move(name);
  span.lane = "benchmark";
  span.parent = parent;
  span.step = step;
  span.start_us = tfrepro::metrics::NowMicros();
  span.end_us = span.start_us;
  return Add(std::move(span));
}

void SpanLog::End(int64_t id) {
  const int64_t now = tfrepro::metrics::NowMicros();
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 0 && id < static_cast<int64_t>(spans_.size())) {
    spans_[id].end_us = now;
  }
}

std::map<std::string, double> SpanLog::SelfMsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<Interval>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.parent < static_cast<int64_t>(spans_.size())) {
      children[s.parent].push_back({s.start_us, s.end_us});
    }
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const int64_t covered = CoveredLength({s.start_us, s.end_us},
                                          std::move(children[s.id]));
    out[s.name] += (s.end_us - s.start_us - covered) / 1000.0;
  }
  return out;
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_us - s.start_us) / 1000.0);
  }
  return out;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string SpanLog::ToChromeTraceJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t t0 = 0;
  bool have_t0 = false;
  for (const Span& s : spans_) {
    if (!have_t0 || s.start_us < t0) t0 = s.start_us;
    have_t0 = true;
  }
  std::map<std::string, int> lanes;
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans_) {
    auto it = lanes.emplace(s.lane, static_cast<int>(lanes.size()) + 1).first;
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + JsonString(s.name) +
           ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(it->second) +
           ",\"ts\":" + std::to_string(s.start_us - t0) +
           ",\"dur\":" + std::to_string(std::max<int64_t>(0, s.end_us - s.start_us)) +
           ",\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) +
           ",\"step\":" + std::to_string(s.step) + "}}";
  }
  for (const auto& [lane, tid] : lanes) {
    out += std::string(first ? "" : ",") +
           "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" +
           std::to_string(tid) + ",\"args\":{\"name\":" + JsonString(lane) +
           "}}";
    first = false;
  }
  out += "]}";
  return out;
}

RegistryDelta::RegistryDelta(const RegistrySnapshot& before,
                             const RegistrySnapshot& after)
    : before_(before), after_(after) {}

int64_t RegistryDelta::Counter(const std::string& name) const {
  return after_.TotalValue(name) - before_.TotalValue(name);
}

MetricSnapshot RegistryDelta::Histogram(const std::string& name) const {
  MetricSnapshot merged;
  merged.name = name;
  merged.kind = MetricSnapshot::Kind::kHistogram;
  bool have_bounds = false;
  for (const MetricSnapshot& a : after_.entries) {
    if (a.name != name || a.kind != MetricSnapshot::Kind::kHistogram) continue;
    if (!have_bounds) {
      merged.bounds = a.bounds;
      merged.bucket_counts.assign(a.bucket_counts.size(), 0);
      have_bounds = true;
    } else if (a.bounds != merged.bounds) {
      continue;
    }
    const MetricSnapshot* b = before_.Find(name, a.tags);
    for (size_t i = 0; i < a.bucket_counts.size(); ++i) {
      int64_t prev = (b != nullptr && i < b->bucket_counts.size())
                         ? b->bucket_counts[i]
                         : 0;
      merged.bucket_counts[i] += a.bucket_counts[i] - prev;
    }
    merged.count += a.count - (b != nullptr ? b->count : 0);
    merged.sum += a.sum - (b != nullptr ? b->sum : 0.0);
  }
  return merged;
}

double RegistryDelta::HistogramMean(const std::string& name) const {
  MetricSnapshot h = Histogram(name);
  return h.count > 0 ? h.sum / static_cast<double>(h.count) : 0.0;
}

StepBreakdown AnalyzeStep(const tfrepro::StepStats& stats, Interval run) {
  StepBreakdown out;
  out.wall_us = static_cast<double>(run.end - run.start);
  std::vector<Interval> covered, kernel;
  for (const tfrepro::NodeExecStats& n : stats.nodes) {
    ++out.nodes;
    covered.push_back({n.start_micros, n.end_micros});
    if (n.scheduled_micros > 0 && n.start_micros >= n.scheduled_micros) {
      out.ready_wait_us_sum += n.start_micros - n.scheduled_micros;
      ++out.ready_wait_count;
    }
    if (IsTransferOp(n.op)) continue;
    kernel.push_back({n.start_micros, n.end_micros});
    out.op_us[n.op] += std::max<int64_t>(0, n.end_micros - n.start_micros);
  }
  for (const tfrepro::TransferStats& t : stats.transfers) {
    if (t.kind != tfrepro::TransferStats::Kind::kRecv) continue;
    const Interval wait{std::max(t.recv_start_micros, run.start),
                        std::min(t.recv_end_micros, run.end)};
    if (wait.end > wait.start) out.recv_wait_us += wait.end - wait.start;
    covered.push_back({t.recv_start_micros, t.recv_end_micros});
  }
  out.kernel_union_us =
      static_cast<double>(CoveredLength(run, std::move(kernel)));
  out.nonkernel_us =
      out.wall_us - static_cast<double>(CoveredLength(run, std::move(covered)));
  return out;
}

StepBreakdown RecordTracedStep(SpanLog* log, Span run,
                               const tfrepro::StepStats& stats) {
  const Interval run_iv{run.start_us, run.end_us};
  const int64_t step = run.step;
  const int64_t run_id = log->Add(std::move(run));
  for (const tfrepro::NodeExecStats& n : stats.nodes) {
    Span s;
    s.name = n.op + ":" + n.node_name;
    s.lane = n.device;
    s.start_us = n.start_micros;
    s.end_us = n.end_micros;
    s.parent = run_id;
    s.step = step;
    log->Add(std::move(s));
  }
  for (const tfrepro::TransferStats& t : stats.transfers) {
    if (t.kind != tfrepro::TransferStats::Kind::kRecv) continue;
    Span s;
    s.name = "recv_wait:" + t.tensor_name;
    s.lane = "transfers";
    s.start_us = t.recv_start_micros;
    s.end_us = t.recv_end_micros;
    s.parent = run_id;
    s.step = step;
    log->Add(std::move(s));
  }
  return AnalyzeStep(stats, run_iv);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

}  // namespace stepbench
