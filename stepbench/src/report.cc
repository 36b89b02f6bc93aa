#include "report.h"

#include <algorithm>
#include <vector>

namespace stepbench {

const std::vector<Metric>& EndToEndMetrics() {
  static const std::vector<Metric> kMetrics = {
      {"examples_per_s", "1/s"},
      {"latency_ms_p50", "ms"},
      {"latency_ms_p90", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return kMetrics;
}

const std::vector<std::string>& KernelOps() {
  static const std::vector<std::string> kOps = {
      "Conv2D",     "Conv2DBackpropInput", "Conv2DBackpropFilter",
      "MatMul",     "MaxPool",             "MaxPoolGrad",
      "AddN",       "Gather",              "UnsortedSegmentSum",
      "ApplyGradientDescent", "BiasAdd",   "BiasAddGrad",
      "Relu",       "ReluGrad",            "Softmax",
      "Const",
  };
  return kOps;
}

const std::vector<Metric>& PerLayerMetrics() {
  static const std::vector<Metric> kMetrics = [] {
    std::vector<Metric> m = {
        {"alloc.count_per_step", "count"},
        {"alloc.bytes_per_step", "bytes"},
        {"threadpool.task_wait_ms_mean", "ms"},
        {"graph.build_ms", "ms"},
        {"graph.nodes", "count"},
        {"session.create_ms", "ms"},
        {"session.compile_ms", "ms"},
        {"executor.nodes_per_step", "count"},
        {"executor.nonkernel_ms_per_step", "ms"},
        {"executor.ready_wait_us_mean", "us"},
        {"trace.overhead_ratio", "ratio"},
    };
    for (const std::string& op : KernelOps()) {
      m.push_back({"kernel." + op + ".ms_per_step", "ms"});
    }
    std::vector<Metric> rest = {
        {"kernel.other.ms_per_step", "ms"},
        {"kernel.MatMul.gflops", "GFLOP/s"},
        {"kernel.Conv2D.gflops", "GFLOP/s"},
        {"kernel.Conv2DBackpropInput.gflops", "GFLOP/s"},
        {"kernel.Conv2DBackpropFilter.gflops", "GFLOP/s"},
        {"kernel.busy_share", "ratio"},
        {"data.getnext_wait_ms_per_step", "ms"},
        {"rpc.bytes_per_step", "bytes"},
        {"rpc.calls_per_step", "count"},
        {"rpc.call_latency_us_p50", "us"},
        {"rendezvous.recv_wait_ms_per_step", "ms"},
        {"cluster.spawn_ms", "ms"},
        {"cluster.worker_peak_rss_mb", "MB"},
        {"serving.batch_size_mean", "count"},
        {"serving.queue_wait_ms_p50", "ms"},
        {"serving.batch_run_ms_p50", "ms"},
        {"loadgen.lag_ms_p99", "ms"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

void TraceTotals::Add(const StepBreakdown& step) {
  ++steps;
  wall_us += step.wall_us;
  kernel_union_us += step.kernel_union_us;
  nonkernel_us += step.nonkernel_us;
  ready_wait_us_sum += step.ready_wait_us_sum;
  ready_wait_count += step.ready_wait_count;
  recv_wait_us += step.recv_wait_us;
  nodes += step.nodes;
  for (const auto& [op, us] : step.op_us) op_us[op] += us;
}

void AddKernelMetrics(const TraceTotals& totals,
                      const std::map<std::string, double>& flops_per_step,
                      RunResult* r) {
  const double steps = std::max<int64_t>(totals.steps, 1);
  auto& m = r->metrics;
  m["executor.nonkernel_ms_per_step"] = totals.nonkernel_us / steps / 1000.0;
  m["executor.ready_wait_us_mean"] =
      totals.ready_wait_count > 0
          ? totals.ready_wait_us_sum / static_cast<double>(totals.ready_wait_count)
          : 0.0;
  m["rendezvous.recv_wait_ms_per_step"] = totals.recv_wait_us / steps / 1000.0;
  m["kernel.busy_share"] =
      totals.wall_us > 0 ? totals.kernel_union_us / totals.wall_us : 0.0;

  double kernel_total_us = 0;
  for (const auto& [op, us] : totals.op_us) kernel_total_us += us;
  const std::vector<std::string>& named = KernelOps();
  double other_us = 0;
  JsonObject shares;
  std::vector<std::pair<double, std::string>> by_time;
  for (const auto& [op, us] : totals.op_us) {
    if (std::find(named.begin(), named.end(), op) == named.end()) {
      other_us += us;
    }
    by_time.emplace_back(us, op);
  }
  std::sort(by_time.rbegin(), by_time.rend());
  for (const auto& [us, op] : by_time) {
    const double share = kernel_total_us > 0 ? us / kernel_total_us : 0.0;
    if (share < 0.01) continue;
    shares.Raw(op, JsonObject()
                       .Num("ms_per_step", us / steps / 1000.0)
                       .Num("share", share)
                       .Dump());
  }
  for (const std::string& op : named) {
    auto it = totals.op_us.find(op);
    m["kernel." + op + ".ms_per_step"] =
        it == totals.op_us.end() ? 0.0 : it->second / steps / 1000.0;
  }
  m["kernel.other.ms_per_step"] = other_us / steps / 1000.0;
  for (const char* op : {"MatMul", "Conv2D", "Conv2DBackpropInput",
                         "Conv2DBackpropFilter"}) {
    auto flops = flops_per_step.find(op);
    auto time = totals.op_us.find(op);
    const bool measurable = flops != flops_per_step.end() &&
                            time != totals.op_us.end() && time->second > 0;
    m[std::string("kernel.") + op + ".gflops"] =
        measurable ? flops->second / (time->second / steps * 1e-6) / 1e9 : 0.0;
  }
  r->detail.Num("kernel_ms_per_step", kernel_total_us / steps / 1000.0);
  r->detail.Int("traced_steps", totals.steps);
  r->detail.Raw("ops_over_1pct_of_kernel_time", shares.Dump());
  JsonObject flops;
  for (const auto& [op, f] : flops_per_step) flops.Num(op, f);
  r->detail.Raw("flops_per_step", flops.Dump());
}

void AddRegistryMetrics(const RegistryDelta& delta, double steps,
                        RunResult* r) {
  const double n = std::max(steps, 1.0);
  auto& m = r->metrics;
  m["threadpool.task_wait_ms_mean"] =
      delta.HistogramMean("threadpool.task_wait_ms");
  m["data.getnext_wait_ms_per_step"] =
      delta.Histogram("data.getnext_wait_ms").sum / n;
  m["rpc.bytes_per_step"] = static_cast<double>(
                                delta.Counter("rpc.bytes_sent") +
                                delta.Counter("rpc.bytes_recv")) /
                            n;
  const tfrepro::metrics::MetricSnapshot calls =
      delta.Histogram("rpc.call_latency_us");
  m["rpc.calls_per_step"] = static_cast<double>(calls.count) / n;
  m["rpc.call_latency_us_p50"] = calls.Percentile(0.5);
}

void AddSetupSpanMetrics(const SpanLog& log, RunResult* r) {
  for (const char* name : {"graph.build", "session.create", "session.compile",
                           "cluster.spawn"}) {
    r->metrics[std::string(name) + "_ms"] = Median(log.DurationsMs(name));
  }
  JsonObject self;
  for (const auto& [name, ms] : log.SelfMsByName()) {
    if (name.find(':') == std::string::npos) self.Num(name, ms);
  }
  r->detail.Raw("span_self_ms", self.Dump());
}

}  // namespace stepbench
