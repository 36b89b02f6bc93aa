#include "training.h"

#include <algorithm>
#include <cmath>

#include "alloc_counter.h"
#include "core/metrics.h"
#include "graph/ops.h"
#include "procs.h"
#include "report.h"

namespace stepbench {
namespace {

using tfrepro::metrics::NowMicros;

constexpr int kLossEvery = 10;
constexpr int kSetups = 5;

// Steps run so far, with the loss trajectory checks.
struct Trajectory {
  int64_t next_step = 1;  // step 0 ran during set-up
  std::vector<std::pair<int64_t, float>> recorded;  // every kLossEvery steps
  bool all_finite = true;

  void Note(float loss) {
    if (!std::isfinite(loss)) all_finite = false;
    if (next_step % kLossEvery == 0) recorded.emplace_back(next_step, loss);
    ++next_step;
  }
};

struct PhaseResult {
  std::vector<double> step_ms;
  double elapsed_s = 0;
  TraceTotals traced;
};

// Runs steps for `seconds`. With a `log` every step gets a Run span, and
// with `trace` its StepStats become the span's children.
tfrepro::Status RunPhase(TrainingModel* model, double seconds, bool trace,
                         SpanLog* log, Trajectory* trajectory,
                         PhaseResult* out) {
  tfrepro::RunOptions options;
  options.trace = trace;
  const int64_t start = NowMicros();
  const int64_t limit = start + static_cast<int64_t>(seconds * 1e6);
  int64_t end = start;
  while (end < limit) {
    tfrepro::RunMetadata metadata;
    float loss = 0;
    const int64_t step_id = trajectory->next_step;
    const int64_t t0 = NowMicros();
    TF_RETURN_IF_ERROR(model->Step(options, &metadata, &loss));
    end = NowMicros();
    out->step_ms.push_back(MsBetween(t0, end));
    trajectory->Note(loss);
    if (log == nullptr) continue;
    Span run;
    run.name = "run";
    run.lane = "benchmark";
    run.start_us = t0;
    run.end_us = end;
    run.step = step_id;
    if (trace) {
      out->traced.Add(RecordTracedStep(log, std::move(run), metadata.step_stats));
    } else {
      log->Add(std::move(run));
    }
  }
  out->elapsed_s = static_cast<double>(end - start) / 1e6;
  return tfrepro::Status::OK();
}

}  // namespace

tfrepro::Result<tfrepro::Node*> ApplySgdAfterBarrier(
    tfrepro::GraphBuilder* b,
    const std::vector<tfrepro::train::GradAndVar>& grads, float learning_rate,
    const std::string& name) {
  std::vector<tfrepro::Output> grad_outputs;
  for (const auto& gv : grads) grad_outputs.push_back(gv.grad);
  tfrepro::Node* barrier =
      tfrepro::ops::Group(b, grad_outputs, name + "/grad_barrier");
  std::vector<tfrepro::Output> updates;
  for (const auto& gv : grads) {
    tfrepro::Output update =
        b->Op("ApplyGradientDescent")
            .Input(gv.var)
            .Input(tfrepro::ops::Const(b, learning_rate))
            .Input(gv.grad)
            .ControlInput(barrier)
            .Attr("T", tfrepro::BaseType(gv.var.dtype()))
            .Finalize();
    TF_RETURN_IF_ERROR(b->status());
    update.node->set_requested_device(gv.var.node->requested_device());
    updates.push_back(update);
  }
  tfrepro::Node* group = tfrepro::ops::Group(b, updates, name);
  TF_RETURN_IF_ERROR(b->status());
  return group;
}

RunResult RunTraining(const Config& config, const TrainingWorkload& workload,
                      SpanLog* log) {
  RunResult r;
  std::vector<double> setup_s;
  auto set_up = [&]() {
    const int64_t span = log->Begin("setup");
    const int64_t t0 = NowMicros();
    auto built = workload.setup(log, span);
    setup_s.push_back(static_cast<double>(NowMicros() - t0) / 1e6);
    log->End(span);
    return built;
  };
  // The first set-up is the one measured. The others run after the timed
  // window, so peak_rss_mb reflects one set-up, as in a user's process,
  // and not the heap left behind by repeated builds.
  auto first = set_up();
  if (!first.ok()) {
    r.Fail("setup: " + first.status().ToString());
    r.attempted = r.failed = 1;
    return r;
  }
  std::unique_ptr<TrainingModel> model = std::move(first.value());

  Trajectory trajectory;
  const float step0 = model->step0_loss;
  if (!std::isfinite(step0)) trajectory.all_finite = false;
  tfrepro::Status status;
  PhaseResult timed, plain, counted, traced;
  int64_t steps = 0;
  std::vector<double> steal;
  if (!config.trace) {
    timed = MeasureQuietWindow<PhaseResult>(
        [&] {
          PhaseResult window;
          status = RunPhase(model.get(), config.seconds, false, nullptr,
                            &trajectory, &window);
          return std::make_pair(std::move(window), status.ok());
        },
        &steal);
    steps = trajectory.next_step - 1;
  } else {
    const double third = config.seconds / 3.0;
    status = RunPhase(model.get(), third, false, log, &trajectory, &plain);
    tfrepro::metrics::RegistrySnapshot before, after;
    AllocTotals a0, a1;
    if (status.ok()) {
      before = tfrepro::metrics::Registry::Global()->Snapshot();
      a0 = ReadAllocTotals();
      EnableAllocCounting(true);
      status = RunPhase(model.get(), third, false, log, &trajectory, &counted);
      EnableAllocCounting(false);
      a1 = ReadAllocTotals();
      after = tfrepro::metrics::Registry::Global()->Snapshot();
    }
    if (status.ok()) {
      status = RunPhase(model.get(), third, true, log, &trajectory, &traced);
    }
    steps = static_cast<int64_t>(plain.step_ms.size() +
                                 counted.step_ms.size() +
                                 traced.step_ms.size());
    if (status.ok()) {
      const double n = static_cast<double>(counted.step_ms.size());
      r.metrics["alloc.count_per_step"] = (a1.count - a0.count) / n;
      r.metrics["alloc.bytes_per_step"] = (a1.bytes - a0.bytes) / n;
      const RegistryDelta delta(before, after);
      AddRegistryMetrics(delta, n, &r);
      r.metrics["executor.nodes_per_step"] =
          workload.executors_in_process
              ? delta.Counter("executor.nodes_executed") / n
              : static_cast<double>(traced.traced.nodes) /
                    std::max<int64_t>(traced.traced.steps, 1);
      AddKernelMetrics(traced.traced, workload.flops_per_step, &r);
      r.metrics["trace.overhead_ratio"] =
          Median(traced.step_ms) / Median(plain.step_ms);
      r.metrics["graph.nodes"] = static_cast<double>(model->graph_nodes);
      r.metrics["cluster.worker_peak_rss_mb"] = model->WorkerPeakRssMb();
      r.detail.Raw("phase_steps", JsonObject()
                                      .Int("plain", plain.step_ms.size())
                                      .Int("counted", counted.step_ms.size())
                                      .Int("traced", traced.step_ms.size())
                                      .Dump());
      r.detail.Num("plain_step_ms_p50", Median(plain.step_ms));
      r.detail.Num("traced_step_ms_p50", Median(traced.step_ms));
    }
  }
  const double peak_rss_mb = SelfPeakRssMb();
  model.reset();
  for (int i = 1; i < kSetups && r.correct; ++i) {
    auto extra = set_up();  // ends here, with its worker processes
    if (!extra.ok()) r.Fail("setup: " + extra.status().ToString());
  }
  if (config.trace) AddSetupSpanMetrics(*log, &r);

  r.attempted = steps + (status.ok() ? 0 : 1);
  if (!status.ok()) {
    r.failed = 1;
    r.Fail("step " + std::to_string(trajectory.next_step) + ": " +
           status.ToString());
  }
  if (!trajectory.all_finite) r.Fail("loss is not finite");
  const float last = trajectory.recorded.empty()
                         ? step0
                         : trajectory.recorded.back().second;
  if (!(last < step0)) {
    r.Fail("loss did not fall below its step-0 value (" +
           std::to_string(step0) + " -> " + std::to_string(last) + ")");
  }
  JsonObject losses;
  losses.Num("0", step0);
  for (const auto& [step, loss] : trajectory.recorded) {
    losses.Num(std::to_string(step), loss);
  }
  r.detail.Raw("loss_every_10_steps", losses.Dump());
  r.detail.Raw("setup_s_samples", JsonArray(setup_s));

  r.metrics["setup_s"] = Median(setup_s);
  r.metrics["peak_rss_mb"] = peak_rss_mb;
  if (!config.trace && !timed.step_ms.empty()) {
    const double window_steps = static_cast<double>(timed.step_ms.size());
    r.metrics["examples_per_s"] =
        window_steps * workload.examples_per_step / timed.elapsed_s;
    r.metrics["latency_ms_p50"] = Median(timed.step_ms);
    r.metrics["latency_ms_p90"] = Percentile(timed.step_ms, 0.90);
    r.detail.Int("timed_steps", static_cast<int64_t>(window_steps));
    r.detail.Raw("window_cpu_steal_shares", JsonArray(steal));
  }
  return r;
}

}  // namespace stepbench
