// serve_open: open-loop Poisson arrivals into a DynamicBatcher over an
// 11-layer, 16-wide MLP deployed through checkpoint -> FreezeGraph ->
// Servable. One generator thread sends on a seeded schedule with the
// asynchronous Enqueue; each request is timed from when it was due.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include "alloc_counter.h"
#include "core/metrics.h"
#include "graph/ops.h"
#include "procs.h"
#include "report.h"
#include "runtime/session.h"
#include "serving/batcher.h"
#include "serving/freeze.h"
#include "serving/servable.h"
#include "train/saver.h"

namespace stepbench {
namespace {

using namespace tfrepro;
using metrics::NowMicros;

constexpr int kInputDim = 16;
constexpr int kHiddenDim = 16;
constexpr int kHiddenLayers = 10;
constexpr int kNumClasses = 10;
constexpr double kRatePerSecond = 20000;
constexpr int kPoolSize = 256;
constexpr int64_t kMaxBatch = 32;
constexpr int64_t kBatchTimeoutUs = 1000;
constexpr int kBatchThreads = 2;
// Room for three seconds of arrivals: a stall of the machine running the
// benchmark shows as latency, not as requests the batcher turns away.
constexpr int64_t kMaxEnqueued = 3 * static_cast<int64_t>(kRatePerSecond);
constexpr double kLatencyLimitMs = 5.0;
constexpr float kTolerance = 1e-5f;
constexpr double kWarmupSeconds = 0.5;
constexpr int kReplayBatches = 200;
// A deploy takes milliseconds, so its median needs more samples than the
// training workloads' set-ups.
constexpr int kSetups = 25;

SessionOptions ServingSessionOptions() {
  SessionOptions options;
  options.profile_sample_every = -1;
  return options;
}

struct Deployment {
  std::unique_ptr<Graph> frozen;
  std::shared_ptr<const serving::Servable> servable;
  std::string output;
};

Tensor RandomMatrix(std::mt19937_64* rng, int64_t rows, int64_t cols,
                    float stddev) {
  std::normal_distribution<float> dist(0.0f, stddev);
  std::vector<float> values(rows * cols);
  for (float& v : values) v = dist(*rng);
  return Tensor::FromVector<float>(values, TensorShape({rows, cols}));
}

// Builds the MLP with seeded weights in variables, checkpoints them,
// freezes the graph and compiles a Servable: the whole deploy path.
Result<Deployment> Deploy(const std::string& checkpoint_prefix, uint64_t seed,
                          SpanLog* log, int64_t parent) {
  Graph g;
  std::vector<Output> vars;
  Output probs;
  Node* init = nullptr;
  std::unique_ptr<train::Saver> saver;
  GraphBuilder b(&g);
  {
    ScopedSpan span(log, "graph.build", parent);
    std::mt19937_64 rng(seed * 0xA24BAED4963EE407ull + 3);
    Output x = ops::Placeholder(&b, DataType::kFloat,
                                TensorShape({1, kInputDim}), "x");
    std::vector<Output> assigns;
    Output h = x;
    int in_dim = kInputDim;
    for (int layer = 0; layer <= kHiddenLayers; ++layer) {
      const bool last = layer == kHiddenLayers;
      const int out_dim = last ? kNumClasses : kHiddenDim;
      Output w = ops::Variable(&b, DataType::kFloat,
                               TensorShape({in_dim, out_dim}),
                               "w" + std::to_string(layer));
      Output bias = ops::Variable(&b, DataType::kFloat, TensorShape({out_dim}),
                                  "b" + std::to_string(layer));
      vars.push_back(w);
      vars.push_back(bias);
      assigns.push_back(ops::Assign(
          &b, w, ops::Const(&b, RandomMatrix(&rng, in_dim, out_dim, 0.5f))));
      Result<Tensor> bias_init =
          RandomMatrix(&rng, 1, out_dim, 0.1f).Reshaped(TensorShape({out_dim}));
      TF_RETURN_IF_ERROR(bias_init.status());
      assigns.push_back(
          ops::Assign(&b, bias, ops::Const(&b, bias_init.value())));
      Output z = ops::BiasAdd(&b, ops::MatMul(&b, h, w), bias);
      h = last ? ops::Softmax(&b, z) : ops::Relu(&b, z);
      in_dim = out_dim;
    }
    probs = h;
    init = ops::Group(&b, assigns, "init");
    saver = std::make_unique<train::Saver>(&b, vars);
    TF_RETURN_IF_ERROR(b.status());
  }
  std::unique_ptr<DirectSession> session;
  {
    ScopedSpan span(log, "session.create", parent);
    auto created = DirectSession::Create(g, ServingSessionOptions());
    TF_RETURN_IF_ERROR(created.status());
    session = std::move(created.value());
  }
  std::string checkpoint;
  {
    ScopedSpan span(log, "checkpoint", parent);
    TF_RETURN_IF_ERROR(session->Run({}, {}, {init->name()}, nullptr));
    Result<std::string> saved = saver->Save(session.get(), checkpoint_prefix, 1);
    TF_RETURN_IF_ERROR(saved.status());
    checkpoint = saved.value();
  }
  Deployment d;
  d.output = probs.name();
  {
    ScopedSpan span(log, "freeze", parent);
    auto frozen = serving::FreezeGraph(g, {checkpoint}, {d.output});
    TF_RETURN_IF_ERROR(frozen.status());
    d.frozen = std::move(frozen.value());
  }
  {
    ScopedSpan span(log, "session.compile", parent);
    serving::Servable::Options options;
    options.session = ServingSessionOptions();
    auto servable = serving::Servable::Create(
        *d.frozen, serving::SignatureDef{"x", {d.output}}, /*version=*/1,
        options);
    TF_RETURN_IF_ERROR(servable.status());
    d.servable = servable.value();
  }
  return d;
}

// The seeded request pool and its batch-1 reference outputs.
struct RequestPool {
  std::vector<Tensor> examples;              // [kInputDim] each
  std::vector<std::vector<float>> expected;  // [kNumClasses] each
};

Result<RequestPool> MakePool(const serving::Servable& servable, uint64_t seed) {
  RequestPool pool;
  std::mt19937_64 rng(seed * 0x9FB21C651E98DF25ull + 5);
  std::normal_distribution<float> normal(0.0f, 1.0f);
  for (int i = 0; i < kPoolSize; ++i) {
    std::vector<float> values(kInputDim);
    for (float& v : values) v = normal(rng);
    pool.examples.push_back(Tensor::Vec<float>(values));
    std::vector<Tensor> out;
    TF_RETURN_IF_ERROR(servable.Run(
        Tensor::FromVector<float>(values, TensorShape({1, kInputDim})), &out));
    const float* p = out[0].data<float>();
    pool.expected.emplace_back(p, p + kNumClasses);
  }
  return pool;
}

struct Arrival {
  int64_t offset_us = 0;  // from the start of the window
  int pool_index = 0;
};

// Poisson arrivals at kRatePerSecond for `seconds`, with seeded examples.
std::vector<Arrival> MakeSchedule(uint64_t seed, double seconds) {
  std::mt19937_64 rng(seed * 0xE7037ED1A0B428DBull + 11);
  std::exponential_distribution<double> gap(kRatePerSecond / 1e6);
  std::uniform_int_distribution<int> pick(0, kPoolSize - 1);
  std::vector<Arrival> schedule;
  double t = 0;
  for (;;) {
    t += gap(rng);
    if (t >= seconds * 1e6) break;
    schedule.push_back({static_cast<int64_t>(t), pick(rng)});
  }
  return schedule;
}

// What happened to each request of one open-loop window.
struct LoadResult {
  int64_t attempted = 0;
  int64_t rejected = 0;
  int64_t errors = 0;
  int64_t mismatches = 0;
  int64_t lost = 0;   // never answered
  int64_t good = 0;   // correct and within kLatencyLimitMs
  std::vector<double> latency_ms;  // correct responses
  std::vector<double> lag_ms;      // generator lateness per send
  std::vector<int64_t> sched_us, done_us;
  double window_s = 0;
  // Per whole second of the schedule: correct responses' latencies, how
  // many of them met the limit, and the share of CPU time stolen.
  std::vector<std::vector<double>> second_latency_ms;
  std::vector<int64_t> second_good;
  std::vector<double> second_steal;

  int64_t failed() const { return rejected + errors + mismatches + lost; }
};

// Sends `schedule` into a fresh batcher from this thread and waits for
// every answer.
LoadResult OpenLoop(std::shared_ptr<const serving::Servable> servable,
                    const RequestPool& pool,
                    const std::vector<Arrival>& schedule, double seconds) {
  serving::DynamicBatcher::Options options;
  options.max_batch_size = kMaxBatch;
  options.batch_timeout_us = kBatchTimeoutUs;
  options.num_batch_threads = kBatchThreads;
  options.max_enqueued = kMaxEnqueued;
  serving::DynamicBatcher batcher([servable] { return servable; }, options);

  const size_t n = schedule.size();
  LoadResult r;
  r.attempted = static_cast<int64_t>(n);
  r.sched_us.assign(n, 0);
  r.done_us.assign(n, 0);
  r.lag_ms.reserve(n);
  // 0 = pending, 1 = correct, 2 = error, 3 = mismatch; written by the
  // answering batch thread, read after `answered` says it is complete.
  std::vector<std::atomic<int>> outcome(n);
  std::atomic<int64_t> answered{0};
  int64_t accepted = 0;

  const int64_t start = NowMicros() + 1000;
  const size_t whole_seconds = std::max<size_t>(1, static_cast<size_t>(seconds));
  // Reads /proc/stat on each second boundary of the schedule that falls
  // inside it.
  std::vector<CpuTimes> marks(static_cast<size_t>(seconds) + 1);
  std::thread sampler([&] {
    for (size_t k = 0; k < marks.size(); ++k) {
      const int64_t wait = start + static_cast<int64_t>(k) * 1000000 -
                           NowMicros();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::microseconds(wait));
      marks[k] = ReadCpuTimes();
    }
  });
  for (size_t i = 0; i < n; ++i) {
    const int64_t due = start + schedule[i].offset_us;
    for (int64_t now = NowMicros(); now < due; now = NowMicros()) {
      if (due - now > 300) {
        std::this_thread::sleep_for(std::chrono::microseconds(due - now - 200));
      }
    }
    r.sched_us[i] = due;
    r.lag_ms.push_back((NowMicros() - due) / 1000.0);
    const int index = schedule[i].pool_index;
    Status s = batcher.Enqueue(
        pool.examples[index],
        [&, i, index](serving::DynamicBatcher::Response response) {
          int result = 1;
          if (!response.status.ok() || response.outputs.size() != 1 ||
              response.outputs[0].num_elements() != kNumClasses) {
            result = 2;
          } else {
            const float* got = response.outputs[0].data<float>();
            for (int c = 0; c < kNumClasses; ++c) {
              if (!(std::fabs(got[c] - pool.expected[index][c]) <=
                    kTolerance)) {
                result = 3;
              }
            }
          }
          r.done_us[i] = NowMicros();
          outcome[i].store(result, std::memory_order_relaxed);
          answered.fetch_add(1, std::memory_order_release);
        });
    if (s.ok()) {
      ++accepted;
    } else {
      ++r.rejected;
    }
  }
  sampler.join();
  for (size_t k = 0; k + 1 < marks.size(); ++k) {
    r.second_steal.push_back(StealShare(marks[k], marks[k + 1]));
  }
  const int64_t give_up = NowMicros() + 30 * 1000000;
  while (answered.load(std::memory_order_acquire) < accepted &&
         NowMicros() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  batcher.Shutdown();  // fails anything still queued; no callback runs after
  r.window_s = seconds;
  r.latency_ms.reserve(n);
  r.second_latency_ms.resize(whole_seconds);
  r.second_good.assign(whole_seconds, 0);
  for (size_t i = 0; i < n; ++i) {
    switch (outcome[i].load(std::memory_order_relaxed)) {
      case 1: {
        const double ms = (r.done_us[i] - r.sched_us[i]) / 1000.0;
        const bool good = ms <= kLatencyLimitMs;
        r.latency_ms.push_back(ms);
        if (good) ++r.good;
        const size_t second =
            static_cast<size_t>(schedule[i].offset_us / 1000000);
        if (second < whole_seconds) {
          r.second_latency_ms[second].push_back(ms);
          if (good) ++r.second_good[second];
        }
        break;
      }
      case 2: ++r.errors; break;
      case 3: ++r.mismatches; break;
      default: break;
    }
  }
  r.lost = accepted - static_cast<int64_t>(r.latency_ms.size()) - r.errors -
           r.mismatches;
  return r;
}

void NoteLoad(const LoadResult& load, RunResult* r) {
  r->attempted += load.attempted;
  r->failed += load.failed();
  if (load.mismatches > 0) {
    r->Fail(std::to_string(load.mismatches) +
            " responses differ from their batch-1 reference");
  }
  if (load.errors > 0) {
    r->Fail(std::to_string(load.errors) + " requests failed");
  }
  if (load.lost > 0) {
    r->Fail(std::to_string(load.lost) + " requests were never answered");
  }
}

// The end-to-end figures of one timed window. Latencies and goodput are
// medians over the quieter half of the window's whole seconds, ranked by
// the CPU time the hypervisor stole in each: a second in which another
// guest held the CPUs measures the host, not the program, and a change to
// the program shows in every second. The gated tail is p90: p99 doubles
// when another guest takes 2% of the CPUs, so it is reported, not gated.
struct WindowFigures {
  double goodput_rps = 0, p50_ms = 0, p90_ms = 0, p99_ms = 0;
  double whole_goodput_rps = 0, whole_p50_ms = 0, whole_p90_ms = 0,
         whole_p99_ms = 0;
  int64_t correct = 0, good = 0, rejected = 0;
  double lag_p99_ms = 0;
  std::vector<double> second_steal;
  int64_t seconds_used = 0;
  double steal_used_max = 0;
};

WindowFigures Summarize(const LoadResult& load) {
  std::vector<size_t> order(load.second_good.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto steal = [&](size_t i) {
    return i < load.second_steal.size() ? load.second_steal[i] : 0.0;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal(a) < steal(b); });
  order.resize(std::max<size_t>(1, (order.size() + 1) / 2));
  WindowFigures f;
  std::vector<double> goodput, p50, p90, p99;
  for (size_t i : order) {
    f.steal_used_max = std::max(f.steal_used_max, steal(i));
    goodput.push_back(static_cast<double>(load.second_good[i]));
    p50.push_back(Median(load.second_latency_ms[i]));
    p90.push_back(Percentile(load.second_latency_ms[i], 0.90));
    p99.push_back(Percentile(load.second_latency_ms[i], 0.99));
  }
  f.seconds_used = static_cast<int64_t>(order.size());
  f.goodput_rps = Median(goodput);
  f.p50_ms = Median(p50);
  f.p90_ms = Median(p90);
  f.p99_ms = Median(p99);
  f.whole_goodput_rps = load.good / load.window_s;
  f.whole_p50_ms = Median(load.latency_ms);
  f.whole_p90_ms = Percentile(load.latency_ms, 0.90);
  f.whole_p99_ms = Percentile(load.latency_ms, 0.99);
  f.correct = static_cast<int64_t>(load.latency_ms.size());
  f.good = load.good;
  f.rejected = load.rejected;
  f.lag_p99_ms = Percentile(load.lag_ms, 0.99);
  f.second_steal = load.second_steal;
  return f;
}

// Per-op kernel breakdown of the frozen graph at the measured mean batch
// size: Servable::Run takes no RunOptions, so the served graph is replayed
// through its own DirectSession with tracing on.
Status ReplayTraced(const Deployment& d, const RequestPool& pool,
                    int64_t batch, SpanLog* log, TraceTotals* totals) {
  auto session = DirectSession::Create(*d.frozen, ServingSessionOptions());
  TF_RETURN_IF_ERROR(session.status());
  TF_RETURN_IF_ERROR(session.value()->Warmup({"x"}, {d.output}, {}));
  Tensor input(DataType::kFloat, TensorShape({batch, kInputDim}));
  for (int64_t row = 0; row < batch; ++row) {
    std::memcpy(input.raw_data() + row * kInputDim * sizeof(float),
                pool.examples[row % kPoolSize].raw_data(),
                kInputDim * sizeof(float));
  }
  RunOptions options;
  options.trace = true;
  for (int i = 0; i < kReplayBatches; ++i) {
    RunMetadata metadata;
    std::vector<Tensor> out;
    Span run;
    run.name = "replay_run";
    run.lane = "replay";
    run.step = i;
    run.start_us = NowMicros();
    TF_RETURN_IF_ERROR(session.value()->Run(options, {{"x", input}},
                                            {d.output}, {}, &out, &metadata));
    run.end_us = NowMicros();
    totals->Add(RecordTracedStep(log, std::move(run), metadata.step_stats));
  }
  return Status::OK();
}

}  // namespace

RunResult RunServeOpen(const Config& config, SpanLog* log) {
  RunResult r;
  r.params.Str("model", "MLP 16 -> 10 x (16, Relu) -> 10 Softmax, frozen")
      .Num("arrival_rate_per_s", kRatePerSecond)
      .Str("arrivals", "Poisson, open loop, one generator thread")
      .Int("request_pool", kPoolSize)
      .Int("max_batch_size", kMaxBatch)
      .Int("batch_timeout_us", kBatchTimeoutUs)
      .Int("batch_threads", kBatchThreads)
      .Int("max_enqueued", kMaxEnqueued)
      .Num("latency_limit_ms", kLatencyLimitMs)
      .Num("tolerance", kTolerance);

  const std::string prefix = config.out_dir + "/serve_ckpt";
  std::vector<double> setup_s;
  auto deploy = [&]() {
    const int64_t span = log->Begin("setup");
    const int64_t t0 = NowMicros();
    Result<Deployment> deployed = Deploy(prefix, config.seed, log, span);
    setup_s.push_back((NowMicros() - t0) / 1e6);
    log->End(span);
    return deployed;
  };
  // As for training, the first deploy is the one measured and the others
  // follow the timed window.
  Result<Deployment> first = deploy();
  if (!first.ok()) {
    r.Fail("setup: " + first.status().ToString());
    r.attempted = r.failed = 1;
    return r;
  }
  Deployment d = std::move(first.value());

  Result<RequestPool> made = MakePool(*d.servable, config.seed);
  if (!made.ok()) {
    r.Fail("reference outputs: " + made.status().ToString());
    r.attempted = r.failed = 1;
    return r;
  }
  const RequestPool& pool = made.value();

  // Untimed warm-up at the same rate: thread pools and allocator caches
  // settle before the window opens.
  OpenLoop(d.servable, pool, MakeSchedule(config.seed + 1, kWarmupSeconds),
           kWarmupSeconds);

  if (!config.trace) {
    const std::vector<Arrival> schedule =
        MakeSchedule(config.seed, config.seconds);
    std::vector<double> steal;
    // Each window is reduced to its figures before the next one starts, so
    // a repeated window does not raise peak_rss_mb.
    const WindowFigures f = MeasureQuietWindow<WindowFigures>(
        [&] {
          const LoadResult window =
              OpenLoop(d.servable, pool, schedule, config.seconds);
          NoteLoad(window, &r);
          return std::make_pair(Summarize(window), true);
        },
        &steal);
    r.metrics["examples_per_s"] = f.goodput_rps;
    r.metrics["latency_ms_p50"] = f.p50_ms;
    r.metrics["latency_ms_p90"] = f.p90_ms;
    r.detail
        .Str("aggregation",
             "median over the quieter half of the window's whole seconds")
        .Int("seconds_used", f.seconds_used)
        .Num("seconds_used_steal_max", f.steal_used_max)
        .Raw("second_steal_shares", JsonArray(f.second_steal))
        .Num("latency_ms_p99", f.p99_ms)
        .Num("goodput_rps_whole_window", f.whole_goodput_rps)
        .Num("latency_ms_p50_whole_window", f.whole_p50_ms)
        .Num("latency_ms_p90_whole_window", f.whole_p90_ms)
        .Num("latency_ms_p99_whole_window", f.whole_p99_ms)
        .Int("requests_correct", f.correct)
        .Int("requests_within_limit", f.good)
        .Int("rejected", f.rejected)
        .Num("loadgen_lag_ms_p99", f.lag_p99_ms)
        .Raw("window_cpu_steal_shares", JsonArray(steal));
  } else {
    const double third = config.seconds / 3.0;
    const LoadResult plain = OpenLoop(
        d.servable, pool, MakeSchedule(config.seed, third), third);
    NoteLoad(plain, &r);

    const auto before = metrics::Registry::Global()->Snapshot();
    const AllocTotals a0 = ReadAllocTotals();
    EnableAllocCounting(true);
    const LoadResult counted = OpenLoop(
        d.servable, pool, MakeSchedule(config.seed + 2, third), third);
    EnableAllocCounting(false);
    const AllocTotals a1 = ReadAllocTotals();
    const auto after = metrics::Registry::Global()->Snapshot();
    NoteLoad(counted, &r);

    TraceCollector waits(/*capture_global_events=*/true);
    const LoadResult traced = OpenLoop(
        d.servable, pool, MakeSchedule(config.seed + 3, third), third);
    const StepStats wait_stats = waits.Consume(0);
    NoteLoad(traced, &r);
    for (size_t i = 0; i < traced.sched_us.size(); ++i) {
      Span request;
      request.name = "request";
      request.lane = "requests";
      request.start_us = traced.sched_us[i];
      request.end_us = traced.done_us[i] > 0 ? traced.done_us[i]
                                             : traced.sched_us[i];
      request.step = static_cast<int64_t>(i);
      log->Add(std::move(request));
    }
    std::vector<double> queue_wait_ms;
    for (const SpanEvent& s : wait_stats.spans) {
      if (s.name != "serving.queue_wait") continue;
      queue_wait_ms.push_back((s.end_micros - s.start_micros) / 1000.0);
    }

    const RegistryDelta delta(before, after);
    const double requests = static_cast<double>(counted.attempted);
    const double batches =
        std::max<double>(1.0, delta.Counter("serving.batches"));
    auto& m = r.metrics;
    m["alloc.count_per_step"] = (a1.count - a0.count) / requests;
    m["alloc.bytes_per_step"] = (a1.bytes - a0.bytes) / requests;
    AddRegistryMetrics(delta, batches, &r);
    m["executor.nodes_per_step"] =
        delta.Counter("executor.nodes_executed") / batches;
    m["serving.batch_size_mean"] = delta.HistogramMean("serving.batch_size");
    m["serving.batch_run_ms_p50"] =
        delta.Histogram("serving.batch_run_ms").Percentile(0.5);
    m["serving.queue_wait_ms_p50"] = Median(queue_wait_ms);
    m["loadgen.lag_ms_p99"] = Percentile(plain.lag_ms, 0.99);
    m["trace.overhead_ratio"] =
        Median(traced.latency_ms) / Median(plain.latency_ms);
    m["graph.nodes"] = static_cast<double>(d.frozen->num_nodes());

    const int64_t replay_batch = std::max<int64_t>(
        1, std::llround(m["serving.batch_size_mean"]));
    TraceTotals totals;
    Status replayed = ReplayTraced(d, pool, replay_batch, log, &totals);
    if (!replayed.ok()) r.Fail("replay: " + replayed.ToString());
    double matmul_flops = 0;
    for (int layer = 0; layer <= kHiddenLayers; ++layer) {
      const int in = layer == 0 ? kInputDim : kHiddenDim;
      const int out = layer == kHiddenLayers ? kNumClasses : kHiddenDim;
      matmul_flops += 2.0 * in * out * replay_batch;
    }
    AddKernelMetrics(totals, {{"MatMul", matmul_flops}}, &r);
    r.detail.Int("replay_batch_size", replay_batch)
        .Num("plain_latency_ms_p50", Median(plain.latency_ms))
        .Num("traced_latency_ms_p50", Median(traced.latency_ms))
        .Str("per_step_means", "per request for alloc.*, per batch otherwise");
  }
  r.metrics["peak_rss_mb"] = SelfPeakRssMb();
  d = Deployment();
  for (int i = 1; i < kSetups && r.correct; ++i) {
    Result<Deployment> extra = deploy();
    if (!extra.ok()) r.Fail("setup: " + extra.status().ToString());
  }
  std::remove((prefix + "-1").c_str());
  r.metrics["setup_s"] = Median(setup_s);
  r.detail.Raw("setup_s_samples", JsonArray(setup_s));
  if (config.trace) AddSetupSpanMetrics(*log, &r);
  return r;
}

}  // namespace stepbench
