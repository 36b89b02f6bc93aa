// lm_ps_socket: the §6.4 language-model shape, scaled down, trained over
// the socket transport — two parameter-server tasks holding the mod-sharded
// embedding and sampled-softmax weights, one worker task running the
// unrolled LSTM, each its own worker_main process. This process is the
// client and master and feeds token batches generated from the seed.

#include <algorithm>
#include <cmath>
#include <random>

#include "distributed/cluster.h"
#include "distributed/master.h"
#include "graph/ops.h"
#include "nn/embedding.h"
#include "nn/layers.h"
#include "nn/rnn.h"
#include "nn/softmax.h"
#include "procs.h"
#include "report.h"
#include "training.h"

namespace stepbench {
namespace {

using namespace tfrepro;

constexpr int64_t kVocab = 10000;
constexpr double kZipfExponent = 1.05;
constexpr int64_t kEmbedDim = 64;
constexpr int64_t kHidden = 128;
constexpr int kUnroll = 8;
constexpr int kBatch = 32;
constexpr int64_t kSampled = 64;
constexpr int kShards = 4;
constexpr int kPsTasks = 2;
constexpr int kBatchPool = 32;
constexpr float kLearningRate = 0.5f;

using Feeds = std::vector<std::pair<std::string, Tensor>>;

// kBatchPool feed sets of [kBatch, kUnroll + 1] Zipf token windows: tokens
// t feed step t, tokens t + 1 are its labels.
std::vector<Feeds> MakeTokenBatches(uint64_t seed) {
  std::vector<double> cdf(kVocab);
  double total = 0;
  for (int64_t i = 0; i < kVocab; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfExponent);
    cdf[i] = total;
  }
  std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ull + 7);
  std::uniform_real_distribution<double> uniform(0.0, total);
  std::vector<Feeds> batches(kBatchPool);
  for (Feeds& feeds : batches) {
    std::vector<std::vector<int64_t>> window(kBatch,
                                             std::vector<int64_t>(kUnroll + 1));
    for (auto& row : window) {
      for (int64_t& token : row) {
        token = std::lower_bound(cdf.begin(), cdf.end(), uniform(rng)) -
                cdf.begin();
        if (token >= kVocab) token = kVocab - 1;
      }
    }
    for (int t = 0; t < kUnroll; ++t) {
      Tensor tokens(DataType::kInt32, TensorShape({kBatch}));
      Tensor labels(DataType::kInt64, TensorShape({kBatch}));
      for (int i = 0; i < kBatch; ++i) {
        tokens.flat<int32_t>(i) = static_cast<int32_t>(window[i][t]);
        labels.flat<int64_t>(i) = window[i][t + 1];
      }
      feeds.emplace_back("tokens" + std::to_string(t), tokens);
      feeds.emplace_back("labels" + std::to_string(t), labels);
    }
  }
  return batches;
}

class LmModel : public TrainingModel {
 public:
  explicit LmModel(const std::vector<Feeds>* batches) : batches_(batches) {}

  ~LmModel() override {
    session.reset();
    cluster.reset();  // shuts down and reaps the worker processes
    RegisterChildren({});
  }

  Status Step(const RunOptions& options, RunMetadata* metadata,
              float* loss) override {
    const Feeds& feeds = (*batches_)[next_batch_++ % batches_->size()];
    std::vector<Tensor> out;
    TF_RETURN_IF_ERROR(session->Run(options, feeds, {loss_name}, {train_name},
                                    &out, metadata));
    *loss = out[0].data<float>()[0];
    return Status::OK();
  }

  double WorkerPeakRssMb() const override {
    double peak = 0;
    for (pid_t pid : ChildPids()) peak = std::max(peak, PeakRssMbOf(pid));
    return peak;
  }

  std::unique_ptr<distributed::Cluster> cluster;
  std::unique_ptr<distributed::MasterSession> session;
  std::string loss_name;
  std::string train_name;

 private:
  const std::vector<Feeds>* batches_;
  size_t next_batch_ = 0;
};

std::string PsDevice(int shard) {
  return "/job:ps/task:" + std::to_string(shard % kPsTasks);
}

Result<std::unique_ptr<TrainingModel>> Setup(const std::vector<Feeds>* batches,
                                             uint64_t seed, SpanLog* log,
                                             int64_t parent) {
  auto model = std::make_unique<LmModel>(batches);
  {
    ScopedSpan span(log, "cluster.spawn", parent);
    distributed::ClusterSpec spec;
    spec.jobs = {{"ps", kPsTasks}, {"worker", 1}};
    spec.transport = "socket";
    auto cluster = distributed::Cluster::Create(spec);
    RegisterChildren(ChildPids());
    TF_RETURN_IF_ERROR(cluster.status());
    model->cluster = std::move(cluster.value());
  }
  Graph graph;
  Node* init = nullptr;
  {
    ScopedSpan span(log, "graph.build", parent);
    GraphBuilder b(&graph);
    GraphBuilder::DeviceScope worker(&b, "/job:worker/task:0");
    nn::VariableStore store(&b, static_cast<int64_t>(seed));
    nn::ShardedEmbedding embedding(&store, "embedding", kVocab, kEmbedDim,
                                   kShards, PsDevice);
    nn::LSTMCell cell(&store, "lstm", kEmbedDim, kHidden);
    nn::SampledSoftmaxHead softmax(&store, "softmax", kHidden, kVocab,
                                   kSampled, kShards, PsDevice);
    std::vector<Output> tokens, labels;
    for (int t = 0; t < kUnroll; ++t) {
      tokens.push_back(ops::Placeholder(&b, DataType::kInt32,
                                        TensorShape({kBatch}),
                                        "tokens" + std::to_string(t)));
      labels.push_back(ops::Placeholder(&b, DataType::kInt64,
                                        TensorShape({kBatch}),
                                        "labels" + std::to_string(t)));
    }
    nn::LSTMState state = cell.ZeroState(embedding.Lookup(tokens[0]));
    std::vector<Output> step_losses;
    for (int t = 0; t < kUnroll; ++t) {
      state = cell.Step(embedding.Lookup(tokens[t]), state);
      step_losses.push_back(softmax.Loss(state.h, labels[t]).loss);
    }
    Output loss = ops::Div(&b, ops::AddN(&b, step_losses),
                           ops::Const(&b, static_cast<float>(kUnroll)));
    train::GradientDescentOptimizer sgd(kLearningRate);
    auto grads = sgd.ComputeGradients(&b, loss, store.variables());
    TF_RETURN_IF_ERROR(grads.status());
    auto train = ApplySgdAfterBarrier(&b, grads.value(), kLearningRate, "train");
    TF_RETURN_IF_ERROR(train.status());
    init = store.BuildInitOp("init");
    TF_RETURN_IF_ERROR(b.status());
    model->loss_name = loss.name();
    model->train_name = train.value()->name();
    model->graph_nodes = graph.num_nodes();
  }
  {
    ScopedSpan span(log, "session.create", parent);
    distributed::MasterSession::Options options;
    options.profile_sample_every = -1;
    options.step_deadline_seconds = 60;
    auto session = distributed::MasterSession::Create(
        graph, model->cluster.get(), options);
    TF_RETURN_IF_ERROR(session.status());
    model->session = std::move(session.value());
  }
  {
    ScopedSpan span(log, "variables.init", parent);
    TF_RETURN_IF_ERROR(model->session->Run({}, {}, {init->name()}, nullptr));
  }
  {
    // MasterSession has no Warmup: the first step compiles the signature.
    ScopedSpan span(log, "session.compile", parent);
    TF_RETURN_IF_ERROR(model->Step(RunOptions(), nullptr, &model->step0_loss));
  }
  return std::unique_ptr<TrainingModel>(std::move(model));
}

}  // namespace

RunResult RunLmPsSocket(const Config& config, SpanLog* log) {
  const std::vector<Feeds> batches = MakeTokenBatches(config.seed);
  TrainingWorkload workload;
  workload.examples_per_step = kBatch;
  workload.executors_in_process = false;
  workload.setup = [&](SpanLog* l, int64_t parent) {
    return Setup(&batches, config.seed, l, parent);
  };
  // Per timestep and example: the fused LSTM gate matmul
  // [in + h] x [in + h, 4h] and the sampled logits [h] x [h, S]; training
  // runs each forward matmul and its two gradients.
  workload.flops_per_step = {
      {"MatMul", 3.0 * kUnroll * kBatch *
                     (2.0 * (kEmbedDim + kHidden) * 4 * kHidden +
                      2.0 * kHidden * kSampled)}};
  RunResult r = RunTraining(config, workload, log);
  r.params.Int("vocab", kVocab)
      .Num("zipf_exponent", kZipfExponent)
      .Int("embedding_dim", kEmbedDim)
      .Int("lstm_hidden", kHidden)
      .Int("unroll", kUnroll)
      .Int("batch", kBatch)
      .Int("sampled_classes", kSampled)
      .Int("shards", kShards)
      .Int("ps_tasks", kPsTasks)
      .Int("worker_tasks", 1)
      .Int("token_batch_pool", kBatchPool)
      .Num("learning_rate", kLearningRate)
      .Str("transport", "socket");
  return r;
}

}  // namespace stepbench
