// convnet_direct: a CIFAR-shaped convnet trained with SGD through
// DirectSession, fed by the in-graph input pipeline from a record file the
// benchmark generates from its seed.

#include <cstdio>
#include <random>

#include "data/dataset.h"
#include "data/record_file.h"
#include "graph/ops.h"
#include "nn/build_model.h"
#include "nn/layers.h"
#include "report.h"
#include "runtime/session.h"
#include "training.h"

namespace stepbench {
namespace {

using namespace tfrepro;

constexpr int64_t kBatch = 16;
constexpr int64_t kImage = 32;
constexpr int64_t kChannels = 3;
constexpr int64_t kClasses = 10;
constexpr int kRecords = 1024;
constexpr int64_t kShuffleBuffer = 256;
constexpr float kLearningRate = 0.01f;

nn::LayerSpec Conv(int64_t hw, int64_t in_c, int64_t out_c) {
  nn::LayerSpec l;
  l.kind = nn::LayerSpec::Kind::kConv;
  l.in_h = l.in_w = hw;
  l.in_c = in_c;
  l.k = 5;
  l.out_c = out_c;
  return l;
}

nn::LayerSpec Pool(int64_t hw, int64_t c) {
  nn::LayerSpec l;
  l.kind = nn::LayerSpec::Kind::kPool;
  l.in_h = l.in_w = hw;
  l.in_c = l.out_c = c;
  l.k = 2;
  l.stride = 2;
  return l;
}

nn::LayerSpec Dense(int64_t in, int64_t out) {
  nn::LayerSpec l;
  l.kind = nn::LayerSpec::Kind::kFullyConnected;
  l.in_dim = in;
  l.out_dim = out;
  return l;
}

// 32x32x3 -> conv5x5/16 -> maxpool2 -> conv5x5/32 -> maxpool2 -> fc128
// -> fc10.
nn::ModelSpec CifarSpec() {
  nn::ModelSpec spec;
  spec.name = "cifar";
  spec.batch = kBatch;
  spec.layers = {Conv(32, 3, 16), Pool(32, 16), Conv(16, 16, 32),
                 Pool(16, 32),    Dense(8 * 8 * 32, 128), Dense(128, 10)};
  return spec;
}

// Seeded CIFAR-shaped records: each class has a random prototype image and
// an example is its class prototype plus noise, so the loss can fall.
Status WriteRecords(const std::string& path, uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::normal_distribution<float> normal(0.0f, 1.0f);
  const int64_t dim = kImage * kImage * kChannels;
  std::vector<std::vector<float>> prototypes(kClasses,
                                             std::vector<float>(dim));
  for (auto& p : prototypes) {
    for (float& v : p) v = normal(rng);
  }
  std::uniform_int_distribution<int64_t> label_dist(0, kClasses - 1);
  data::RecordWriter writer(path);
  std::vector<float> example(dim);
  for (int i = 0; i < kRecords; ++i) {
    const int64_t label = label_dist(rng);
    for (int64_t j = 0; j < dim; ++j) {
      example[j] = prototypes[label][j] + 0.5f * normal(rng);
    }
    TF_RETURN_IF_ERROR(writer.Append(
        data::EncodeExample(example.data(), static_cast<int>(dim), label)));
  }
  return writer.Close();
}

class ConvnetModel : public TrainingModel {
 public:
  Status Step(const RunOptions& options, RunMetadata* metadata,
              float* loss) override {
    std::vector<Tensor> out;
    TF_RETURN_IF_ERROR(session->Run(options, {}, {loss_name}, {train_name},
                                    &out, metadata));
    *loss = out[0].data<float>()[0];
    return Status::OK();
  }

  std::unique_ptr<DirectSession> session;
  std::string loss_name;
  std::string train_name;
};

Result<std::unique_ptr<TrainingModel>> Setup(const std::string& records,
                                             uint64_t seed, SpanLog* log,
                                             int64_t parent) {
  auto model = std::make_unique<ConvnetModel>();
  const nn::ModelSpec spec = CifarSpec();
  Graph graph;
  Node* init = nullptr;
  {
    ScopedSpan span(log, "graph.build", parent);
    GraphBuilder b(&graph);
    nn::VariableStore store(&b, static_cast<int64_t>(seed));
    const DataTypeVector types = {DataType::kFloat, DataType::kInt64};
    Output pipeline = ops::RecordFileDataset(&b, {records});
    pipeline = ops::RepeatDataset(&b, pipeline, -1);
    pipeline = ops::ParallelMapDataset(&b, pipeline, "parse_example", 2, types);
    pipeline = ops::ShuffleDataset(&b, pipeline, kShuffleBuffer,
                                   static_cast<int64_t>(seed));
    pipeline = ops::BatchDataset(&b, pipeline, kBatch, /*drop_remainder=*/true);
    pipeline = ops::PrefetchDataset(&b, pipeline, 2);
    std::vector<Output> next = ops::IteratorGetNext(&b, pipeline, types, "input");
    Output images = ops::Reshape(
        &b, next[0],
        {static_cast<int32_t>(kBatch), static_cast<int32_t>(kImage),
         static_cast<int32_t>(kImage), static_cast<int32_t>(kChannels)});
    Result<Output> logits = nn::BuildConvNet(&store, images, spec);
    TF_RETURN_IF_ERROR(logits.status());
    Node* xent = ops::SparseSoftmaxCrossEntropyWithLogits(&b, logits.value(),
                                                          next[1]);
    Output loss = ops::MeanAll(&b, Output(xent, 0));
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
  SessionOptions options;
  options.profile_sample_every = -1;
  {
    ScopedSpan span(log, "session.create", parent);
    auto session = DirectSession::Create(graph, options);
    TF_RETURN_IF_ERROR(session.status());
    model->session = std::move(session.value());
  }
  {
    ScopedSpan span(log, "variables.init", parent);
    TF_RETURN_IF_ERROR(model->session->Run({}, {}, {init->name()}, nullptr));
  }
  {
    ScopedSpan span(log, "session.compile", parent);
    TF_RETURN_IF_ERROR(
        model->session->Warmup({}, {model->loss_name}, {model->train_name}));
  }
  {
    // The first step opens the record file and fills the pipeline.
    ScopedSpan span(log, "first_step", parent);
    TF_RETURN_IF_ERROR(model->Step(RunOptions(), nullptr, &model->step0_loss));
  }
  return std::unique_ptr<TrainingModel>(std::move(model));
}

}  // namespace

RunResult RunConvnetDirect(const Config& config, SpanLog* log) {
  const std::string records = config.out_dir + "/convnet_records.rec";
  tfrepro::Status written = WriteRecords(records, config.seed);
  if (!written.ok()) {
    RunResult r;
    r.Fail("writing records: " + written.ToString());
    r.attempted = r.failed = 1;
    return r;
  }
  const nn::ModelSpec spec = CifarSpec();
  TrainingWorkload workload;
  workload.examples_per_step = kBatch;
  workload.setup = [&](SpanLog* l, int64_t parent) {
    return Setup(records, config.seed, l, parent);
  };
  // Forward FLOPs per layer x batch. Each conv layer's filter gradient
  // costs its forward FLOPs again, as does its input gradient except for
  // the first layer, whose input (the images) needs none; each dense layer
  // does three matmuls (forward, input and weight gradients).
  double conv = 0, conv_first = 0, matmul = 0;
  for (const nn::LayerSpec& l : spec.layers) {
    const double f = l.ForwardFlops() * kBatch;
    if (l.kind == nn::LayerSpec::Kind::kConv) {
      if (conv == 0) conv_first = f;
      conv += f;
    } else if (l.kind == nn::LayerSpec::Kind::kFullyConnected) {
      matmul += 3 * f;
    }
  }
  workload.flops_per_step = {{"Conv2D", conv},
                             {"Conv2DBackpropFilter", conv},
                             {"Conv2DBackpropInput", conv - conv_first},
                             {"MatMul", matmul}};
  RunResult r = RunTraining(config, workload, log);
  std::remove(records.c_str());
  r.params.Str("model", "32x32x3 conv5x5/16 maxpool2 conv5x5/32 maxpool2 "
                        "fc128 fc10")
      .Int("batch", kBatch)
      .Int("records", kRecords)
      .Int("shuffle_buffer", kShuffleBuffer)
      .Num("learning_rate", kLearningRate)
      .Str("pipeline", "RecordFile Repeat ParallelMap(parse_example,2) "
                       "Shuffle Batch Prefetch(2)")
      .Str("session", "DirectSession num_threads=4");
  return r;
}

}  // namespace stepbench
