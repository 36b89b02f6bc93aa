// The measurement loop shared by the two training workloads: repeated
// set-ups, a timed window of steps with loss checks, and in the traced run
// the plain / counted / traced phases that yield the per-layer metrics.

#ifndef STEPBENCH_TRAINING_H_
#define STEPBENCH_TRAINING_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "graph/graph_builder.h"
#include "runtime/tracing.h"
#include "train/optimizer.h"
#include "workloads.h"

namespace stepbench {

// One built, initialised and compiled training setup.
class TrainingModel {
 public:
  virtual ~TrainingModel() = default;

  // Runs one training step and returns its loss.
  virtual tfrepro::Status Step(const tfrepro::RunOptions& options,
                               tfrepro::RunMetadata* metadata,
                               float* loss) = 0;

  // Peak resident set of the program's other processes, in MB.
  virtual double WorkerPeakRssMb() const { return 0.0; }

  // Loss of the step run during set-up (step 0 of the trajectory).
  float step0_loss = 0.0f;
  // Nodes in the graph the client built, gradients included.
  int64_t graph_nodes = 0;
};

struct TrainingWorkload {
  // Builds a model from scratch: graph, session, variables, compile and
  // the first step. Opens child spans of `setup_span` named graph.build,
  // session.create, session.compile (and cluster.spawn where it applies).
  std::function<tfrepro::Result<std::unique_ptr<TrainingModel>>(
      SpanLog* log, int64_t setup_span)>
      setup;
  int64_t examples_per_step = 0;
  // FLOPs one step asks of each op type (for kernel.<Op>.gflops).
  std::map<std::string, double> flops_per_step;
  // True when the executors run in this process, so the registry's
  // executor.nodes_executed counts them; otherwise nodes per step come
  // from the traced steps' StepStats.
  bool executors_in_process = true;
};

RunResult RunTraining(const Config& config, const TrainingWorkload& workload,
                      SpanLog* log);

// SGD updates gated on a barrier: every gradient is computed before any
// variable changes (the §4.4 synchronous discipline in miniature), so a
// fixed input order gives a bit-identical loss trajectory. Each update is
// placed with its variable. Returns the group node to run as the target.
tfrepro::Result<tfrepro::Node*> ApplySgdAfterBarrier(
    tfrepro::GraphBuilder* b,
    const std::vector<tfrepro::train::GradAndVar>& grads, float learning_rate,
    const std::string& name);

}  // namespace stepbench

#endif  // STEPBENCH_TRAINING_H_
