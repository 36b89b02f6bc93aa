// Unit tests of the step-ledger arithmetic against hand-built inputs:
// interval unions (kernel busy time), span self time, StepStats breakdowns
// and registry deltas.

#include <gtest/gtest.h>

#include "core/metrics.h"
#include "ledger.h"
#include "report.h"

namespace stepbench {
namespace {

using tfrepro::NodeExecStats;
using tfrepro::StepStats;
using tfrepro::TransferStats;

TEST(UnionLengthTest, CountsOverlapsOnce) {
  EXPECT_EQ(UnionLength({}), 0);
  EXPECT_EQ(UnionLength({{0, 10}}), 10);
  EXPECT_EQ(UnionLength({{0, 10}, {5, 15}}), 15);      // overlapping
  EXPECT_EQ(UnionLength({{0, 10}, {2, 4}}), 10);       // nested
  EXPECT_EQ(UnionLength({{20, 30}, {0, 10}}), 20);     // disjoint, unsorted
  EXPECT_EQ(UnionLength({{0, 10}, {10, 20}}), 20);     // touching
  EXPECT_EQ(UnionLength({{5, 5}, {9, 3}, {0, 1}}), 1);  // empty and inverted
}

TEST(UnionLengthTest, CoveredLengthClipsToParent) {
  EXPECT_EQ(CoveredLength({10, 20}, {{0, 12}, {18, 40}}), 4);
  EXPECT_EQ(CoveredLength({10, 20}, {{0, 5}, {25, 40}}), 0);
  EXPECT_EQ(CoveredLength({10, 20}, {{0, 40}}), 10);
}

Span MakeSpan(const std::string& name, int64_t start, int64_t end,
              int64_t parent = -1) {
  Span s;
  s.name = name;
  s.start_us = start;
  s.end_us = end;
  s.parent = parent;
  return s;
}

TEST(SpanLogTest, SelfTimeSubtractsUnionOfDirectChildren) {
  SpanLog log;
  const int64_t root = log.Add(MakeSpan("setup", 0, 100));
  const int64_t a = log.Add(MakeSpan("graph.build", 10, 30, root));
  log.Add(MakeSpan("session.create", 20, 50, root));
  log.Add(MakeSpan("late", 90, 120, root));  // clipped to [90, 100]
  log.Add(MakeSpan("grandchild", 12, 28, a));  // not a direct child of root
  const auto by_name = log.SelfMsByName();
  EXPECT_DOUBLE_EQ(by_name.at("setup"), 0.050);
  EXPECT_DOUBLE_EQ(by_name.at("graph.build"), 0.004);
  EXPECT_DOUBLE_EQ(by_name.at("grandchild"), 0.016);
  EXPECT_EQ(log.DurationsMs("session.create"), std::vector<double>{0.030});
}

NodeExecStats Node(const std::string& op, int64_t scheduled, int64_t start,
                   int64_t end) {
  NodeExecStats n;
  n.op = op;
  n.node_name = op + "_node";
  n.device = "/job:localhost/task:0/cpu:0";
  n.scheduled_micros = scheduled;
  n.start_micros = start;
  n.end_micros = end;
  return n;
}

// A step spanning [0, 100]: MatMul [10, 40] and Conv2D [30, 60] overlap;
// a _Recv node waits [70, 90] and its transfer event [70, 95].
StepStats HandBuiltStep() {
  StepStats stats;
  stats.nodes = {Node("MatMul", 5, 10, 40), Node("Conv2D", 30, 30, 60),
                 Node("_Recv", 65, 70, 90)};
  TransferStats recv;
  recv.kind = TransferStats::Kind::kRecv;
  recv.tensor_name = "t";
  recv.recv_start_micros = 70;
  recv.recv_end_micros = 95;
  TransferStats send;  // sends carry no wait interval
  send.kind = TransferStats::Kind::kSend;
  send.send_micros = 20;
  stats.transfers = {recv, send};
  return stats;
}

TEST(AnalyzeStepTest, SplitsWallTimeIntoKernelTransferAndRest) {
  const StepBreakdown b = AnalyzeStep(HandBuiltStep(), {0, 100});
  EXPECT_EQ(b.wall_us, 100);
  EXPECT_EQ(b.kernel_union_us, 50);  // [10, 60]; _Recv is not a kernel
  EXPECT_EQ(b.nonkernel_us, 25);     // 100 - |[10, 60] u [70, 95]|
  EXPECT_EQ(b.op_us.at("MatMul"), 30);
  EXPECT_EQ(b.op_us.at("Conv2D"), 30);
  EXPECT_EQ(b.op_us.count("_Recv"), 0u);
  EXPECT_EQ(b.ready_wait_us_sum, 5 + 0 + 5);
  EXPECT_EQ(b.ready_wait_count, 3);
  EXPECT_EQ(b.recv_wait_us, 25);
  EXPECT_EQ(b.nodes, 3);
}

TEST(AnalyzeStepTest, ClipsEventsToTheRunSpan) {
  const StepBreakdown b = AnalyzeStep(HandBuiltStep(), {20, 80});
  EXPECT_EQ(b.kernel_union_us, 40);  // [20, 60]
  EXPECT_EQ(b.recv_wait_us, 10);     // [70, 80]
  EXPECT_EQ(b.nonkernel_us, 60 - 40 - 10);
}

TEST(AnalyzeStepTest, NonkernelTimeIsTheRunSpansSelfTime) {
  SpanLog log;
  Span run = MakeSpan("run", 0, 100);
  run.step = 7;
  const StepBreakdown b = RecordTracedStep(&log, run, HandBuiltStep());
  ASSERT_EQ(log.size(), 1u + 3u + 1u);  // run, three nodes, one Recv wait
  EXPECT_DOUBLE_EQ(log.SelfMsByName().at("run") * 1000, b.nonkernel_us);
}

TEST(RegistryDeltaTest, SubtractsCountersAndHistogramsAcrossTags) {
  tfrepro::metrics::Registry reg;
  const std::vector<double> bounds = {1, 10, 100};
  reg.GetCounter("rpc.bytes_sent", {{"peer", "a"}})->Increment(100);
  reg.GetHistogram("lat", bounds, {{"m", "x"}})->Record(5);
  const auto before = reg.Snapshot();
  reg.GetCounter("rpc.bytes_sent", {{"peer", "a"}})->Increment(20);
  reg.GetCounter("rpc.bytes_sent", {{"peer", "b"}})->Increment(3);
  reg.GetHistogram("lat", bounds, {{"m", "x"}})->Record(50);
  reg.GetHistogram("lat", bounds, {{"m", "y"}})->Record(0.5);
  reg.GetHistogram("lat", bounds, {{"m", "y"}})->Record(500);
  const auto after = reg.Snapshot();

  const RegistryDelta delta(before, after);
  EXPECT_EQ(delta.Counter("rpc.bytes_sent"), 23);
  EXPECT_EQ(delta.Counter("absent"), 0);
  const auto h = delta.Histogram("lat");
  EXPECT_EQ(h.count, 3);
  EXPECT_DOUBLE_EQ(h.sum, 550.5);
  EXPECT_EQ(h.bucket_counts, (std::vector<int64_t>{1, 0, 1, 1}));
  EXPECT_DOUBLE_EQ(delta.HistogramMean("lat"), 550.5 / 3);
  // The median sample (rank 1 of 3) is the only one in (10, 100].
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 10.0);
  EXPECT_EQ(delta.Histogram("absent").count, 0);
}

TEST(PercentileTest, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(Percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 0.9), 3.7);
  EXPECT_DOUBLE_EQ(Percentile({1, 2, 3, 4}, 1.0), 4.0);
}

TEST(KernelMetricsTest, PerStepTimesSharesAndGflops) {
  TraceTotals totals;
  StepBreakdown step;
  step.wall_us = 2000;
  step.kernel_union_us = 1500;
  step.nonkernel_us = 300;
  step.op_us = {{"MatMul", 1000}, {"Conv2D", 400}, {"Tanh", 100}};
  totals.Add(step);
  totals.Add(step);
  RunResult r;
  AddKernelMetrics(totals, {{"MatMul", 2e9}}, &r);
  EXPECT_DOUBLE_EQ(r.metrics.at("kernel.MatMul.ms_per_step"), 1.0);
  EXPECT_DOUBLE_EQ(r.metrics.at("kernel.Conv2D.ms_per_step"), 0.4);
  EXPECT_DOUBLE_EQ(r.metrics.at("kernel.other.ms_per_step"), 0.1);
  EXPECT_DOUBLE_EQ(r.metrics.at("kernel.MatMul.gflops"), 2000.0);
  EXPECT_DOUBLE_EQ(r.metrics.at("kernel.Conv2D.gflops"), 0.0);  // no FLOPs
  EXPECT_DOUBLE_EQ(r.metrics.at("kernel.busy_share"), 0.75);
  EXPECT_DOUBLE_EQ(r.metrics.at("executor.nonkernel_ms_per_step"), 0.3);
}

}  // namespace
}  // namespace stepbench
