/**
 * @file
 * Tests for the Ansor-stand-in auto-scheduler: resource reporting,
 * tensor-core eligibility, tile feasibility, memoization, and the
 * launch-dimension/occupancy interface the partitioner consumes
 * (paper Sec. 5.4 "Get required resource").
 */

#include <gtest/gtest.h>

#include "graph/lowering.h"
#include "sched/schedule.h"

namespace souffle {
namespace {

struct Scheduled
{
    LoweredModel lowered;
    std::unique_ptr<GlobalAnalysis> analysis;
    std::unique_ptr<AutoScheduler> scheduler;
};

Scheduled
scheduleGraph(const Graph &graph)
{
    Scheduled s;
    s.lowered = lowerToTe(graph);
    s.analysis = std::make_unique<GlobalAnalysis>(s.lowered.program);
    s.scheduler = std::make_unique<AutoScheduler>(
        s.lowered.program, *s.analysis, DeviceSpec::a100());
    return s;
}

TEST(Scheduler, Fp16MatmulUsesTensorCores)
{
    Graph g;
    const ValueId a = g.input("a", {256, 256}, DType::kFP16);
    const ValueId b = g.param("b", {256, 256}, DType::kFP16);
    g.markOutput(g.matmul(a, b));
    Scheduled s = scheduleGraph(g);
    const Schedule sched = s.scheduler->schedule(0);
    EXPECT_TRUE(sched.useTensorCore);
    EXPECT_GE(sched.tileM, 16);
    EXPECT_GE(sched.tileN, 16);
}

TEST(Scheduler, Fp32MatmulUsesFmaPipe)
{
    Graph g;
    const ValueId a = g.input("a", {256, 256}, DType::kFP32);
    const ValueId b = g.param("b", {256, 256}, DType::kFP32);
    g.markOutput(g.matmul(a, b));
    Scheduled s = scheduleGraph(g);
    EXPECT_FALSE(s.scheduler->schedule(0).useTensorCore);
}

TEST(Scheduler, ContractionRespectsSharedMemoryLimit)
{
    Graph g;
    const ValueId a = g.input("a", {4096, 4096});
    const ValueId b = g.param("b", {4096, 4096});
    g.markOutput(g.matmul(a, b));
    Scheduled s = scheduleGraph(g);
    const Schedule sched = s.scheduler->schedule(0);
    EXPECT_LE(sched.sharedMemBytes,
              DeviceSpec::a100().sharedMemPerBlockLimit);
    EXPECT_GT(sched.numBlocks, 0);
    EXPECT_FALSE(sched.gridStride);
    EXPECT_GT(sched.estTimeUs, 0.0);
    EXPECT_GT(sched.estGlobalBytes, 0.0);
}

TEST(Scheduler, ElementwiseIsGridStride)
{
    Graph g;
    const ValueId x = g.input("x", {1024, 1024});
    g.markOutput(g.relu(x));
    Scheduled s = scheduleGraph(g);
    const Schedule sched = s.scheduler->schedule(0);
    EXPECT_TRUE(sched.gridStride);
    EXPECT_EQ(sched.sharedMemBytes, 0);
}

TEST(Scheduler, ReductionIsGridStrideWithSmem)
{
    Graph g;
    const ValueId x = g.input("x", {512, 512});
    g.markOutput(g.reduceSum(x, {1}));
    Scheduled s = scheduleGraph(g);
    const Schedule sched = s.scheduler->schedule(0);
    EXPECT_TRUE(sched.gridStride);
    EXPECT_GT(sched.sharedMemBytes, 0);
}

TEST(Scheduler, MemoizationBySignature)
{
    // Two identical GEMMs share one schedule search.
    Graph g;
    const ValueId x = g.input("x", {64, 64});
    const ValueId w1 = g.param("w1", {64, 64});
    const ValueId w2 = g.param("w2", {64, 64});
    g.markOutput(g.add(g.matmul(x, w1), g.matmul(x, w2)));
    Scheduled s = scheduleGraph(g);
    s.scheduler->scheduleAll();
    EXPECT_GE(s.scheduler->memoHits(), 1);
}

TEST(Scheduler, MemoHitsNeverDependOnScheduleOrder)
{
    // Same shape, op count and read count, different input footprint
    // (full vs broadcast operand): the memo must not hand one TE the
    // other's estimates, whichever is scheduled first.
    Graph g;
    const ValueId x = g.input("x", {64, 64});
    const ValueId y = g.param("y", {64, 64});
    const ValueId b = g.param("b", {64});
    g.markOutput(g.add(x, y));
    g.markOutput(g.add(x, b));
    Scheduled s = scheduleGraph(g);
    ASSERT_EQ(s.lowered.program.numTes(), 2);
    const auto fresh = [&](int te_id) {
        return AutoScheduler(s.lowered.program, *s.analysis,
                             DeviceSpec::a100())
            .schedule(te_id);
    };
    const Schedule alone0 = fresh(0);
    const Schedule alone1 = fresh(1);
    ASSERT_NE(alone0.estGlobalBytes, alone1.estGlobalBytes);

    const Schedule late1 = s.scheduler->schedule(1);
    const Schedule late0 = s.scheduler->schedule(0);
    EXPECT_EQ(late0.estGlobalBytes, alone0.estGlobalBytes);
    EXPECT_EQ(late1.estGlobalBytes, alone1.estGlobalBytes);
    EXPECT_EQ(late0.estTimeUs, alone0.estTimeUs);
    EXPECT_EQ(late1.estTimeUs, alone1.estTimeUs);
}

TEST(Scheduler, ScheduleAllCoversProgram)
{
    Graph g;
    const ValueId x = g.input("x", {32, 64});
    const ValueId w = g.param("w", {64, 64});
    g.markOutput(g.softmax(g.matmul(x, w)));
    Scheduled s = scheduleGraph(g);
    const std::vector<Schedule> schedules = s.scheduler->scheduleAll();
    ASSERT_EQ(static_cast<int>(schedules.size()),
              s.lowered.program.numTes());
    for (int i = 0; i < s.lowered.program.numTes(); ++i)
        EXPECT_EQ(schedules[i].teId, i);
}

TEST(Scheduler, BlockCountScalesWithProblem)
{
    Graph small, large;
    {
        const ValueId a = small.input("a", {128, 128});
        const ValueId b = small.param("b", {128, 128});
        small.markOutput(small.matmul(a, b));
    }
    {
        const ValueId a = large.input("a", {4096, 128});
        const ValueId b = large.param("b", {128, 4096});
        large.markOutput(large.matmul(a, b));
    }
    Scheduled s_small = scheduleGraph(small);
    Scheduled s_large = scheduleGraph(large);
    EXPECT_LT(s_small.scheduler->schedule(0).numBlocks,
              s_large.scheduler->schedule(0).numBlocks);
}

TEST(Scheduler, EstimatesPreferTensorCoreForFp16)
{
    // Same GEMM in fp16 must be estimated faster than fp32.
    auto time_for = [](DType dtype) {
        Graph g;
        const ValueId a = g.input("a", {1024, 1024}, dtype);
        const ValueId b = g.param("b", {1024, 1024}, dtype);
        g.markOutput(g.matmul(a, b));
        Scheduled s = scheduleGraph(g);
        return s.scheduler->schedule(0).estTimeUs;
    };
    EXPECT_LT(time_for(DType::kFP16), time_for(DType::kFP32));
}

TEST(Scheduler, ToStringMentionsTiles)
{
    Graph g;
    const ValueId a = g.input("a", {64, 64});
    const ValueId b = g.param("b", {64, 64});
    g.markOutput(g.matmul(a, b));
    Scheduled s = scheduleGraph(g);
    const std::string str = s.scheduler->schedule(0).toString();
    EXPECT_NE(str.find("tile="), std::string::npos);
    EXPECT_NE(str.find("blocks="), std::string::npos);
}

} // namespace
} // namespace souffle
