#pragma once

/**
 * @file
 * Task-graph form of a compiled module (the persistent-megakernel
 * runtime, MPK-style — PAPERS.md arXiv 2512.22219).
 *
 * The V3/V4 execution model serializes a kernel's stages with
 * grid.sync(): every block of the cooperative launch waits at every
 * stage boundary, even when the next stage depends on only one of
 * many predecessors. The megakernel transform (transform/megakernel.h)
 * replaces that model: the *whole* module becomes one persistent
 * kernel whose worker blocks drain a task graph. Each task is one
 * kernel stage, split into up to `shards` output-tile shards that
 * different SMs execute concurrently; each edge is a dependence the
 * scheduler enforces with a device-memory event (the producer's last
 * finishing shard signals, every consumer shard waits) instead of a
 * whole-grid barrier.
 *
 * Granularity: tasks and edges live at the *stage* level. Shards of
 * one stage are mutually independent by construction (a stage's
 * blocks already partition its output tiles), so per-shard edges
 * would square the edge count without adding ordering information —
 * a task is ready when every shard of every predecessor stage has
 * completed.
 *
 * Consumers: the per-SM device simulator (gpu/sim.h), the
 * `task-graph-dep` lint rule (every dataflow DepEdge must be covered
 * by an edge/path here or by intra-task program order), the C backend
 * (per-task functions executed on the ThreadPool), and the module
 * serializer (format version 2).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "te/tensor.h"

namespace souffle {

/** One schedulable task: a stage of the persistent kernel. */
struct TaskDesc
{
    /** Stage name (diagnostics and trace labels). */
    std::string name;
    /** Stage index inside the persistent kernel. */
    int stage = 0;
    /** Parallel output-tile shards (1..numSms). */
    int shards = 1;
    /** Total blocks across all shards (the stage's launch grid). */
    int64_t blocks = 1;
};

/** Why two tasks are ordered. */
enum class TaskEdgeKind : uint8_t {
    kRaw,   ///< consumer reads a tensor the producer wrote
    kWar,   ///< writer overwrites a tensor the predecessor read
    kWaw,   ///< both tasks write the same tensor
    kAlias, ///< tasks touch distinct tensors aliased by the memory plan
};

std::string taskEdgeKindName(TaskEdgeKind kind);

/** One dependence edge: task `from` must complete before `to` starts. */
struct TaskEdge
{
    int from = 0;
    int to = 0;
    /** Tensor carrying the dependence (-1 for kAlias edges). */
    TensorId tensor = -1;
    TaskEdgeKind kind = TaskEdgeKind::kRaw;

    std::string toString() const;
};

/**
 * The compiled scheduling decision: tasks in stage order plus the
 * dependence edges the on-device scheduler enforces with events.
 * Empty on every module below V5 and on V5 fallbacks.
 */
struct TaskGraph
{
    std::vector<TaskDesc> tasks;
    std::vector<TaskEdge> edges;

    bool empty() const { return tasks.empty(); }
    int numTasks() const { return static_cast<int>(tasks.size()); }
    int numEdges() const { return static_cast<int>(edges.size()); }

    /** Deduplicated predecessor lists, one per task, each sorted. */
    std::vector<std::vector<int>> predecessors() const;
    /** Deduplicated successor lists, one per task, each sorted. */
    std::vector<std::vector<int>> successors() const;

    std::string toString() const;
};

/**
 * Kahn topological order of tasks 0..succ.size()-1 over successor
 * lists. Shorter than the task count iff the graph has a cycle: the
 * tasks on or behind a cycle never become ready.
 */
std::vector<int> topologicalOrder(const std::vector<std::vector<int>> &succ);

/** The edges a scheduler enforces, and how many it can skip. */
struct ReducedTaskEdges
{
    /** Kept edges, in derivation order. */
    std::vector<TaskEdge> edges;
    /** Distinct (from, to) pairs dropped as implied by a longer path. */
    int pruned = 0;
};

/**
 * Reduce the edges a lowering derived over @p num_tasks tasks (in
 * derivation order, duplicates included) to the ones a scheduler must
 * enforce. Keeps the first derived edge of each (from, to) pair, so
 * its kind and tensor survive, then drops every pair a longer path
 * already orders (transitive reduction): each edge costs the
 * scheduler an event signal+wait, and reachability is unchanged.
 * Every edge must satisfy 0 <= from != to < num_tasks; throws
 * FatalError if the edges form a cycle.
 */
ReducedTaskEdges reduceTaskEdges(int num_tasks,
                                 const std::vector<TaskEdge> &derived);

/**
 * Transitive-closure reachability over an acyclic task graph, for
 * coverage queries: a dependence def-stage -> use-stage is ordered iff
 * the graph reaches use from def. Built once by walking the
 * topological order in reverse, OR-ing each successor's closure into
 * its predecessor's: one bit row of ceil(n/64) words per task, so
 * O(E * n / 64). Queries are O(1) bit tests. Throws FatalError if the
 * graph has a cycle.
 */
class TaskGraphReachability
{
  public:
    /** Over the successor lists of tasks 0..succ.size()-1. */
    explicit TaskGraphReachability(
        const std::vector<std::vector<int>> &succ);

    /** True iff an edge path orders task @p from before task @p to. */
    bool reaches(int from, int to) const;

  private:
    int numTasks = 0;
    /** Words per bit row. */
    size_t words = 0;
    /** Bit `to` of row `from`: closure[from * words + to / 64]. */
    std::vector<uint64_t> closure;
};

} // namespace souffle
