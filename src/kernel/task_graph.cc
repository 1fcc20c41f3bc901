#include "kernel/task_graph.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "common/logging.h"

namespace souffle {

std::string
taskEdgeKindName(TaskEdgeKind kind)
{
    switch (kind) {
      case TaskEdgeKind::kRaw:
        return "RAW";
      case TaskEdgeKind::kWar:
        return "WAR";
      case TaskEdgeKind::kWaw:
        return "WAW";
      case TaskEdgeKind::kAlias:
        return "alias";
    }
    return "?";
}

std::string
TaskEdge::toString() const
{
    std::ostringstream os;
    os << taskEdgeKindName(kind) << " " << from << " -> " << to;
    if (tensor >= 0)
        os << " (t" << tensor << ")";
    return os.str();
}

namespace {

std::vector<std::vector<int>>
adjacency(const TaskGraph &graph, bool forward)
{
    std::vector<std::vector<int>> adj(
        static_cast<size_t>(graph.numTasks()));
    for (const TaskEdge &edge : graph.edges) {
        if (edge.from < 0 || edge.to < 0
            || edge.from >= graph.numTasks()
            || edge.to >= graph.numTasks())
            continue; // malformed edges are the lint rule's business
        if (forward)
            adj[static_cast<size_t>(edge.from)].push_back(edge.to);
        else
            adj[static_cast<size_t>(edge.to)].push_back(edge.from);
    }
    for (auto &list : adj) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    return adj;
}

} // namespace

std::vector<std::vector<int>>
TaskGraph::predecessors() const
{
    return adjacency(*this, /*forward=*/false);
}

std::vector<std::vector<int>>
TaskGraph::successors() const
{
    return adjacency(*this, /*forward=*/true);
}

std::string
TaskGraph::toString() const
{
    std::ostringstream os;
    os << "task graph: " << tasks.size() << " tasks, " << edges.size()
       << " edges\n";
    for (const TaskDesc &task : tasks) {
        os << "  task " << task.stage << " " << task.name << " (shards="
           << task.shards << ", blocks=" << task.blocks << ")\n";
    }
    for (const TaskEdge &edge : edges)
        os << "  edge " << edge.toString() << "\n";
    return os.str();
}

ReducedTaskEdges
reduceTaskEdges(int num_tasks, const std::vector<TaskEdge> &derived)
{
    const auto n = static_cast<size_t>(std::max(0, num_tasks));
    const size_t words = (n + 63) / 64;
    auto row = [words](std::vector<uint64_t> &matrix, size_t task) {
        return matrix.data() + task * words;
    };

    // First edge per (from, to) pair, in derivation order.
    ReducedTaskEdges result;
    std::vector<TaskEdge> unique_edges;
    std::vector<std::vector<int>> succ(n);
    std::vector<int> indeg(n, 0);
    {
        std::vector<uint64_t> seen(n * words, 0);
        for (const TaskEdge &edge : derived) {
            SOUFFLE_REQUIRE(edge.from >= 0 && edge.to >= 0
                                && edge.from != edge.to
                                && edge.from < num_tasks
                                && edge.to < num_tasks,
                            "malformed task edge " << edge.toString());
            const auto from = static_cast<size_t>(edge.from);
            const auto to = static_cast<size_t>(edge.to);
            uint64_t &word = row(seen, from)[to / 64];
            const uint64_t mask = uint64_t{1} << (to % 64);
            if (word & mask)
                continue;
            word |= mask;
            unique_edges.push_back(edge);
            succ[from].push_back(edge.to);
            ++indeg[to];
        }
    }

    // Topological order (Kahn); processing it in reverse completes
    // each task's successors' closures before its own.
    std::vector<int> order;
    order.reserve(n);
    for (size_t u = 0; u < n; ++u)
        if (indeg[u] == 0)
            order.push_back(static_cast<int>(u));
    for (size_t head = 0; head < order.size(); ++head) {
        for (int v : succ[static_cast<size_t>(order[head])])
            if (--indeg[static_cast<size_t>(v)] == 0)
                order.push_back(v);
    }
    SOUFFLE_REQUIRE(order.size() == n, "task graph has a cycle");

    std::vector<uint64_t> reach(n * words, 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        uint64_t *reach_u = row(reach, static_cast<size_t>(*it));
        for (int v : succ[static_cast<size_t>(*it)]) {
            const auto to = static_cast<size_t>(v);
            reach_u[to / 64] |= uint64_t{1} << (to % 64);
            const uint64_t *reach_v = row(reach, to);
            for (size_t w = 0; w < words; ++w)
                reach_u[w] |= reach_v[w];
        }
    }

    // u -> v is implied iff another successor of u reaches v; no task
    // reaches itself, so that is: v is in the union of the successors'
    // closures.
    std::vector<uint64_t> implied(n * words, 0);
    for (size_t u = 0; u < n; ++u) {
        uint64_t *implied_u = row(implied, u);
        for (int w : succ[u]) {
            const uint64_t *reach_w = row(reach, static_cast<size_t>(w));
            for (size_t i = 0; i < words; ++i)
                implied_u[i] |= reach_w[i];
        }
    }
    for (const TaskEdge &edge : unique_edges) {
        const auto to = static_cast<size_t>(edge.to);
        if ((row(implied, static_cast<size_t>(edge.from))[to / 64]
             >> (to % 64))
            & 1U)
            ++result.pruned;
        else
            result.edges.push_back(edge);
    }
    return result;
}

TaskGraphReachability::TaskGraphReachability(const TaskGraph &graph)
    : numTasks(graph.numTasks())
{
    closure.assign(
        static_cast<size_t>(numTasks) * static_cast<size_t>(numTasks),
        false);
    const std::vector<std::vector<int>> succ = graph.successors();
    for (int from = 0; from < numTasks; ++from) {
        std::deque<int> queue(succ[static_cast<size_t>(from)].begin(),
                              succ[static_cast<size_t>(from)].end());
        while (!queue.empty()) {
            const int to = queue.front();
            queue.pop_front();
            const size_t bit = static_cast<size_t>(from)
                                   * static_cast<size_t>(numTasks)
                               + static_cast<size_t>(to);
            if (closure[bit])
                continue;
            closure[bit] = true;
            for (int next : succ[static_cast<size_t>(to)])
                queue.push_back(next);
        }
    }
}

bool
TaskGraphReachability::reaches(int from, int to) const
{
    if (from < 0 || to < 0 || from >= numTasks || to >= numTasks)
        return false;
    return closure[static_cast<size_t>(from)
                       * static_cast<size_t>(numTasks)
                   + static_cast<size_t>(to)];
}

} // namespace souffle
