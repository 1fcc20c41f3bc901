#include "kernel/task_graph.h"

#include <algorithm>
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

std::vector<int>
topologicalOrder(const std::vector<std::vector<int>> &succ)
{
    std::vector<int> indeg(succ.size(), 0);
    for (const std::vector<int> &list : succ)
        for (int v : list)
            ++indeg[static_cast<size_t>(v)];
    std::vector<int> order;
    order.reserve(succ.size());
    for (size_t u = 0; u < succ.size(); ++u)
        if (indeg[u] == 0)
            order.push_back(static_cast<int>(u));
    for (size_t head = 0; head < order.size(); ++head) {
        for (int v : succ[static_cast<size_t>(order[head])])
            if (--indeg[static_cast<size_t>(v)] == 0)
                order.push_back(v);
    }
    return order;
}

ReducedTaskEdges
reduceTaskEdges(int num_tasks, const std::vector<TaskEdge> &derived)
{
    const auto n = static_cast<size_t>(std::max(0, num_tasks));
    const size_t words = (n + 63) / 64;

    // First edge per (from, to) pair, in derivation order.
    std::vector<TaskEdge> unique_edges;
    std::vector<std::vector<int>> succ(n);
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
            uint64_t &word = seen[from * words + to / 64];
            const uint64_t mask = uint64_t{1} << (to % 64);
            if (word & mask)
                continue;
            word |= mask;
            unique_edges.push_back(edge);
            succ[from].push_back(edge.to);
        }
    }

    // u -> v is implied iff another successor of u reaches v; no task
    // reaches itself, so that is: some successor of u reaches v.
    const TaskGraphReachability reach(succ);
    ReducedTaskEdges result;
    for (const TaskEdge &edge : unique_edges) {
        const std::vector<int> &next = succ[static_cast<size_t>(edge.from)];
        if (std::any_of(next.begin(), next.end(), [&](int w) {
                return reach.reaches(w, edge.to);
            }))
            ++result.pruned;
        else
            result.edges.push_back(edge);
    }
    return result;
}

TaskGraphReachability::TaskGraphReachability(
    const std::vector<std::vector<int>> &succ)
    : numTasks(static_cast<int>(succ.size())),
      words((succ.size() + 63) / 64)
{
    const std::vector<int> order = topologicalOrder(succ);
    SOUFFLE_REQUIRE(order.size() == succ.size(),
                    "task graph has a cycle");
    // In reverse topological order every successor's row is complete
    // before its predecessors OR it in.
    closure.assign(succ.size() * words, 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        uint64_t *row_u = closure.data() + static_cast<size_t>(*it) * words;
        for (int v : succ[static_cast<size_t>(*it)]) {
            const auto to = static_cast<size_t>(v);
            row_u[to / 64] |= uint64_t{1} << (to % 64);
            const uint64_t *row_v = closure.data() + to * words;
            for (size_t w = 0; w < words; ++w)
                row_u[w] |= row_v[w];
        }
    }
}

bool
TaskGraphReachability::reaches(int from, int to) const
{
    if (from < 0 || to < 0 || from >= numTasks || to >= numTasks)
        return false;
    const auto bit = static_cast<size_t>(to);
    return (closure[static_cast<size_t>(from) * words + bit / 64]
            >> (bit % 64))
           & 1U;
}

} // namespace souffle
