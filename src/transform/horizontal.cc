#include "transform/horizontal.h"

#include <algorithm>
#include <map>
#include <queue>
#include <sstream>
#include <unordered_map>

#include "analysis/analysis.h"
#include "common/logging.h"
#include "common/string_util.h"

namespace souffle {

namespace {

/** Merge-compatibility signature: everything but the leading dim. */
std::string
mergeSignature(const TeProgram &program, const TensorExpr &te)
{
    std::ostringstream os;
    std::vector<int64_t> trailing(te.outShape.begin() + 1,
                                  te.outShape.end());
    os << combinerName(te.combiner) << "|" << te.outRank() << "|"
       << joinToString(trailing, "x") << "|r"
       << joinToString(te.reduceExtents, "x") << "|o"
       << countUnitOps(te.body) << "|n" << te.body->numReads() << "|"
       << dtypeName(program.tensor(te.output).dtype);
    return os.str();
}

/** Where reads of one input slot move to inside a merged tensor
 *  (both zero: the slot is not redirected). */
struct SlotShift
{
    /** Added to the leading output row of a multi-dim read. */
    int64_t rowOffset = 0;
    /** Added to the offset of a flat read. */
    int64_t flatOffset = 0;
};

/**
 * Apply @p shifts (indexed by read slot) to every read of @p expr in
 * one rebuild. Used to redirect consumers of member outputs into the
 * concatenated tensors; subtrees with no shifted read are shared.
 */
ExprPtr
shiftReads(const ExprPtr &expr, const std::vector<SlotShift> &shifts)
{
    switch (expr->kind()) {
      case ExprKind::kConst:
        return expr;
      case ExprKind::kRead: {
        const SlotShift &shift =
            shifts[static_cast<size_t>(expr->readSlot())];
        if (shift.rowOffset == 0)
            return expr;
        AffineMap map = expr->readMap();
        if (expr->isFlatRead()) {
            map.addOffset(0, shift.flatOffset);
            return Expr::readFlat(expr->readSlot(), std::move(map));
        }
        map.addOffset(0, shift.rowOffset);
        return Expr::read(expr->readSlot(), std::move(map));
      }
      case ExprKind::kUnary: {
        ExprPtr a = shiftReads(expr->lhs(), shifts);
        if (a == expr->lhs())
            return expr;
        return Expr::unary(expr->unaryOp(), std::move(a));
      }
      case ExprKind::kBinary:
      case ExprKind::kSelect: {
        ExprPtr a = shiftReads(expr->lhs(), shifts);
        ExprPtr b = shiftReads(expr->rhs(), shifts);
        if (a == expr->lhs() && b == expr->rhs())
            return expr;
        if (expr->kind() == ExprKind::kBinary)
            return Expr::binary(expr->binaryOp(), std::move(a),
                                std::move(b));
        return Expr::select(expr->predicate(), std::move(a),
                            std::move(b));
      }
    }
    SOUFFLE_PANIC("unreachable expression kind");
}

/** One merge group with precomputed concat offsets. */
struct MergeGroup
{
    std::vector<int> members;          ///< TE ids, program order
    std::vector<int64_t> offsets;      ///< leading-dim offsets
    int64_t totalLeading = 0;
};

} // namespace

HorizontalStats
horizontalTransform(TeProgram &program, int max_group_size)
{
    HorizontalStats stats;

    // Topological depth of every TE (longest path from the inputs).
    // Grouping only TEs of *equal depth* guarantees both pairwise
    // independence (an edge strictly increases depth) and, crucially,
    // that merging cannot create cycles between groups: a cross-group
    // edge always goes from a lower depth to a higher one. (Greedy
    // pairwise-independence checks are not enough -- two groups can
    // form a cycle through paths that pass between their members.)
    // This is the wavefront criterion of the paper's LSTM case study.
    std::vector<int> depth(program.numTes(), 0);
    for (const auto &te : program.tes()) {
        for (TensorId in : te.inputs) {
            const int producer = program.tensor(in).producer;
            if (producer >= 0)
                depth[te.id] =
                    std::max(depth[te.id], depth[producer] + 1);
        }
    }

    // 1. Group TEs by (compatibility signature, depth).
    std::map<std::string, std::vector<int>> by_signature;
    for (const auto &te : program.tes()) {
        if (te.outRank() == 0)
            continue;
        if (program.tensor(te.output).role == TensorRole::kOutput)
            continue; // keep model outputs as standalone tensors
        by_signature[mergeSignature(program, te) + "|d"
                     + std::to_string(depth[te.id])]
            .push_back(te.id);
    }

    // 2. Form merge groups within each bucket (order-preserving).
    std::vector<MergeGroup> groups;
    std::vector<int> group_of(program.numTes(), -1);
    for (auto &[sig, candidates] : by_signature) {
        for (size_t i = 0; i < candidates.size();) {
            MergeGroup group;
            while (i < candidates.size()
                   && static_cast<int>(group.members.size())
                          < max_group_size) {
                group.members.push_back(candidates[i]);
                ++i;
            }
            if (group.members.size() < 2)
                continue;
            for (int member : group.members) {
                group.offsets.push_back(group.totalLeading);
                group.totalLeading +=
                    program.te(member).outShape[0];
            }
            const int group_id = static_cast<int>(groups.size());
            for (int member : group.members)
                group_of[member] = group_id;
            groups.push_back(std::move(group));
        }
    }
    if (groups.empty())
        return stats;

    // 3. Rebuild the program with merged TEs, topologically ordered
    //    (a merged TE depends on the union of member inputs, so a
    //    simple in-place splice is not generally valid).
    // Node = singleton TE or a whole group. Node id: te id for
    // singletons, numTes()+g for groups.
    const int num_tes = program.numTes();
    auto node_of = [&](int te_id) {
        return group_of[te_id] < 0 ? te_id : num_tes + group_of[te_id];
    };

    // Dependency edges between nodes.
    std::unordered_map<int, std::vector<int>> successors;
    std::unordered_map<int, int> indegree;
    auto add_edge = [&](int from, int to) {
        if (from == to)
            return;
        successors[from].push_back(to);
        ++indegree[to];
    };
    for (const auto &te : program.tes())
        indegree.emplace(node_of(te.id), 0);
    for (const auto &te : program.tes()) {
        for (TensorId in : te.inputs) {
            const int producer = program.tensor(in).producer;
            if (producer >= 0)
                add_edge(node_of(producer), node_of(te.id));
        }
    }
    // De-duplicate edges' indegree contributions.
    indegree.clear();
    for (auto &[node, succ] : successors) {
        std::sort(succ.begin(), succ.end());
        succ.erase(std::unique(succ.begin(), succ.end()), succ.end());
    }
    for (const auto &te : program.tes())
        indegree.emplace(node_of(te.id), 0);
    for (const auto &[node, succ] : successors) {
        for (int next : succ)
            ++indegree[next];
    }

    std::priority_queue<int, std::vector<int>, std::greater<int>> ready;
    for (const auto &[node, degree] : indegree) {
        if (degree == 0)
            ready.push(node);
    }

    TeProgram rebuilt;
    // Old tensor id -> new tensor id.
    std::vector<TensorId> tensor_remap(program.numTensors(), -1);
    // Member output tensor id -> (merged group, offset).
    std::unordered_map<TensorId, std::pair<int, int64_t>> member_out;
    for (size_t g = 0; g < groups.size(); ++g) {
        for (size_t m = 0; m < groups[g].members.size(); ++m) {
            member_out[program.te(groups[g].members[m]).output] = {
                static_cast<int>(g), groups[g].offsets[m]};
        }
    }
    // Merged output tensor id (new program) per group.
    std::vector<TensorId> group_out(groups.size(), -1);

    auto materialize = [&](TensorId old_id) -> TensorId {
        if (tensor_remap[old_id] >= 0)
            return tensor_remap[old_id];
        const TensorDecl &decl = program.tensor(old_id);
        SOUFFLE_CHECK(decl.producer < 0,
                      "materializing unproduced intermediate '"
                          << decl.name << "'");
        tensor_remap[old_id] = rebuilt.addTensor(
            decl.name, decl.shape, decl.dtype, decl.role);
        return tensor_remap[old_id];
    };

    // Remap a TE's inputs/body into the rebuilt program, redirecting
    // reads of member outputs into the merged tensors.
    auto emit_te = [&](const TensorExpr &te, const std::string &name,
                       ExprPtr body, std::vector<TensorId> old_inputs,
                       TensorId new_output) {
        std::vector<TensorId> new_inputs;
        std::vector<SlotShift> shifts(old_inputs.size());
        bool any_shift = false;
        for (size_t slot = 0; slot < old_inputs.size(); ++slot) {
            const TensorId old_in = old_inputs[slot];
            auto it = member_out.find(old_in);
            if (it != member_out.end()) {
                const auto [g, offset] = it->second;
                if (offset != 0) {
                    const TensorExpr &first =
                        program.te(groups[g].members[0]);
                    const int64_t row_elems =
                        first.outDomainSize() / first.outShape[0];
                    shifts[slot] = SlotShift{offset, offset * row_elems};
                    any_shift = true;
                }
                SOUFFLE_CHECK(group_out[g] >= 0,
                              "merged group used before defined");
                new_inputs.push_back(group_out[g]);
            } else {
                TensorId mapped = tensor_remap[old_in];
                if (mapped < 0)
                    mapped = materialize(old_in);
                new_inputs.push_back(mapped);
            }
        }
        if (any_shift)
            body = shiftReads(body, shifts);
        rebuilt.addTe(name, std::move(new_inputs), new_output,
                      te.reduceExtents, te.combiner, std::move(body));
    };

    while (!ready.empty()) {
        const int node = ready.top();
        ready.pop();
        if (node < num_tes) {
            // Singleton TE: copy with remapping.
            const TensorExpr &te = program.te(node);
            const TensorDecl &out = program.tensor(te.output);
            const TensorId new_out = rebuilt.addTensor(
                out.name, out.shape, out.dtype, out.role);
            tensor_remap[te.output] = new_out;
            emit_te(te, te.name, te.body, te.inputs, new_out);
        } else {
            // Merged group.
            const MergeGroup &group = groups[node - num_tes];
            const TensorExpr &first = program.te(group.members[0]);
            std::vector<int64_t> merged_shape = first.outShape;
            merged_shape[0] = group.totalLeading;
            const TensorDecl &first_out = program.tensor(first.output);
            const TensorId new_out = rebuilt.addTensor(
                "hmerge_" + first_out.name, merged_shape,
                first_out.dtype, TensorRole::kIntermediate);
            group_out[node - num_tes] = new_out;

            // Union of member inputs (old ids), shared slots merged.
            std::vector<TensorId> union_inputs;
            std::vector<ExprPtr> member_bodies;
            const int iter_rank = first.iterRank();
            for (size_t m = 0; m < group.members.size(); ++m) {
                const TensorExpr &member =
                    program.te(group.members[m]);
                // Substitute merged index -> member index (shift the
                // leading dim down by the member's offset).
                AffineMap shift = AffineMap::identity(iter_rank);
                shift.addOffset(0, -group.offsets[m]);
                ExprPtr body = member.body->substituteIndices(shift);
                // Remap member slots into the union slot space.
                std::vector<int> remap(member.inputs.size(), 0);
                for (size_t s = 0; s < member.inputs.size(); ++s) {
                    const TensorId in = member.inputs[s];
                    auto it = std::find(union_inputs.begin(),
                                        union_inputs.end(), in);
                    if (it == union_inputs.end()) {
                        remap[s] =
                            static_cast<int>(union_inputs.size());
                        union_inputs.push_back(in);
                    } else {
                        remap[s] = static_cast<int>(
                            it - union_inputs.begin());
                    }
                }
                member_bodies.push_back(body->remapSlots(remap));
            }

            // Nested selects on the leading dim.
            ExprPtr body = member_bodies.back();
            for (int m = static_cast<int>(group.members.size()) - 2;
                 m >= 0; --m) {
                std::vector<int64_t> coefs(iter_rank, 0);
                coefs[0] = 1;
                Predicate pred{AffineCond{
                    coefs, -group.offsets[m + 1], CmpOp::kLT}};
                body = Expr::select(std::move(pred), member_bodies[m],
                                    std::move(body));
            }

            std::ostringstream name;
            name << "hmerge";
            for (int member : group.members)
                name << "_" << member;
            emit_te(first, name.str(), std::move(body), union_inputs,
                    new_out);
            stats.tesMerged +=
                static_cast<int>(group.members.size()) - 1;
            ++stats.groups;
        }
        for (int next : successors[node]) {
            if (--indegree[next] == 0)
                ready.push(next);
        }
    }

    // Materialize any unconsumed graph inputs/params so roles survive.
    for (const auto &decl : program.tensors()) {
        if (decl.producer < 0 && tensor_remap[decl.id] < 0)
            materialize(decl.id);
    }

    SOUFFLE_CHECK(rebuilt.numTes()
                      == program.numTes() - stats.tesMerged - stats.groups
                             + stats.groups,
                  "horizontal rebuild lost TEs: " << rebuilt.numTes()
                      << " vs " << program.numTes());
    stats.groups = static_cast<int>(groups.size());
    rebuilt.validate();
    program = std::move(rebuilt);
    return stats;
}

} // namespace souffle
