#include "transform/vertical.h"

#include <algorithm>
#include <optional>

#include "common/logging.h"

namespace souffle {

namespace {

/** Max expression-tree size produced by one inlining step. */
constexpr int64_t kInlineNodeBudget = 512;

/**
 * What the pass asks of a body, gathered in one walk. It depends on
 * the body alone, so it stays valid for as long as the body does.
 */
struct BodySummary
{
    int64_t nodes = 0;
    /** Read sites per input slot (slots past the end: none). */
    std::vector<int64_t> siteCount;
    /** True if some read of the slot is a flat read. */
    std::vector<bool> flatRead;

    int64_t
    sites(size_t slot) const
    {
        return slot < siteCount.size() ? siteCount[slot] : 0;
    }
    bool
    flat(size_t slot) const
    {
        return slot < flatRead.size() && flatRead[slot];
    }
};

void
summarize(const Expr &expr, BodySummary &out)
{
    ++out.nodes;
    switch (expr.kind()) {
      case ExprKind::kConst:
        return;
      case ExprKind::kRead: {
        const auto slot = static_cast<size_t>(expr.readSlot());
        if (slot >= out.siteCount.size()) {
            out.siteCount.resize(slot + 1, 0);
            out.flatRead.resize(slot + 1, false);
        }
        ++out.siteCount[slot];
        if (expr.isFlatRead())
            out.flatRead[slot] = true;
        return;
      }
      case ExprKind::kUnary:
        summarize(*expr.lhs(), out);
        return;
      case ExprKind::kBinary:
      case ExprKind::kSelect:
        summarize(*expr.lhs(), out);
        summarize(*expr.rhs(), out);
        return;
    }
}

/** A TE's body and, once asked for, its summary. */
struct SummaryEntry
{
    ExprPtr body;
    std::optional<BodySummary> summary;
};

} // namespace

VerticalStats
verticalTransform(TeProgram &program)
{
    VerticalStats stats;
    // Body summaries by TE id, built on first use and carried across
    // rounds: removeDeadCode keeps the live TEs in order with their
    // bodies, so each survivor finds its entry by body pointer (a
    // shared body has one summary, whichever entry it is read from).
    // Entries hold only the program's current bodies, so no dead body
    // outlives the round that dropped it.
    std::vector<SummaryEntry> entries;
    for (const auto &te : program.tes())
        entries.push_back({te.body, std::nullopt});
    auto summary_of = [&](int te_id) -> const BodySummary & {
        SummaryEntry &entry = entries[static_cast<size_t>(te_id)];
        if (!entry.summary) {
            entry.summary.emplace();
            summarize(*entry.body, *entry.summary);
        }
        return *entry.summary;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        ++stats.rounds;

        // Consumer counts for the current program state.
        std::vector<int> consumer_count(program.numTensors(), 0);
        for (const auto &te : program.tes()) {
            std::vector<TensorId> seen;
            for (TensorId in : te.inputs) {
                if (std::find(seen.begin(), seen.end(), in)
                    != seen.end())
                    continue;
                seen.push_back(in);
                ++consumer_count[in];
            }
        }

        for (int v_id = 0; v_id < program.numTes(); ++v_id) {
            TensorExpr &v = program.mutableTe(v_id);
            if (v.hasReduce())
                continue; // vertical transform targets one-on-one TEs
            for (size_t slot = 0; slot < v.inputs.size(); ++slot) {
                const TensorId t = v.inputs[slot];
                const TensorDecl &t_decl = program.tensor(t);
                const int u_id = t_decl.producer;
                if (u_id < 0)
                    continue;
                if (t_decl.role == TensorRole::kOutput)
                    continue;
                const TensorExpr &u = program.te(u_id);
                if (u.hasReduce())
                    continue;
                if (consumer_count[t] != 1)
                    continue;
                const BodySummary &v_sum = summary_of(v_id);
                if (v_sum.flat(slot)
                    && !isFlatTransparent(u.body, u.outShape))
                    continue;
                // Inlining substitutes the whole producer body at
                // every read site; cap the resulting tree size so
                // chains of horizontally-merged TEs (many reads x
                // many-branch bodies) cannot grow exponentially.
                const BodySummary &u_sum = summary_of(u_id);
                if (v_sum.nodes + v_sum.sites(slot) * u_sum.nodes
                    > kInlineNodeBudget)
                    continue;

                // Place u's inputs in v's slot space: reuse a slot
                // already holding the tensor, else append one.
                std::vector<int> u_remap(u.inputs.size(), 0);
                std::vector<TensorId> all_inputs = v.inputs;
                for (size_t us = 0; us < u.inputs.size(); ++us) {
                    const TensorId u_in = u.inputs[us];
                    auto it = std::find(all_inputs.begin(),
                                        all_inputs.end(), u_in);
                    if (it != all_inputs.end()) {
                        u_remap[us] = static_cast<int>(
                            it - all_inputs.begin());
                    } else {
                        u_remap[us] =
                            static_cast<int>(all_inputs.size());
                        all_inputs.push_back(u_in);
                    }
                }

                // Keep only the slots the inlined body reads, in
                // order: v's other reads, plus u's reads if v reads
                // the inlined slot at all.
                std::vector<bool> used(all_inputs.size(), false);
                for (size_t s = 0; s < v.inputs.size(); ++s)
                    used[s] = s != slot && v_sum.sites(s) > 0;
                if (v_sum.sites(slot) > 0) {
                    for (size_t us = 0; us < u.inputs.size(); ++us) {
                        if (u_sum.sites(us) > 0)
                            used[static_cast<size_t>(u_remap[us])] =
                                true;
                    }
                }
                std::vector<int> final_slot(all_inputs.size(), 0);
                std::vector<TensorId> new_inputs;
                for (size_t s = 0; s < all_inputs.size(); ++s) {
                    if (!used[s])
                        continue;
                    final_slot[s] = static_cast<int>(new_inputs.size());
                    new_inputs.push_back(all_inputs[s]);
                }
                for (int &to : u_remap)
                    to = final_slot[static_cast<size_t>(to)];
                final_slot.resize(v.inputs.size());

                v.body = v.body->inlineSlot(static_cast<int>(slot),
                                            u.body, u_remap,
                                            final_slot);
                v.inputs = std::move(new_inputs);
                entries[static_cast<size_t>(v_id)] = {v.body,
                                                      std::nullopt};
                ++stats.merged;
                changed = true;
                break; // inputs changed; revisit this TE next round
            }
        }

        if (changed) {
            program.removeDeadCode();
            std::vector<SummaryEntry> live;
            live.reserve(static_cast<size_t>(program.numTes()));
            size_t old_id = 0;
            for (const auto &te : program.tes()) {
                while (entries[old_id].body != te.body)
                    ++old_id;
                live.push_back(std::move(entries[old_id++]));
            }
            entries = std::move(live);
        }
    }
    program.validate();
    return stats;
}

} // namespace souffle
