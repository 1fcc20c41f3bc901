#include "te/program.h"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/logging.h"
#include "common/string_util.h"

namespace souffle {

TensorId
TeProgram::addTensor(const std::string &name, std::vector<int64_t> shape,
                     DType dtype, TensorRole role)
{
    for (int64_t d : shape)
        SOUFFLE_REQUIRE(d > 0, "tensor '" << name
                                          << "' has non-positive dim " << d);
    TensorDecl decl;
    decl.id = static_cast<TensorId>(tensorTable.size());
    decl.name = name;
    decl.shape = std::move(shape);
    decl.dtype = dtype;
    decl.role = role;
    tensorTable.push_back(std::move(decl));
    return tensorTable.back().id;
}

int
TeProgram::addTe(const std::string &name, std::vector<TensorId> inputs,
                 TensorId output, std::vector<int64_t> reduce_extents,
                 Combiner combiner, ExprPtr body)
{
    SOUFFLE_REQUIRE(output >= 0 && output < numTensors(),
                    "TE '" << name << "' output tensor out of range");
    SOUFFLE_REQUIRE(body != nullptr, "TE '" << name << "' has no body");
    SOUFFLE_REQUIRE(reduce_extents.empty() == (combiner == Combiner::kNone),
                    "TE '" << name
                           << "': combiner and reduce extents disagree");
    for (TensorId in : inputs) {
        SOUFFLE_REQUIRE(in >= 0 && in < numTensors(),
                        "TE '" << name << "' input tensor out of range");
    }

    TensorExpr te;
    te.id = static_cast<int>(teList.size());
    te.name = name;
    te.inputs = std::move(inputs);
    te.output = output;
    te.outShape = tensorTable[output].shape;
    te.reduceExtents = std::move(reduce_extents);
    te.combiner = combiner;
    te.body = std::move(body);

    SOUFFLE_REQUIRE(tensorTable[output].producer < 0,
                    "tensor '" << tensorTable[output].name
                               << "' already has a producer");
    tensorTable[output].producer = te.id;

    teList.push_back(std::move(te));
    return teList.back().id;
}

const TensorDecl &
TeProgram::tensor(TensorId id) const
{
    SOUFFLE_CHECK(id >= 0 && id < numTensors(), "tensor id out of range");
    return tensorTable[id];
}

TensorDecl &
TeProgram::mutableTensor(TensorId id)
{
    SOUFFLE_CHECK(id >= 0 && id < numTensors(), "tensor id out of range");
    return tensorTable[id];
}

const TensorExpr &
TeProgram::te(int id) const
{
    SOUFFLE_CHECK(id >= 0 && id < numTes(), "TE id out of range");
    return teList[id];
}

TensorExpr &
TeProgram::mutableTe(int id)
{
    SOUFFLE_CHECK(id >= 0 && id < numTes(), "TE id out of range");
    return teList[id];
}

std::vector<int>
TeProgram::consumersOf(TensorId id) const
{
    std::vector<int> result;
    for (const auto &te : teList) {
        for (TensorId in : te.inputs) {
            if (in == id) {
                result.push_back(te.id);
                break;
            }
        }
    }
    return result;
}

std::vector<TensorId>
TeProgram::outputTensors() const
{
    std::vector<TensorId> result;
    for (const auto &decl : tensorTable) {
        if (decl.role == TensorRole::kOutput)
            result.push_back(decl.id);
    }
    return result;
}

std::vector<TensorId>
TeProgram::inputTensors() const
{
    std::vector<TensorId> result;
    for (const auto &decl : tensorTable) {
        if (decl.role == TensorRole::kInput)
            result.push_back(decl.id);
    }
    return result;
}

std::vector<TensorId>
TeProgram::paramTensors() const
{
    std::vector<TensorId> result;
    for (const auto &decl : tensorTable) {
        if (decl.role == TensorRole::kParam)
            result.push_back(decl.id);
    }
    return result;
}

void
TeProgram::markOutput(TensorId id)
{
    mutableTensor(id).role = TensorRole::kOutput;
}

void
TeProgram::validate() const
{
    for (int i = 0; i < numTes(); ++i) {
        const TensorExpr &te = teList[i];
        SOUFFLE_CHECK(te.id == i, "TE id mismatch at index " << i);
        SOUFFLE_CHECK(te.output >= 0 && te.output < numTensors(),
                      "TE output out of range");
        SOUFFLE_CHECK(tensorTable[te.output].producer == i,
                      "TE '" << te.name << "' producer link broken");
        SOUFFLE_CHECK(te.outShape == tensorTable[te.output].shape,
                      "TE '" << te.name << "' cached shape stale");
        for (TensorId in : te.inputs) {
            SOUFFLE_CHECK(in >= 0 && in < numTensors(),
                          "TE input out of range");
            const int producer = tensorTable[in].producer;
            SOUFFLE_CHECK(producer < i,
                          "TE '" << te.name
                                 << "' violates topological order");
        }
        // Check every read in the body.
        std::vector<ReadAccess> reads;
        te.body->collectReads(reads);
        for (const ReadAccess &access : reads) {
            SOUFFLE_CHECK(
                access.inputSlot < static_cast<int>(te.inputs.size()),
                "TE '" << te.name << "' reads undeclared slot "
                       << access.inputSlot);
            SOUFFLE_CHECK(access.map->inDims() == te.iterRank(),
                          "TE '" << te.name
                                 << "' read map in-rank mismatch");
            const TensorDecl &in_decl =
                tensorTable[te.inputs[access.inputSlot]];
            if (access.flat) {
                SOUFFLE_CHECK(access.map->outDims() == 1,
                              "TE '" << te.name
                                     << "' flat read map must be 1-row");
            } else {
                SOUFFLE_CHECK(access.map->outDims() == in_decl.rank(),
                              "TE '" << te.name
                                     << "' read map out-rank mismatch for "
                                     << in_decl.name);
            }
        }
    }
}

int
TeProgram::removeDeadCode()
{
    // Mark TEs reachable backwards from output tensors.
    std::vector<bool> live_te(teList.size(), false);
    std::vector<TensorId> worklist = outputTensors();
    std::unordered_set<TensorId> seen(worklist.begin(), worklist.end());
    while (!worklist.empty()) {
        const TensorId t = worklist.back();
        worklist.pop_back();
        const int producer = tensorTable[t].producer;
        if (producer < 0 || live_te[producer])
            continue;
        live_te[producer] = true;
        for (TensorId in : teList[producer].inputs) {
            if (seen.insert(in).second)
                worklist.push_back(in);
        }
    }

    int removed = 0;
    for (bool live : live_te) {
        if (!live)
            ++removed;
    }
    if (removed == 0)
        return 0;

    // Keep live TEs; keep tensors referenced by live TEs or non-
    // intermediate roles that remain referenced.
    std::vector<bool> live_tensor(tensorTable.size(), false);
    for (size_t i = 0; i < teList.size(); ++i) {
        if (!live_te[i])
            continue;
        live_tensor[teList[i].output] = true;
        for (TensorId in : teList[i].inputs)
            live_tensor[in] = true;
    }
    for (const auto &decl : tensorTable) {
        if (decl.role == TensorRole::kOutput)
            live_tensor[decl.id] = true;
    }

    std::vector<TensorId> tensor_remap(tensorTable.size(), -1);
    std::vector<TensorDecl> new_tensors;
    for (size_t i = 0; i < tensorTable.size(); ++i) {
        if (!live_tensor[i])
            continue;
        tensor_remap[i] = static_cast<TensorId>(new_tensors.size());
        TensorDecl decl = std::move(tensorTable[i]);
        decl.id = tensor_remap[i];
        decl.producer = -1; // re-linked below
        new_tensors.push_back(std::move(decl));
    }

    std::vector<TensorExpr> new_tes;
    for (size_t i = 0; i < teList.size(); ++i) {
        if (!live_te[i])
            continue;
        TensorExpr te = std::move(teList[i]);
        te.id = static_cast<int>(new_tes.size());
        te.output = tensor_remap[te.output];
        for (TensorId &in : te.inputs)
            in = tensor_remap[in];
        new_tensors[te.output].producer = te.id;
        new_tes.push_back(std::move(te));
    }

    tensorTable = std::move(new_tensors);
    teList = std::move(new_tes);
    return removed;
}

int64_t
TeProgram::paramBytes() const
{
    int64_t total = 0;
    for (const auto &decl : tensorTable) {
        if (decl.role == TensorRole::kParam)
            total += decl.bytes();
    }
    return total;
}

std::string
TeProgram::toString() const
{
    std::ostringstream os;
    os << "TeProgram: " << numTes() << " TEs, " << numTensors()
       << " tensors\n";
    for (const auto &te : teList) {
        os << "  TE" << te.id << " " << te.name << ": "
           << tensorTable[te.output].name
           << shapeToString(te.outShape);
        if (te.hasReduce()) {
            os << " = " << combinerName(te.combiner) << "_r"
               << shapeToString(te.reduceExtents);
        } else {
            os << " =";
        }
        os << " " << te.body->toString() << "  (inputs:";
        for (TensorId in : te.inputs)
            os << " " << tensorTable[in].name;
        os << ")\n";
    }
    return os.str();
}

} // namespace souffle
