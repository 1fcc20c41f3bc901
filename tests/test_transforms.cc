/**
 * @file
 * Tests for the semantic-preserving TE transformations (paper Sec. 6):
 * vertical collapse of one-relies-on-one chains and horizontal merging
 * of independent TEs. Every transformation is validated against the
 * reference interpreter on the untransformed program.
 */

#include <gtest/gtest.h>

#include "graph/lowering.h"
#include "te/interpreter.h"
#include "transform/horizontal.h"
#include "transform/vertical.h"

namespace souffle {
namespace {

/** Interpret all model outputs of a lowered graph. */
std::vector<Buffer>
interpretOutputs(const TeProgram &program, uint64_t seed)
{
    const BufferMap bindings = randomBindings(program, seed);
    const BufferMap result = Interpreter(program).run(bindings);
    std::vector<Buffer> outputs;
    for (TensorId id : program.outputTensors())
        outputs.push_back(result.at(id));
    return outputs;
}

/** Match input/param buffers between two programs by tensor name. */
std::vector<Buffer>
interpretOutputsMatched(const TeProgram &reference,
                        const TeProgram &transformed, uint64_t seed)
{
    const BufferMap ref_bindings = randomBindings(reference, seed);
    BufferMap bindings;
    for (const auto &decl : transformed.tensors()) {
        if (decl.role != TensorRole::kInput
            && decl.role != TensorRole::kParam)
            continue;
        bool found = false;
        for (const auto &ref_decl : reference.tensors()) {
            if (ref_decl.name == decl.name) {
                bindings[decl.id] = ref_bindings.at(ref_decl.id);
                found = true;
                break;
            }
        }
        EXPECT_TRUE(found) << "unmatched tensor " << decl.name;
    }
    const BufferMap result = Interpreter(transformed).run(bindings);
    std::vector<Buffer> outputs;
    // Order outputs by name to match reference ordering.
    std::vector<std::pair<std::string, TensorId>> outs;
    for (TensorId id : transformed.outputTensors())
        outs.emplace_back(transformed.tensor(id).name, id);
    std::sort(outs.begin(), outs.end());
    for (const auto &[name, id] : outs)
        outputs.push_back(result.at(id));
    return outputs;
}

std::vector<Buffer>
interpretOutputsByName(const TeProgram &program, uint64_t seed)
{
    const BufferMap bindings = randomBindings(program, seed);
    const BufferMap result = Interpreter(program).run(bindings);
    std::vector<std::pair<std::string, TensorId>> outs;
    for (TensorId id : program.outputTensors())
        outs.emplace_back(program.tensor(id).name, id);
    std::sort(outs.begin(), outs.end());
    std::vector<Buffer> outputs;
    for (const auto &[name, id] : outs)
        outputs.push_back(result.at(id));
    return outputs;
}

void
expectSameOutputs(const std::vector<Buffer> &a,
                  const std::vector<Buffer> &b, double tol = 1e-9)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].size(), b[i].size()) << "output " << i;
        EXPECT_LE(maxAbsDiff(a[i], b[i]), tol) << "output " << i;
    }
}

TEST(Vertical, CollapsesPaperFig4Chain)
{
    // relu -> strided slice -> permute from Fig. 4.
    Graph g;
    const ValueId a = g.input("A", {4, 8});
    const ValueId b = g.relu(a);
    const ValueId c = g.slice(b, {0, 0}, {4, 8}); // keep affine, then
    const ValueId d = g.transpose(c, {1, 0});
    g.markOutput(d);

    LoweredModel lowered = lowerToTe(g);
    const auto before = interpretOutputs(lowered.program, 7);
    const int tes_before = lowered.program.numTes();

    const VerticalStats stats = verticalTransform(lowered.program);
    EXPECT_EQ(stats.merged, 2);
    EXPECT_EQ(lowered.program.numTes(), tes_before - 2);
    EXPECT_EQ(lowered.program.numTes(), 1);

    const auto after = interpretOutputs(lowered.program, 7);
    expectSameOutputs(before, after, 0.0);
}

TEST(Vertical, CollapsesReshapeChains)
{
    Graph g;
    const ValueId x = g.input("x", {2, 3, 4});
    const ValueId y = g.reshape(g.relu(g.reshape(x, {6, 4})), {24});
    g.markOutput(y);

    LoweredModel lowered = lowerToTe(g);
    const auto before = interpretOutputs(lowered.program, 11);
    verticalTransform(lowered.program);
    EXPECT_EQ(lowered.program.numTes(), 1);
    const auto after = interpretOutputs(lowered.program, 11);
    expectSameOutputs(before, after, 0.0);
}

TEST(Vertical, StopsAtReductions)
{
    Graph g;
    const ValueId x = g.input("x", {4, 8});
    const ValueId w = g.param("w", {8, 8});
    const ValueId y = g.relu(g.matmul(x, w));
    g.markOutput(y);

    LoweredModel lowered = lowerToTe(g);
    verticalTransform(lowered.program);
    // The matmul is one-relies-on-many: relu must NOT be folded into it
    // by the vertical transform (that is schedule propagation's job).
    EXPECT_EQ(lowered.program.numTes(), 2);
}

TEST(Vertical, KeepsMultiConsumerProducers)
{
    Graph g;
    const ValueId x = g.input("x", {4, 4});
    const ValueId s = g.sigmoid(x);
    const ValueId y = g.add(g.relu(s), g.tanh(s)); // s has 2 consumers
    g.markOutput(y);

    LoweredModel lowered = lowerToTe(g);
    const auto before = interpretOutputs(lowered.program, 3);
    const VerticalStats stats = verticalTransform(lowered.program);
    // Round 1: relu and tanh fold into add (sigmoid has 2 consumers and
    // is kept). Round 2: both uses of sigmoid now live in one TE (one
    // slot, two reads), so it has a single consumer and folds too.
    EXPECT_EQ(stats.merged, 3);
    EXPECT_EQ(lowered.program.numTes(), 1);
    const auto after = interpretOutputs(lowered.program, 3);
    expectSameOutputs(before, after, 0.0);

    // Idempotent at fixpoint.
    const VerticalStats again = verticalTransform(lowered.program);
    EXPECT_EQ(again.merged, 0);
}

TEST(Vertical, TransposeIntoReshapeBlockedButReshapeIntoTransposeOk)
{
    // reshape reads its producer flat; a transpose producer is not
    // flat-transparent, so the chain must keep the transpose TE.
    Graph g;
    const ValueId x = g.input("x", {2, 3});
    const ValueId t = g.transpose(x, {1, 0});
    const ValueId r = g.reshape(t, {6});
    g.markOutput(r);

    LoweredModel lowered = lowerToTe(g);
    const auto before = interpretOutputs(lowered.program, 5);
    verticalTransform(lowered.program);
    EXPECT_EQ(lowered.program.numTes(), 2); // transpose survives
    const auto after = interpretOutputs(lowered.program, 5);
    expectSameOutputs(before, after, 0.0);

    // The other direction: transpose reading a reshape output is an
    // ordinary multi-dim read of a flat-read producer; it composes.
    Graph g2;
    const ValueId x2 = g2.input("x", {2, 3});
    const ValueId r2 = g2.reshape(x2, {3, 2});
    const ValueId t2 = g2.transpose(r2, {1, 0});
    g2.markOutput(t2);
    LoweredModel lowered2 = lowerToTe(g2);
    const auto before2 = interpretOutputs(lowered2.program, 5);
    verticalTransform(lowered2.program);
    EXPECT_EQ(lowered2.program.numTes(), 1);
    const auto after2 = interpretOutputs(lowered2.program, 5);
    expectSameOutputs(before2, after2, 0.0);
}

TEST(Vertical, ReluIntoReshapeIsFlatTransparent)
{
    Graph g;
    const ValueId x = g.input("x", {2, 6});
    const ValueId y = g.reshape(g.relu(x), {3, 4});
    g.markOutput(y);

    LoweredModel lowered = lowerToTe(g);
    const auto before = interpretOutputs(lowered.program, 9);
    verticalTransform(lowered.program);
    EXPECT_EQ(lowered.program.numTes(), 1);
    const auto after = interpretOutputs(lowered.program, 9);
    expectSameOutputs(before, after, 0.0);
}

TEST(Vertical, InlinesMergedProducerReadThroughManySlots)
{
    // After a horizontal merge, a consumer of three members reads the
    // merged tensor `h` through three slots (one per member row
    // range). It also reads `q` flat and an input `w`. Each round
    // inlines one slot, so the pass keeps slot order exact across four
    // merges: dropped slots close up, producer inputs already present
    // reuse their slot, and new ones are appended.
    TeProgram program;
    const DType f32 = DType::kFP32;
    const TensorId a = program.addTensor("a", {2, 4}, f32,
                                         TensorRole::kInput);
    const TensorId b = program.addTensor("b", {2, 4}, f32,
                                         TensorRole::kInput);
    const TensorId c = program.addTensor("c", {2, 4}, f32,
                                         TensorRole::kInput);
    const TensorId w = program.addTensor("w", {2, 4}, f32,
                                         TensorRole::kInput);
    const TensorId r = program.addTensor("r", {8}, f32,
                                         TensorRole::kInput);
    const TensorId h = program.addTensor("h", {6, 4}, f32);
    const TensorId q = program.addTensor("q", {8}, f32);
    const TensorId out = program.addTensor("out", {2, 4}, f32,
                                           TensorRole::kOutput);

    auto rows_below = [](int64_t bound) {
        return Predicate{AffineCond{{1, 0}, -bound, CmpOp::kLT}};
    };
    auto shifted = [](int64_t rows) {
        AffineMap map = AffineMap::identity(2);
        map.addOffset(0, rows);
        return map;
    };
    const AffineMap id2 = AffineMap::identity(2);
    // h = concat(relu(a), -b, exp(c)) along rows.
    program.addTe(
        "hmerge", {a, b, c}, h, {}, Combiner::kNone,
        Expr::select(
            rows_below(2),
            Expr::unary(UnaryOp::kRelu, Expr::read(0, id2)),
            Expr::select(
                rows_below(4),
                Expr::unary(UnaryOp::kNeg, Expr::read(1, shifted(-2))),
                Expr::unary(UnaryOp::kExp,
                            Expr::read(2, shifted(-4))))));
    program.addTe("relu_r", {r}, q, {}, Combiner::kNone,
                  Expr::unary(UnaryOp::kRelu,
                              Expr::read(0, AffineMap::identity(1))));
    // out = h[i] * w + h[i + 2] + h[i + 4] + q.flat[4i + j]
    ExprPtr body = Expr::binary(BinaryOp::kMul, Expr::read(0, id2),
                                Expr::read(1, id2));
    body = Expr::binary(BinaryOp::kAdd, body,
                        Expr::read(2, shifted(2)));
    body = Expr::binary(BinaryOp::kAdd, body,
                        Expr::read(3, shifted(4)));
    body = Expr::binary(BinaryOp::kAdd, body,
                        Expr::readFlat(4, flatIdentityMap({2, 4})));
    program.addTe("consumer", {h, w, h, h, q}, out, {}, Combiner::kNone,
                  body);
    program.validate();
    const TeProgram reference = program;

    const VerticalStats stats = verticalTransform(program);
    EXPECT_EQ(stats.merged, 4);
    EXPECT_EQ(stats.rounds, 5);
    ASSERT_EQ(program.numTes(), 1);
    std::vector<std::string> inputs;
    for (TensorId in : program.te(0).inputs)
        inputs.push_back(program.tensor(in).name);
    EXPECT_EQ(inputs,
              (std::vector<std::string>{"w", "a", "b", "c", "r"}));

    expectSameOutputs(interpretOutputsByName(reference, 5),
                      interpretOutputsMatched(reference, program, 5),
                      0.0);
}

TEST(Horizontal, MergesIndependentMatmulsSharingInput)
{
    // The QKV pattern: three projections of the same input.
    Graph g;
    const ValueId x = g.input("x", {8, 16});
    const ValueId wq = g.param("wq", {16, 16});
    const ValueId wk = g.param("wk", {16, 16});
    const ValueId wv = g.param("wv", {16, 16});
    const ValueId q = g.matmul(x, wq);
    const ValueId k = g.matmul(x, wk);
    const ValueId v = g.matmul(x, wv);
    // Consume them so they are not model outputs themselves.
    const ValueId out = g.add(g.add(g.relu(q), g.relu(k)), g.relu(v));
    g.markOutput(out);

    LoweredModel lowered = lowerToTe(g);
    const auto before = interpretOutputsByName(lowered.program, 21);
    TeProgram transformed = lowered.program;
    const HorizontalStats stats = horizontalTransform(transformed);
    EXPECT_GE(stats.groups, 1);
    EXPECT_LT(transformed.numTes(), lowered.program.numTes());

    const auto after = interpretOutputsMatched(lowered.program,
                                               transformed, 21);
    expectSameOutputs(before, after, 1e-9);

    // The three matmuls must have merged into a single TE whose
    // shared input x occupies one slot (spatial reuse).
    int matmul_tes = 0;
    for (const auto &te : transformed.tes()) {
        if (te.hasReduce())
            ++matmul_tes;
    }
    EXPECT_EQ(matmul_tes, 1);
}

TEST(Horizontal, RespectsDependencies)
{
    // y = relu(x); z = relu(y): same signature but dependent.
    Graph g;
    const ValueId x = g.input("x", {4, 4});
    const ValueId z = g.relu(g.relu(x));
    g.markOutput(z);

    LoweredModel lowered = lowerToTe(g);
    TeProgram transformed = lowered.program;
    const HorizontalStats stats = horizontalTransform(transformed);
    EXPECT_EQ(stats.groups, 0);
    EXPECT_EQ(transformed.numTes(), 2);
}

TEST(Horizontal, MergesDifferentLeadingDims)
{
    // Fig. 3: GEMMs with outputs (4,16) and (2,16) concat to (6,16).
    Graph g;
    const ValueId a1 = g.input("a1", {4, 8});
    const ValueId b1 = g.param("b1", {8, 16});
    const ValueId a2 = g.input("a2", {2, 8});
    const ValueId b2 = g.param("b2", {8, 16});
    const ValueId c1 = g.matmul(a1, b1);
    const ValueId c2 = g.matmul(a2, b2);
    g.markOutput(g.relu(c1));
    g.markOutput(g.relu(c2));

    LoweredModel lowered = lowerToTe(g);
    const auto before = interpretOutputsByName(lowered.program, 33);
    TeProgram transformed = lowered.program;
    const HorizontalStats stats = horizontalTransform(transformed);
    EXPECT_GE(stats.groups, 1);

    // Find the merged TE and check its shape is (6, 16).
    bool found = false;
    for (const auto &te : transformed.tes()) {
        if (te.hasReduce() && te.outShape[0] == 6) {
            found = true;
            EXPECT_EQ(te.outShape, (std::vector<int64_t>{6, 16}));
        }
    }
    EXPECT_TRUE(found);

    const auto after = interpretOutputsMatched(lowered.program,
                                               transformed, 33);
    expectSameOutputs(before, after, 1e-9);
}

TEST(Horizontal, MergedConsumersReadThroughOffsets)
{
    // Consumers of merged members must be rewired with offset reads;
    // one consumer reads via reshape (flat read).
    Graph g;
    const ValueId x = g.input("x", {4, 6});
    const ValueId y = g.input("y", {4, 6});
    const ValueId sx = g.sigmoid(x);
    const ValueId sy = g.sigmoid(y);
    const ValueId flat = g.reshape(sy, {24});
    g.markOutput(g.relu(sx));
    g.markOutput(flat);

    LoweredModel lowered = lowerToTe(g);
    const auto before = interpretOutputsByName(lowered.program, 44);
    TeProgram transformed = lowered.program;
    const HorizontalStats stats = horizontalTransform(transformed);
    EXPECT_GE(stats.groups, 1);
    const auto after = interpretOutputsMatched(lowered.program,
                                               transformed, 44);
    expectSameOutputs(before, after, 0.0);
}

TEST(Horizontal, GroupSizeCapRespected)
{
    Graph g;
    const ValueId x = g.input("x", {2, 4});
    std::vector<ValueId> branches;
    for (int i = 0; i < 6; ++i)
        branches.push_back(g.sigmoid(x));
    ValueId acc = branches[0];
    for (int i = 1; i < 6; ++i)
        acc = g.add(acc, branches[i]);
    g.markOutput(acc);

    LoweredModel lowered = lowerToTe(g);
    TeProgram transformed = lowered.program;
    const HorizontalStats stats =
        horizontalTransform(transformed, /*max_group_size=*/3);
    // 6 identical sigmoids, cap 3: expect two groups of 3.
    EXPECT_EQ(stats.groups, 2);
}

TEST(HorizontalThenVertical, ComposeOnGroupedConv)
{
    // Grouped convolution: per-group conv TEs merge horizontally; the
    // trailing concat TE then reads the merged tensor.
    Graph g;
    const ValueId x = g.input("x", {1, 4, 4, 4});
    const ValueId w = g.param("w", {4, 2, 3, 3});
    const ValueId y = g.conv2d(x, w, 1, 1, /*groups=*/2);
    g.markOutput(g.relu(y));

    LoweredModel lowered = lowerToTe(g);
    const auto before = interpretOutputsByName(lowered.program, 55);

    TeProgram transformed = lowered.program;
    const HorizontalStats hstats = horizontalTransform(transformed);
    EXPECT_GE(hstats.groups, 1);
    verticalTransform(transformed);

    const auto after = interpretOutputsMatched(lowered.program,
                                               transformed, 55);
    expectSameOutputs(before, after, 1e-9);
}

} // namespace
} // namespace souffle
