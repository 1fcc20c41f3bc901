#pragma once

/**
 * @file
 * Scalar expression trees describing how one output element of a tensor
 * expression is computed from input tensor elements.
 *
 * The body of a TE is a pure expression over the iteration space
 * (output indices followed by reduction indices). Leaves are constants
 * and tensor reads through quasi-affine index maps; interior nodes are
 * unary/binary arithmetic and affine-predicated selections.
 */

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "te/affine.h"

namespace souffle {

/** Unary scalar operations. */
enum class UnaryOp : uint8_t {
    kNeg,
    kExp,
    kLog,
    kSqrt,
    kRsqrt,
    kSigmoid,
    kTanh,
    kRelu,
    kErf,
    kAbs,
    kRecip,
};

/** Binary scalar operations. */
enum class BinaryOp : uint8_t {
    kAdd,
    kSub,
    kMul,
    kDiv,
    kMax,
    kMin,
    kPow,
};

std::string unaryOpName(UnaryOp op);
std::string binaryOpName(BinaryOp op);

/**
 * Approximate arithmetic cost in scalar instructions, used by the
 * compute/memory characterization (Sec. 5.3).
 */
int unaryOpCost(UnaryOp op);

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

/** Node kinds of the scalar expression tree. */
enum class ExprKind : uint8_t {
    kConst,
    kRead,
    kUnary,
    kBinary,
    kSelect,
};

/** A tensor read recorded while traversing an expression. */
struct ReadAccess
{
    int inputSlot;
    const AffineMap *map;
    /** True if the map yields a flat (row-major linearized) offset. */
    bool flat;
};

/** Callbacks supplying input-element values during evaluation. */
struct EvalContext
{
    /** Return the value of input @p slot at multi-index @p index. */
    std::function<double(int slot, std::span<const int64_t> index)> read;
    /** Return the value of input @p slot at flat offset @p offset. */
    std::function<double(int slot, int64_t offset)> readFlat;
};

/**
 * An immutable scalar expression node.
 *
 * Nodes are shared (shared_ptr) and never mutated after construction;
 * all transformations build new trees.
 */
class Expr : public std::enable_shared_from_this<Expr>
{
  public:
    /** Constant leaf. */
    static ExprPtr constant(double value);

    /** Read of input tensor slot @p slot through index map @p map. */
    static ExprPtr read(int slot, AffineMap map);

    /**
     * Read of input tensor slot @p slot at a flat row-major offset
     * given by the single-row affine map @p map over the iteration
     * space. This is how reshape-like TEs stay quasi-affine: a
     * row-major reshape preserves flat offsets, so the read offset is
     * sum(out_strides[i] * idx[i]) -- affine in the output index.
     */
    static ExprPtr readFlat(int slot, AffineMap map);

    static ExprPtr unary(UnaryOp op, ExprPtr a);
    static ExprPtr binary(BinaryOp op, ExprPtr a, ExprPtr b);

    /** Affine-predicated selection: pred ? then_e : else_e. */
    static ExprPtr select(Predicate pred, ExprPtr then_e, ExprPtr else_e);

    ExprKind kind() const { return exprKind; }
    double constValue() const { return value; }
    int readSlot() const { return slot; }
    const AffineMap &readMap() const { return map; }
    bool isFlatRead() const { return flatRead; }
    UnaryOp unaryOp() const { return uop; }
    BinaryOp binaryOp() const { return bop; }
    const ExprPtr &lhs() const { return a; }
    const ExprPtr &rhs() const { return b; }
    const Predicate &predicate() const { return pred; }

    /** Evaluate at @p index with input values supplied by @p ctx. */
    double eval(std::span<const int64_t> index,
                const EvalContext &ctx) const;

    /**
     * Rewrite the expression through an index substitution x = A(z).
     *
     * Every read map R becomes R o A and every predicate is rewritten
     * over z. This is the engine behind vertical transformation (Eq. 2).
     */
    ExprPtr substituteIndices(const AffineMap &sub) const;

    /**
     * Replace every read of @p target_slot with @p replacement (the
     * producer's body), substituted through the read's own index map
     * (Eq. 2), and renumber the result into the consumer's final slot
     * space in the same rebuild: a read of this expression's slot s
     * becomes slot_remap[s], and a read of the replacement's slot r
     * becomes replacement_remap[r]. Subtrees that neither read the
     * target nor change slot are shared with this expression, not
     * copied.
     *
     * If this expression reads the target through a *flat* map, the
     * replacement must be flat-transparent (see isFlatTransparent);
     * its reads are then rewritten to flat reads at the same offset.
     */
    ExprPtr inlineSlot(int target_slot, const ExprPtr &replacement,
                       const std::vector<int> &replacement_remap,
                       const std::vector<int> &slot_remap) const;

    /** Renumber input slots: slot s becomes slot_remap[s]. */
    ExprPtr remapSlots(const std::vector<int> &slot_remap) const;

    /** Number of arithmetic instructions per element (selects count 1). */
    int64_t arithOps() const;

    /** Collect all tensor reads in the tree. */
    void collectReads(std::vector<ReadAccess> &out) const;

    /** Count read leaves. */
    int64_t numReads() const;

    /** Total node count of the tree (inlining-budget metric). */
    int64_t nodeCount() const;

    /** Maximum select-nesting depth (diagnostic). */
    int selectDepth() const;

    std::string toString() const;

  private:
    Expr() = default;

    ExprKind exprKind = ExprKind::kConst;
    double value = 0.0;
    int slot = -1;
    bool flatRead = false;
    AffineMap map;
    UnaryOp uop = UnaryOp::kNeg;
    BinaryOp bop = BinaryOp::kAdd;
    ExprPtr a;
    ExprPtr b;
    Predicate pred;
};

/**
 * True if @p body (the body of a one-relies-on-one TE with output shape
 * @p out_shape) preserves row-major layout element-by-element: every
 * multi-dim read uses the identity map and every flat read uses the
 * flat-identity map (coefficients equal to the output strides, offset
 * zero), and no predicate depends on the index. Such a body can be
 * inlined underneath a flat read of its output.
 */
bool isFlatTransparent(const ExprPtr &body,
                       const std::vector<int64_t> &out_shape);

/** The flat-identity map of @p shape: offset = sum(strides[i]*x[i]). */
AffineMap flatIdentityMap(const std::vector<int64_t> &shape);

/** Apply a unary scalar op to a value. */
double applyUnary(UnaryOp op, double x);

/** Apply a binary scalar op to two values. */
double applyBinary(BinaryOp op, double x, double y);

} // namespace souffle
