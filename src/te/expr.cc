#include "te/expr.h"

#include <cmath>
#include <sstream>

#include "common/logging.h"

namespace souffle {

std::string
unaryOpName(UnaryOp op)
{
    switch (op) {
      case UnaryOp::kNeg:
        return "neg";
      case UnaryOp::kExp:
        return "exp";
      case UnaryOp::kLog:
        return "log";
      case UnaryOp::kSqrt:
        return "sqrt";
      case UnaryOp::kRsqrt:
        return "rsqrt";
      case UnaryOp::kSigmoid:
        return "sigmoid";
      case UnaryOp::kTanh:
        return "tanh";
      case UnaryOp::kRelu:
        return "relu";
      case UnaryOp::kErf:
        return "erf";
      case UnaryOp::kAbs:
        return "abs";
      case UnaryOp::kRecip:
        return "recip";
    }
    return "?";
}

std::string
binaryOpName(BinaryOp op)
{
    switch (op) {
      case BinaryOp::kAdd:
        return "add";
      case BinaryOp::kSub:
        return "sub";
      case BinaryOp::kMul:
        return "mul";
      case BinaryOp::kDiv:
        return "div";
      case BinaryOp::kMax:
        return "max";
      case BinaryOp::kMin:
        return "min";
      case BinaryOp::kPow:
        return "pow";
    }
    return "?";
}

int
unaryOpCost(UnaryOp op)
{
    switch (op) {
      case UnaryOp::kNeg:
      case UnaryOp::kAbs:
      case UnaryOp::kRelu:
        return 1;
      case UnaryOp::kRecip:
      case UnaryOp::kSqrt:
      case UnaryOp::kRsqrt:
        return 2;
      case UnaryOp::kExp:
      case UnaryOp::kLog:
        return 4;
      case UnaryOp::kSigmoid:
      case UnaryOp::kTanh:
      case UnaryOp::kErf:
        return 6;
    }
    return 1;
}

AffineMap
flatIdentityMap(const std::vector<int64_t> &shape)
{
    std::vector<int64_t> strides(shape.size(), 1);
    for (int i = static_cast<int>(shape.size()) - 2; i >= 0; --i)
        strides[i] = strides[i + 1] * shape[i + 1];
    return AffineMap({strides}, {0});
}

bool
isFlatTransparent(const ExprPtr &body,
                  const std::vector<int64_t> &out_shape)
{
    switch (body->kind()) {
      case ExprKind::kConst:
        return true;
      case ExprKind::kRead:
        if (body->isFlatRead())
            return body->readMap() == flatIdentityMap(out_shape);
        return body->readMap().isIdentity();
      case ExprKind::kUnary:
        return isFlatTransparent(body->lhs(), out_shape);
      case ExprKind::kBinary:
        return isFlatTransparent(body->lhs(), out_shape)
               && isFlatTransparent(body->rhs(), out_shape);
      case ExprKind::kSelect:
        return false;
    }
    return false;
}

double
applyUnary(UnaryOp op, double x)
{
    switch (op) {
      case UnaryOp::kNeg:
        return -x;
      case UnaryOp::kExp:
        return std::exp(x);
      case UnaryOp::kLog:
        return std::log(x);
      case UnaryOp::kSqrt:
        return std::sqrt(x);
      case UnaryOp::kRsqrt:
        return 1.0 / std::sqrt(x);
      case UnaryOp::kSigmoid:
        return 1.0 / (1.0 + std::exp(-x));
      case UnaryOp::kTanh:
        return std::tanh(x);
      case UnaryOp::kRelu:
        return x > 0.0 ? x : 0.0;
      case UnaryOp::kErf:
        return std::erf(x);
      case UnaryOp::kAbs:
        return std::abs(x);
      case UnaryOp::kRecip:
        return 1.0 / x;
    }
    return x;
}

double
applyBinary(BinaryOp op, double x, double y)
{
    switch (op) {
      case BinaryOp::kAdd:
        return x + y;
      case BinaryOp::kSub:
        return x - y;
      case BinaryOp::kMul:
        return x * y;
      case BinaryOp::kDiv:
        return x / y;
      case BinaryOp::kMax:
        return x > y ? x : y;
      case BinaryOp::kMin:
        return x < y ? x : y;
      case BinaryOp::kPow:
        return std::pow(x, y);
    }
    return x;
}

ExprPtr
Expr::constant(double value)
{
    auto node = std::shared_ptr<Expr>(new Expr());
    node->exprKind = ExprKind::kConst;
    node->value = value;
    return node;
}

ExprPtr
Expr::read(int slot, AffineMap map)
{
    SOUFFLE_CHECK(slot >= 0, "read slot must be non-negative");
    auto node = std::shared_ptr<Expr>(new Expr());
    node->exprKind = ExprKind::kRead;
    node->slot = slot;
    node->map = std::move(map);
    return node;
}

ExprPtr
Expr::readFlat(int slot, AffineMap map)
{
    SOUFFLE_CHECK(slot >= 0, "read slot must be non-negative");
    SOUFFLE_CHECK(map.outDims() == 1, "flat read map must have one row");
    auto node = std::shared_ptr<Expr>(new Expr());
    node->exprKind = ExprKind::kRead;
    node->slot = slot;
    node->flatRead = true;
    node->map = std::move(map);
    return node;
}

ExprPtr
Expr::unary(UnaryOp op, ExprPtr a)
{
    SOUFFLE_CHECK(a != nullptr, "unary operand is null");
    auto node = std::shared_ptr<Expr>(new Expr());
    node->exprKind = ExprKind::kUnary;
    node->uop = op;
    node->a = std::move(a);
    return node;
}

ExprPtr
Expr::binary(BinaryOp op, ExprPtr a, ExprPtr b)
{
    SOUFFLE_CHECK(a != nullptr && b != nullptr, "binary operand is null");
    auto node = std::shared_ptr<Expr>(new Expr());
    node->exprKind = ExprKind::kBinary;
    node->bop = op;
    node->a = std::move(a);
    node->b = std::move(b);
    return node;
}

ExprPtr
Expr::select(Predicate pred, ExprPtr then_e, ExprPtr else_e)
{
    SOUFFLE_CHECK(then_e != nullptr && else_e != nullptr,
                  "select operand is null");
    auto node = std::shared_ptr<Expr>(new Expr());
    node->exprKind = ExprKind::kSelect;
    node->pred = std::move(pred);
    node->a = std::move(then_e);
    node->b = std::move(else_e);
    return node;
}

double
Expr::eval(std::span<const int64_t> index, const EvalContext &ctx) const
{
    switch (exprKind) {
      case ExprKind::kConst:
        return value;
      case ExprKind::kRead: {
        if (flatRead) {
            int64_t offset = 0;
            std::vector<int64_t> one(1);
            map.applyInto(index, one);
            offset = one[0];
            return ctx.readFlat(slot, offset);
        }
        std::vector<int64_t> in_index(map.outDims());
        map.applyInto(index, in_index);
        return ctx.read(slot, in_index);
      }
      case ExprKind::kUnary:
        return applyUnary(uop, a->eval(index, ctx));
      case ExprKind::kBinary:
        return applyBinary(bop, a->eval(index, ctx),
                           b->eval(index, ctx));
      case ExprKind::kSelect:
        return evalPredicate(pred, index) ? a->eval(index, ctx)
                                          : b->eval(index, ctx);
    }
    SOUFFLE_PANIC("unreachable expression kind");
}

ExprPtr
Expr::substituteIndices(const AffineMap &sub) const
{
    switch (exprKind) {
      case ExprKind::kConst:
        return shared_from_this();
      case ExprKind::kRead:
        if (flatRead)
            return readFlat(slot, map.compose(sub));
        return read(slot, map.compose(sub));
      case ExprKind::kUnary:
        return unary(uop, a->substituteIndices(sub));
      case ExprKind::kBinary:
        return binary(bop, a->substituteIndices(sub),
                      b->substituteIndices(sub));
      case ExprKind::kSelect: {
        Predicate new_pred;
        new_pred.reserve(pred.size());
        for (const auto &cond : pred)
            new_pred.push_back(cond.substitute(sub));
        return select(std::move(new_pred), a->substituteIndices(sub),
                      b->substituteIndices(sub));
      }
    }
    SOUFFLE_PANIC("unreachable expression kind");
}

namespace {

/**
 * The producer body @p body placed at one read site of the consumer,
 * built in one rebuild: its reads are renumbered through @p slot_remap
 * and re-expressed in the consumer's index space. For a multi-dim
 * read through @p site, every read map R becomes R o site and every
 * predicate is rewritten over the consumer's indices (Eq. 2). For a
 * flat read (@p flat), the body must be flat-transparent: its identity
 * and flat-identity reads all denote "the same flat element as the
 * output", so each becomes a flat read at @p site.
 */
ExprPtr
placeAtSite(const ExprPtr &body, const AffineMap &site, bool flat,
            const std::vector<int> &slot_remap)
{
    switch (body->kind()) {
      case ExprKind::kConst:
        return body;
      case ExprKind::kRead: {
        const int slot = slot_remap[static_cast<size_t>(body->readSlot())];
        if (flat)
            return Expr::readFlat(slot, site);
        if (body->isFlatRead())
            return Expr::readFlat(slot, body->readMap().compose(site));
        return Expr::read(slot, body->readMap().compose(site));
      }
      case ExprKind::kUnary:
        return Expr::unary(body->unaryOp(),
                           placeAtSite(body->lhs(), site, flat, slot_remap));
      case ExprKind::kBinary:
        return Expr::binary(
            body->binaryOp(),
            placeAtSite(body->lhs(), site, flat, slot_remap),
            placeAtSite(body->rhs(), site, flat, slot_remap));
      case ExprKind::kSelect: {
        SOUFFLE_CHECK(!flat, "select is not flat-transparent");
        Predicate pred;
        pred.reserve(body->predicate().size());
        for (const auto &cond : body->predicate())
            pred.push_back(cond.substitute(site));
        return Expr::select(
            std::move(pred),
            placeAtSite(body->lhs(), site, flat, slot_remap),
            placeAtSite(body->rhs(), site, flat, slot_remap));
      }
    }
    SOUFFLE_PANIC("unreachable expression kind");
}

/** inlineSlot's single rebuild of the consumer body @p node. */
ExprPtr
inlineRenumbered(const ExprPtr &node, int target_slot,
                 const ExprPtr &replacement,
                 const std::vector<int> &replacement_remap,
                 const std::vector<int> &slot_remap)
{
    switch (node->kind()) {
      case ExprKind::kConst:
        return node;
      case ExprKind::kRead: {
        const int slot = node->readSlot();
        // Caller must have checked isFlatTransparent() for flat reads.
        if (slot == target_slot)
            return placeAtSite(replacement, node->readMap(),
                               node->isFlatRead(), replacement_remap);
        SOUFFLE_CHECK(slot < static_cast<int>(slot_remap.size()),
                      "slot remap out of range");
        const int to = slot_remap[static_cast<size_t>(slot)];
        if (to == slot)
            return node;
        if (node->isFlatRead())
            return Expr::readFlat(to, node->readMap());
        return Expr::read(to, node->readMap());
      }
      case ExprKind::kUnary: {
        ExprPtr a = inlineRenumbered(node->lhs(), target_slot, replacement,
                                     replacement_remap, slot_remap);
        if (a == node->lhs())
            return node;
        return Expr::unary(node->unaryOp(), std::move(a));
      }
      case ExprKind::kBinary:
      case ExprKind::kSelect: {
        ExprPtr a = inlineRenumbered(node->lhs(), target_slot, replacement,
                                     replacement_remap, slot_remap);
        ExprPtr b = inlineRenumbered(node->rhs(), target_slot, replacement,
                                     replacement_remap, slot_remap);
        if (a == node->lhs() && b == node->rhs())
            return node;
        if (node->kind() == ExprKind::kBinary)
            return Expr::binary(node->binaryOp(), std::move(a),
                                std::move(b));
        return Expr::select(node->predicate(), std::move(a),
                            std::move(b));
      }
    }
    SOUFFLE_PANIC("unreachable expression kind");
}

} // namespace

ExprPtr
Expr::inlineSlot(int target_slot, const ExprPtr &replacement,
                 const std::vector<int> &replacement_remap,
                 const std::vector<int> &slot_remap) const
{
    return inlineRenumbered(shared_from_this(), target_slot, replacement,
                            replacement_remap, slot_remap);
}

ExprPtr
Expr::remapSlots(const std::vector<int> &slot_remap) const
{
    switch (exprKind) {
      case ExprKind::kConst:
        return shared_from_this();
      case ExprKind::kRead:
        SOUFFLE_CHECK(slot < static_cast<int>(slot_remap.size()),
                      "slot remap out of range");
        if (slot_remap[slot] == slot)
            return shared_from_this();
        if (flatRead)
            return readFlat(slot_remap[slot], map);
        return read(slot_remap[slot], map);
      case ExprKind::kUnary:
        return unary(uop, a->remapSlots(slot_remap));
      case ExprKind::kBinary:
        return binary(bop, a->remapSlots(slot_remap),
                      b->remapSlots(slot_remap));
      case ExprKind::kSelect:
        return select(pred, a->remapSlots(slot_remap),
                      b->remapSlots(slot_remap));
    }
    SOUFFLE_PANIC("unreachable expression kind");
}

int64_t
Expr::arithOps() const
{
    switch (exprKind) {
      case ExprKind::kConst:
      case ExprKind::kRead:
        return 0;
      case ExprKind::kUnary:
        return unaryOpCost(uop) + a->arithOps();
      case ExprKind::kBinary:
        return 1 + a->arithOps() + b->arithOps();
      case ExprKind::kSelect: {
        // Only one branch executes per element (predication), and a
        // nested select *chain* (concat / horizontal merge) is a
        // single piecewise dispatch, so a piecewise TE costs one
        // dispatch plus its worst branch.
        int64_t worst = a->arithOps();
        const Expr *tail = this;
        while (tail->exprKind == ExprKind::kSelect) {
            worst = std::max(worst, tail->a->arithOps());
            if (tail->b->exprKind != ExprKind::kSelect) {
                worst = std::max(worst, tail->b->arithOps());
                break;
            }
            tail = tail->b.get();
        }
        return 1 + worst;
      }
    }
    return 0;
}

void
Expr::collectReads(std::vector<ReadAccess> &out) const
{
    switch (exprKind) {
      case ExprKind::kConst:
        return;
      case ExprKind::kRead:
        out.push_back(ReadAccess{slot, &map, flatRead});
        return;
      case ExprKind::kUnary:
        a->collectReads(out);
        return;
      case ExprKind::kBinary:
      case ExprKind::kSelect:
        a->collectReads(out);
        b->collectReads(out);
        return;
    }
}

int64_t
Expr::numReads() const
{
    std::vector<ReadAccess> reads;
    collectReads(reads);
    return static_cast<int64_t>(reads.size());
}

int64_t
Expr::nodeCount() const
{
    switch (exprKind) {
      case ExprKind::kConst:
      case ExprKind::kRead:
        return 1;
      case ExprKind::kUnary:
        return 1 + a->nodeCount();
      case ExprKind::kBinary:
      case ExprKind::kSelect:
        return 1 + a->nodeCount() + b->nodeCount();
    }
    return 1;
}

int
Expr::selectDepth() const
{
    switch (exprKind) {
      case ExprKind::kConst:
      case ExprKind::kRead:
        return 0;
      case ExprKind::kUnary:
        return a->selectDepth();
      case ExprKind::kBinary:
        return std::max(a->selectDepth(), b->selectDepth());
      case ExprKind::kSelect:
        return 1 + std::max(a->selectDepth(), b->selectDepth());
    }
    return 0;
}

std::string
Expr::toString() const
{
    std::ostringstream os;
    switch (exprKind) {
      case ExprKind::kConst:
        os << value;
        break;
      case ExprKind::kRead:
        os << "in" << slot << (flatRead ? ".flat" : "") << map.toString();
        break;
      case ExprKind::kUnary:
        os << unaryOpName(uop) << "(" << a->toString() << ")";
        break;
      case ExprKind::kBinary:
        os << binaryOpName(bop) << "(" << a->toString() << ", "
           << b->toString() << ")";
        break;
      case ExprKind::kSelect: {
        os << "select(";
        for (size_t i = 0; i < pred.size(); ++i) {
            if (i)
                os << " && ";
            os << pred[i].toString();
        }
        os << "; " << a->toString() << "; " << b->toString() << ")";
        break;
      }
    }
    return os.str();
}

} // namespace souffle
