#include "te/serialize.h"

#include <cmath>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/logging.h"

namespace souffle {

namespace {

// ----- enum name tables (reverse of the *Name functions) -------------

const char *
roleName(TensorRole role)
{
    switch (role) {
    case TensorRole::kInput:
        return "input";
    case TensorRole::kParam:
        return "param";
    case TensorRole::kIntermediate:
        return "intermediate";
    case TensorRole::kOutput:
        return "output";
    }
    return "?";
}

TensorRole
parseRole(const std::string &name)
{
    for (TensorRole role :
         {TensorRole::kInput, TensorRole::kParam,
          TensorRole::kIntermediate, TensorRole::kOutput}) {
        if (name == roleName(role))
            return role;
    }
    SOUFFLE_FATAL("unknown tensor role: " << name);
}

DType
parseDtype(const std::string &name)
{
    for (DType dtype :
         {DType::kFP16, DType::kFP32, DType::kInt32, DType::kBool}) {
        if (name == dtypeName(dtype))
            return dtype;
    }
    SOUFFLE_FATAL("unknown dtype: " << name);
}

Combiner
parseCombiner(const std::string &name)
{
    for (Combiner combiner : {Combiner::kNone, Combiner::kSum,
                              Combiner::kMax, Combiner::kMin}) {
        if (name == combinerName(combiner))
            return combiner;
    }
    SOUFFLE_FATAL("unknown combiner: " << name);
}

UnaryOp
parseUnaryOp(const std::string &name)
{
    for (UnaryOp op :
         {UnaryOp::kNeg, UnaryOp::kExp, UnaryOp::kLog, UnaryOp::kSqrt,
          UnaryOp::kRsqrt, UnaryOp::kSigmoid, UnaryOp::kTanh,
          UnaryOp::kRelu, UnaryOp::kErf, UnaryOp::kAbs,
          UnaryOp::kRecip}) {
        if (name == unaryOpName(op))
            return op;
    }
    SOUFFLE_FATAL("unknown unary op: " << name);
}

BinaryOp
parseBinaryOp(const std::string &name)
{
    for (BinaryOp op :
         {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
          BinaryOp::kDiv, BinaryOp::kMax, BinaryOp::kMin,
          BinaryOp::kPow}) {
        if (name == binaryOpName(op))
            return op;
    }
    SOUFFLE_FATAL("unknown binary op: " << name);
}

const char *
cmpOpName(CmpOp op)
{
    switch (op) {
    case CmpOp::kGE:
        return "ge";
    case CmpOp::kLT:
        return "lt";
    case CmpOp::kEQ:
        return "eq";
    }
    return "?";
}

CmpOp
parseCmpOp(const std::string &name)
{
    for (CmpOp op : {CmpOp::kGE, CmpOp::kLT, CmpOp::kEQ}) {
        if (name == cmpOpName(op))
            return op;
    }
    SOUFFLE_FATAL("unknown comparison op: " << name);
}

// ----- writers -------------------------------------------------------

void
writeIntArray(JsonWriter &w, const std::vector<int64_t> &values)
{
    w.beginArray();
    for (int64_t v : values)
        w.value(v);
    w.endArray();
}

void
writeMap(JsonWriter &w, const AffineMap &map)
{
    w.beginObject();
    w.key("rows").beginArray();
    for (int r = 0; r < map.outDims(); ++r) {
        w.beginArray();
        for (int c = 0; c < map.inDims(); ++c)
            w.value(map.coef(r, c));
        w.endArray();
    }
    w.endArray();
    w.key("off").beginArray();
    for (int r = 0; r < map.outDims(); ++r)
        w.value(map.offsetAt(r));
    w.endArray();
    w.field("in", map.inDims());
    w.endObject();
}

void
writePredicate(JsonWriter &w, const Predicate &pred)
{
    w.beginArray();
    for (const AffineCond &cond : pred) {
        w.beginObject();
        w.key("coefs");
        writeIntArray(w, cond.coefs);
        w.field("off", cond.offset);
        w.field("op", cmpOpName(cond.op));
        w.endObject();
    }
    w.endArray();
}

void
writeExpr(JsonWriter &w, const ExprPtr &e)
{
    w.beginObject();
    switch (e->kind()) {
    case ExprKind::kConst: {
        // JsonWriter clamps non-finite doubles to null, but constants
        // like the -inf maxpool pad fill must round-trip exactly, so
        // non-finite values get an explicit string spelling.
        const double value = e->constValue();
        w.field("k", "const");
        if (std::isfinite(value))
            w.field("v", value);
        else if (std::isnan(value))
            w.field("vs", "nan");
        else
            w.field("vs", value > 0 ? "inf" : "-inf");
        break;
    }
    case ExprKind::kRead:
        w.field("k", "read").field("slot", e->readSlot());
        w.field("flat", e->isFlatRead());
        w.key("map");
        writeMap(w, e->readMap());
        break;
    case ExprKind::kUnary:
        w.field("k", "unary").field("op", unaryOpName(e->unaryOp()));
        w.key("a");
        writeExpr(w, e->lhs());
        break;
    case ExprKind::kBinary:
        w.field("k", "binary").field("op", binaryOpName(e->binaryOp()));
        w.key("a");
        writeExpr(w, e->lhs());
        w.key("b");
        writeExpr(w, e->rhs());
        break;
    case ExprKind::kSelect:
        w.field("k", "select");
        w.key("pred");
        writePredicate(w, e->predicate());
        w.key("a");
        writeExpr(w, e->lhs());
        w.key("b");
        writeExpr(w, e->rhs());
        break;
    }
    w.endObject();
}

// ----- readers -------------------------------------------------------

/**
 * One-pass reader: walks the document in the writer's key order and
 * builds the program directly. Besides the JSON shape it checks what
 * the IR constructors and `TeProgram::validate` would otherwise trip
 * over with an abort (ragged maps, read slots and ranks, consumers
 * ordered before producers), so malformed input is a FatalError.
 */
class ProgramReader
{
  public:
    explicit ProgramReader(std::string_view text) : r(text) {}

    TeProgram
    read()
    {
        r.beginObject();
        r.key("version");
        const int64_t version = r.readInt();
        SOUFFLE_REQUIRE(version == 1,
                        "unsupported TE-program format version: "
                            << version);

        r.key("tensors");
        r.beginArray();
        while (r.hasNext()) {
            r.beginObject();
            r.key("name");
            std::string name = r.readString();
            r.key("shape");
            std::vector<int64_t> shape = readIntArray();
            r.key("dtype");
            const DType dtype = parseDtype(r.readString());
            r.key("role");
            const TensorRole role = parseRole(r.readString());
            r.endObject();
            program.addTensor(name, std::move(shape), dtype, role);
        }
        r.endArray();

        r.key("tes");
        r.beginArray();
        std::vector<char> consumed(program.numTensors(), 0);
        while (r.hasNext()) {
            r.beginObject();
            r.key("name");
            std::string name = r.readString();
            r.key("inputs");
            std::vector<TensorId> inputs;
            r.beginArray();
            while (r.hasNext()) {
                const TensorId input = readTensorId();
                consumed[input] = 1;
                inputs.push_back(input);
            }
            r.endArray();
            r.key("output");
            const TensorId output = readTensorId();
            if (consumed[output])
                r.fail("TE '" + name
                       + "' produces a tensor an earlier TE reads");
            r.key("reduce");
            std::vector<int64_t> reduce = readIntArray();
            r.key("combiner");
            const Combiner combiner = parseCombiner(r.readString());

            bodyInputs = &inputs;
            iterRank = static_cast<int>(
                program.tensor(output).shape.size() + reduce.size());
            r.key("body");
            ExprPtr body = readExpr();
            r.endObject();
            program.addTe(name, std::move(inputs), output,
                          std::move(reduce), combiner, std::move(body));
        }
        r.endArray();
        r.endObject();
        r.finish();
        program.validate();
        return std::move(program);
    }

  private:
    std::vector<int64_t>
    readIntArray()
    {
        std::vector<int64_t> out;
        r.beginArray();
        while (r.hasNext())
            out.push_back(r.readInt());
        r.endArray();
        return out;
    }

    TensorId
    readTensorId()
    {
        const int64_t id = r.readInt();
        if (id < 0 || id >= program.numTensors())
            r.fail("tensor id " + std::to_string(id) + " out of range");
        return static_cast<TensorId>(id);
    }

    AffineMap
    readMap()
    {
        r.beginObject();
        r.key("rows");
        std::vector<std::vector<int64_t>> rows;
        r.beginArray();
        while (r.hasNext())
            rows.push_back(readIntArray());
        r.endArray();
        r.key("off");
        std::vector<int64_t> off = readIntArray();
        r.key("in");
        const int64_t in_dims = r.readInt();
        if (in_dims < 0 || in_dims > kMaxMapDims)
            r.fail("affine map in-dims out of range");
        for (const std::vector<int64_t> &row : rows)
            if (static_cast<int64_t>(row.size()) != in_dims)
                r.fail("affine map row has " + std::to_string(row.size())
                       + " coefficients, want " + std::to_string(in_dims));
        if (off.size() != rows.size())
            r.fail("affine map has " + std::to_string(off.size())
                   + " offsets for " + std::to_string(rows.size())
                   + " rows");
        r.endObject();
        if (rows.empty())
            return AffineMap::zero(0, static_cast<int>(in_dims));
        return AffineMap(std::move(rows), std::move(off));
    }

    Predicate
    readPredicate()
    {
        Predicate pred;
        r.beginArray();
        while (r.hasNext()) {
            AffineCond cond;
            r.beginObject();
            r.key("coefs");
            cond.coefs = readIntArray();
            r.key("off");
            cond.offset = r.readInt();
            r.key("op");
            cond.op = parseCmpOp(r.readString());
            r.endObject();
            pred.push_back(std::move(cond));
        }
        r.endArray();
        return pred;
    }

    ExprPtr
    readRead()
    {
        r.key("slot");
        const int64_t slot = r.readInt();
        if (slot < 0 || slot >= static_cast<int64_t>(bodyInputs->size()))
            r.fail("read slot " + std::to_string(slot) + " out of range");
        r.key("flat");
        const bool flat = r.readBool();
        r.key("map");
        AffineMap map = readMap();
        if (map.inDims() != iterRank)
            r.fail("read map in-dims " + std::to_string(map.inDims())
                   + " differ from the iteration rank "
                   + std::to_string(iterRank));
        const int want_out =
            flat ? 1
                 : program.tensor((*bodyInputs)[slot]).rank();
        if (map.outDims() != want_out)
            r.fail("read map has " + std::to_string(map.outDims())
                   + " rows, want " + std::to_string(want_out));
        if (flat)
            return Expr::readFlat(static_cast<int>(slot), std::move(map));
        return Expr::read(static_cast<int>(slot), std::move(map));
    }

    ExprPtr
    readConst()
    {
        // Finite constants are numbers under "v"; inf/-inf/nan are
        // spelled out under "vs".
        const std::string name = r.nextKey();
        if (name == "v")
            return Expr::constant(r.readDouble());
        if (name != "vs")
            r.fail("expected member 'v' or 'vs', found '" + name + "'");
        const std::string special = r.readString();
        if (special == "inf")
            return Expr::constant(std::numeric_limits<double>::infinity());
        if (special == "-inf")
            return Expr::constant(
                -std::numeric_limits<double>::infinity());
        if (special == "nan")
            return Expr::constant(std::numeric_limits<double>::quiet_NaN());
        SOUFFLE_FATAL("unknown special constant: " << special);
    }

    ExprPtr
    readExpr()
    {
        r.beginObject();
        r.key("k");
        const std::string kind = r.readString();
        ExprPtr e;
        if (kind == "const") {
            e = readConst();
        } else if (kind == "read") {
            e = readRead();
        } else if (kind == "unary") {
            r.key("op");
            const UnaryOp op = parseUnaryOp(r.readString());
            r.key("a");
            e = Expr::unary(op, readExpr());
        } else if (kind == "binary") {
            r.key("op");
            const BinaryOp op = parseBinaryOp(r.readString());
            r.key("a");
            ExprPtr a = readExpr();
            r.key("b");
            e = Expr::binary(op, std::move(a), readExpr());
        } else if (kind == "select") {
            r.key("pred");
            Predicate pred = readPredicate();
            r.key("a");
            ExprPtr a = readExpr();
            r.key("b");
            e = Expr::select(std::move(pred), std::move(a), readExpr());
        } else {
            SOUFFLE_FATAL("unknown expression kind: " << kind);
        }
        r.endObject();
        return e;
    }

    /** Generous bound on map ranks; keeps a corrupt count from
     *  sizing a huge allocation. */
    static constexpr int64_t kMaxMapDims = 1 << 16;

    JsonReader r;
    TeProgram program;
    /** Inputs and iteration rank of the TE whose body is read. */
    const std::vector<TensorId> *bodyInputs = nullptr;
    int iterRank = 0;
};

} // namespace

std::string
serializeTeProgram(const TeProgram &program)
{
    JsonWriter w(JsonWriter::Style::kCompact);
    w.setDoublePrecision(17);
    w.beginObject();
    w.field("version", 1);

    w.newline().key("tensors").beginArray();
    for (const TensorDecl &decl : program.tensors()) {
        w.newline().beginObject();
        w.field("name", decl.name);
        w.key("shape");
        writeIntArray(w, decl.shape);
        w.field("dtype", dtypeName(decl.dtype));
        w.field("role", roleName(decl.role));
        w.endObject();
    }
    w.endArray();

    w.newline().key("tes").beginArray();
    for (const TensorExpr &te : program.tes()) {
        w.newline().beginObject();
        w.field("name", te.name);
        w.key("inputs").beginArray();
        for (TensorId input : te.inputs)
            w.value(static_cast<int64_t>(input));
        w.endArray();
        w.field("output", static_cast<int64_t>(te.output));
        w.key("reduce");
        writeIntArray(w, te.reduceExtents);
        w.field("combiner", combinerName(te.combiner));
        w.key("body");
        writeExpr(w, te.body);
        w.endObject();
    }
    w.endArray();
    w.newline().endObject();
    return w.str();
}

TeProgram
deserializeTeProgram(std::string_view text)
{
    return ProgramReader(text).read();
}

} // namespace souffle
