#include "sched/schedule.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include <functional>

#include "common/artifact_cache.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "te/fingerprint.h"

namespace souffle {

std::string
Schedule::toString() const
{
    std::ostringstream os;
    os << "Schedule(te=" << teId << ", tile=" << tileM << "x" << tileN
       << "x" << tileK << ", blocks=" << numBlocks
       << ", threads=" << threadsPerBlock << ", smem=" << sharedMemBytes
       << "B, regs/t=" << regsPerThread
       << (useTensorCore ? ", tensor-core" : "")
       << (gridStride ? ", grid-stride" : "") << ", est="
       << timeToString(estTimeUs) << ")";
    return os.str();
}

namespace {

/** The fields of a schedule payload, in format order. */
void
writeScheduleFields(JsonWriter &w, const Schedule &sched)
{
    w.field("tileM", sched.tileM)
        .field("tileN", sched.tileN)
        .field("tileK", sched.tileK)
        .field("threadsPerBlock", sched.threadsPerBlock)
        .field("numBlocks", sched.numBlocks)
        .field("sharedMemBytes", sched.sharedMemBytes)
        .field("regsPerThread", sched.regsPerThread)
        .field("useTensorCore", sched.useTensorCore)
        .field("gridStride", sched.gridStride)
        .field("estTimeUs", sched.estTimeUs)
        .field("estGlobalBytes", sched.estGlobalBytes);
}

/** Read the fields `writeScheduleFields` writes, in its order. */
void
readScheduleFields(JsonReader &r, Schedule &sched)
{
    r.key("tileM");
    sched.tileM = r.readInt();
    r.key("tileN");
    sched.tileN = r.readInt();
    r.key("tileK");
    sched.tileK = r.readInt();
    r.key("threadsPerBlock");
    sched.threadsPerBlock = static_cast<int>(r.readInt());
    r.key("numBlocks");
    sched.numBlocks = r.readInt();
    r.key("sharedMemBytes");
    sched.sharedMemBytes = r.readInt();
    r.key("regsPerThread");
    sched.regsPerThread = r.readInt();
    r.key("useTensorCore");
    sched.useTensorCore = r.readBool();
    r.key("gridStride");
    sched.gridStride = r.readBool();
    r.key("estTimeUs");
    sched.estTimeUs = r.readDouble();
    r.key("estGlobalBytes");
    sched.estGlobalBytes = r.readDouble();
}

} // namespace

std::string
serializeSchedule(const Schedule &sched)
{
    JsonWriter writer(JsonWriter::Style::kCompact);
    writer.setDoublePrecision(17);
    writer.beginObject();
    writeScheduleFields(writer, sched);
    writer.endObject();
    return writer.str();
}

Schedule
deserializeSchedule(std::string_view payload)
{
    JsonReader r(payload);
    Schedule sched;
    r.beginObject();
    readScheduleFields(r, sched);
    r.endObject();
    r.finish();
    return sched;
}

std::string
serializeSchedules(const std::vector<Schedule> &schedules)
{
    JsonWriter w(JsonWriter::Style::kCompact);
    w.setDoublePrecision(17);
    w.beginObject();
    w.field("version", 1);
    w.newline().key("schedules").beginArray();
    for (const Schedule &sched : schedules) {
        w.newline().beginObject();
        w.field("teId", sched.teId);
        writeScheduleFields(w, sched);
        w.endObject();
    }
    w.endArray();
    w.newline().endObject();
    return w.str();
}

std::vector<Schedule>
deserializeSchedules(std::string_view text)
{
    JsonReader r(text);
    r.beginObject();
    r.key("version");
    const int64_t version = r.readInt();
    SOUFFLE_REQUIRE(version == 1,
                    "unsupported schedule format version: "
                        << version);
    std::vector<Schedule> schedules;
    r.key("schedules");
    r.beginArray();
    while (r.hasNext()) {
        Schedule sched;
        r.beginObject();
        r.key("teId");
        sched.teId = static_cast<int>(r.readInt());
        readScheduleFields(r, sched);
        r.endObject();
        schedules.push_back(sched);
    }
    r.endArray();
    r.endObject();
    r.finish();
    return schedules;
}

AutoScheduler::AutoScheduler(const TeProgram &program,
                             const GlobalAnalysis &analysis,
                             DeviceSpec device, SchedulerMode mode,
                             ArtifactCache *cache,
                             std::string options_salt,
                             Fingerprint device_fp)
    : prog(program), analysis(analysis), deviceSpec(std::move(device)),
      mode(mode), cache(cache), salt(std::move(options_salt)),
      deviceFp(device_fp)
{
    // Hoisted: hashed once per scheduler (i.e. once per program),
    // never on the per-TE path — unless the caller already computed
    // it (the SchedulePass does, so repeated bucket compiles in one
    // pipeline reuse a single hash).
    if (cache != nullptr && !deviceFp.valid())
        deviceFp = deviceFingerprint(deviceSpec);
}

AutoScheduler::MemoShard &
AutoScheduler::shardFor(const std::string &signature)
{
    // std::hash is fine here: the shard choice affects only lock
    // contention, never which schedule a signature maps to.
    return memo[std::hash<std::string>{}(signature) % kMemoShards];
}

std::string
AutoScheduler::signatureOf(const TensorExpr &te) const
{
    // Built with plain appends (no ostringstream): this runs once per
    // TE per compile, which on fully-unrolled models is thousands of
    // times per scheduleAll.
    const TeInfo &info = analysis.teInfo(te.id);
    std::string sig;
    sig.reserve(64);
    sig += info.computeIntensive ? 'C' : 'M';
    sig += te.hasReduce() ? 'R' : 'E';
    sig += '|';
    for (size_t i = 0; i < te.outShape.size(); ++i) {
        if (i != 0)
            sig += 'x';
        sig += std::to_string(te.outShape[i]);
    }
    sig += "|r";
    for (size_t i = 0; i < te.reduceExtents.size(); ++i) {
        if (i != 0)
            sig += 'x';
        sig += std::to_string(te.reduceExtents[i]);
    }
    sig += '|';
    sig += dtypeName(prog.tensor(te.output).dtype);
    sig += "|o";
    sig += std::to_string(countUnitOps(te.body));
    sig += "|n";
    sig += std::to_string(te.body->numReads());
    // The search also reads the combiner (tensor-core eligibility),
    // the weighted FLOPs and the memory footprint. Keying on them
    // keeps the memo a function of every search input, so which TE of
    // a signature is searched first never shows in the result.
    sig += "|c";
    sig += std::to_string(static_cast<int>(te.combiner));
    sig += "|f";
    sig += std::to_string(info.flops);
    sig += "|b";
    sig += std::to_string(info.memFootprintBytes);
    return sig;
}

Schedule
AutoScheduler::schedule(int te_id)
{
    const TensorExpr &te = prog.te(te_id);
    const std::string sig = signatureOf(te);
    MemoShard &shard = shardFor(sig);
    std::unique_lock<std::mutex> lock(shard.mutex);
    for (;;) {
        auto it = shard.schedules.find(sig);
        if (it == shard.schedules.end())
            break; // no slot: this worker searches the signature
        if (it->second) {
            hits.fetch_add(1, std::memory_order_relaxed);
            Schedule sched = *it->second;
            sched.teId = te_id;
            return sched;
        }
        // Another worker is searching this signature (single-flight);
        // wait for its slot to fill, or to be erased if it threw. The
        // search never enters parallelFor, so it cannot wait on us.
        shard.ready.wait(lock);
    }
    shard.schedules.emplace(sig, std::nullopt);
    lock.unlock();

    Schedule sched;
    try {
        sched = search(te_id);
    } catch (...) {
        lock.lock();
        shard.schedules.erase(sig);
        shard.ready.notify_all();
        throw;
    }
    lock.lock();
    shard.schedules[sig] = sched;
    shard.ready.notify_all();
    return sched;
}

Schedule
AutoScheduler::search(int te_id)
{
    // Artifact cache, consulted only on intra-program memo misses.
    // The key covers every input of the search below — the TE's
    // structure, the device, and the mode/options salt — so a hit can
    // skip the search without changing its outcome.
    ArtifactKey key;
    if (cache != nullptr) {
        key.kind = "schedule";
        key.content = teFingerprint(prog, te_id);
        key.device = deviceFp;
        key.salt = salt;
        if (std::optional<std::string> payload = cache->get(key)) {
            artifactHits.fetch_add(1, std::memory_order_relaxed);
            Schedule sched = deserializeSchedule(*payload);
            sched.teId = te_id;
            return sched;
        }
        artifactMisses.fetch_add(1, std::memory_order_relaxed);
    }

    const TensorExpr &te = prog.te(te_id);
    const TeInfo &info = analysis.teInfo(te_id);
    Schedule sched;
    if (info.computeIntensive && te.hasReduce())
        sched = scheduleContraction(te, info);
    else if (te.hasReduce())
        sched = scheduleReduction(te, info);
    else
        sched = scheduleElementwise(te, info);
    sched.teId = te_id;
    if (cache != nullptr)
        cache->put(key, serializeSchedule(sched));
    return sched;
}

std::vector<Schedule>
AutoScheduler::scheduleAll()
{
    // Index-ordered fan-out: slot i always holds TE i's schedule, so
    // the result is byte-identical to the serial loop at any thread
    // count (see common/thread_pool.h for the determinism contract).
    std::vector<Schedule> result(
        static_cast<size_t>(prog.numTes()));
    parallelFor(prog.numTes(), [&](int64_t i) {
        result[static_cast<size_t>(i)] =
            schedule(static_cast<int>(i));
    });
    return result;
}

Schedule
AutoScheduler::scheduleContraction(const TensorExpr &te,
                                   const TeInfo &info)
{
    // View the output as an M x N matrix (N = last dim) contracted
    // over K = the reduction domain.
    const int64_t n = te.outShape.back();
    const int64_t m = std::max<int64_t>(1, te.outDomainSize() / n);
    const int64_t k = te.reduceDomainSize();
    const DType dtype = prog.tensor(te.output).dtype;
    const int64_t elem_bytes = dtypeBytes(dtype);
    const bool tc_eligible =
        dtype == DType::kFP16 && te.combiner == Combiner::kSum;

    static constexpr int64_t kTileChoices[] = {16, 32, 64, 128};
    static constexpr int64_t kKTileChoices[] = {8, 16, 32};

    // Evaluate one tile candidate; returns infinity time if infeasible.
    auto evaluate = [&](int64_t tm, int64_t tn, int64_t tk) {
        ++evaluated;
        Schedule cand;
        cand.estTimeUs = std::numeric_limits<double>::infinity();
        cand.tileM = tm;
        cand.tileN = tn;
        cand.tileK = tk;
        cand.threadsPerBlock = tm * tn >= 64 * 64 ? 256 : 128;
        cand.useTensorCore =
            tc_eligible && tm >= 16 && tn >= 16 && tk >= 8;
        // Double-buffered operand tiles + fp32 accumulators.
        cand.sharedMemBytes =
            2 * (tm * tk + tk * tn) * elem_bytes + tm * tn * 4;
        if (cand.sharedMemBytes > deviceSpec.sharedMemPerBlockLimit)
            return cand;
        cand.regsPerThread = static_cast<int64_t>(std::clamp<int64_t>(
            tm * tn / cand.threadsPerBlock + 32, 32, 255));
        const int64_t blocks_m = (m + tm - 1) / tm;
        const int64_t blocks_n = (n + tn - 1) / tn;
        const int64_t tiles = blocks_m * blocks_n;
        const int64_t wave = deviceSpec.maxBlocksPerWave(
            cand.sharedMemBytes, cand.regsPerBlock(),
            cand.threadsPerBlock);
        if (wave == 0)
            return cand; // block does not fit on an SM at all
        // Persistent tiles: never launch more blocks than one
        // cooperative wave — a resident block loops over several
        // output tiles instead. Large contractions (batched serving
        // graphs especially) thus stay grid-sync feasible and fusable
        // rather than forcing a kernel split at every matmul.
        cand.numBlocks = std::min(tiles, wave);

        // Tiled-contraction global traffic: each block tile streams
        // an M-tile and N-tile strip of the operands.
        const double traffic =
            static_cast<double>(m) * k * blocks_n * elem_bytes
            + static_cast<double>(n) * k * blocks_m * elem_bytes
            + static_cast<double>(m) * n * elem_bytes;
        const ComputePipe pipe = cand.useTensorCore
                                     ? ComputePipe::kTensorCore
                                     : ComputePipe::kFma;
        // Same under-parallelism model as the simulator: the
        // throughput terms scale with occupied SM fraction.
        const double util = std::min(
            1.0,
            static_cast<double>(cand.numBlocks) / deviceSpec.numSms);
        const double scale = 1.0 / std::max(util, 1.0 / 32.0);
        double time = std::max(
            deviceSpec.memLatencyUs
                + traffic / deviceSpec.globalBytesPerUs * scale,
            deviceSpec.computeTimeUs(static_cast<double>(info.flops),
                                     pipe)
                * scale);
        // Wave quantization: a partially-filled final round of tiles
        // still occupies the device for a full wave.
        const double waves = static_cast<double>(tiles) / wave;
        if (waves > 1.0)
            time *= std::ceil(waves) / waves;
        cand.estGlobalBytes = traffic;
        cand.estTimeUs = time;
        return cand;
    };

    if (mode == SchedulerMode::kRoller) {
        // Roller-style construction: take the largest hardware-aligned
        // tiles not exceeding the problem, stepping the reduction tile
        // (then the output tiles) down until the block fits. One (or
        // very few) candidates instead of a search.
        auto largest = [](int64_t dim, std::span<const int64_t> choices) {
            int64_t pick = choices[0];
            for (int64_t choice : choices) {
                if (choice <= std::max(dim, choices[0]))
                    pick = choice;
            }
            return pick;
        };
        int64_t tm = largest(m, kTileChoices);
        int64_t tn = largest(n, kTileChoices);
        int64_t tk = largest(k, kKTileChoices);
        Schedule cand = evaluate(tm, tn, tk);
        while (!std::isfinite(cand.estTimeUs)
               && (tk > 8 || tn > 16 || tm > 16)) {
            if (tk > 8)
                tk /= 2;
            else if (tn > 16)
                tn /= 2;
            else
                tm /= 2;
            cand = evaluate(tm, tn, tk);
        }
        SOUFFLE_CHECK(std::isfinite(cand.estTimeUs),
                      "no feasible roller schedule for TE " << te.name);
        return cand;
    }

    Schedule best;
    best.estTimeUs = std::numeric_limits<double>::infinity();
    for (int64_t tm : kTileChoices) {
        if (tm > m && tm != 16)
            continue;
        for (int64_t tn : kTileChoices) {
            if (tn > n && tn != 16)
                continue;
            for (int64_t tk : kKTileChoices) {
                if (tk > k && tk != 8)
                    continue;
                const Schedule cand = evaluate(tm, tn, tk);
                if (cand.estTimeUs < best.estTimeUs)
                    best = cand;
            }
        }
    }
    SOUFFLE_CHECK(std::isfinite(best.estTimeUs),
                  "no feasible schedule for TE " << te.name);
    return best;
}

Schedule
AutoScheduler::scheduleElementwise(const TensorExpr &te,
                                   const TeInfo &info)
{
    Schedule sched;
    sched.threadsPerBlock = 256;
    const int64_t elems = te.outDomainSize();
    const int64_t work_per_block = sched.threadsPerBlock * 4; // vec4
    const int64_t needed = (elems + work_per_block - 1) / work_per_block;
    const int64_t wave = deviceSpec.maxBlocksPerWave(
        0, sched.regsPerBlock(), sched.threadsPerBlock);
    sched.numBlocks = std::max<int64_t>(1, std::min(needed, wave));
    // Element-wise kernels use grid-stride loops: any block count is
    // functionally correct, so they never constrain cooperative waves.
    sched.gridStride = true;
    sched.estGlobalBytes = static_cast<double>(info.memFootprintBytes);
    sched.estTimeUs = std::max(
        deviceSpec.memTimeUs(sched.estGlobalBytes),
        deviceSpec.computeTimeUs(static_cast<double>(info.flops),
                                 ComputePipe::kAlu));
    ++evaluated;
    return sched;
}

Schedule
AutoScheduler::scheduleReduction(const TensorExpr &te, const TeInfo &info)
{
    Schedule sched;
    sched.threadsPerBlock = 256;
    sched.sharedMemBytes = sched.threadsPerBlock * 4; // tree reduction
    sched.tileK = std::min<int64_t>(te.reduceDomainSize(), 256);
    const int64_t rows = te.outDomainSize();
    const int64_t wave = deviceSpec.maxBlocksPerWave(
        sched.sharedMemBytes, sched.regsPerBlock(),
        sched.threadsPerBlock);
    sched.numBlocks = std::max<int64_t>(1, std::min(rows, wave));
    // Reductions reduce per-block and combine with atomics (the
    // two-phase scheme of Sec. 6.3), so any block count works.
    sched.gridStride = true;
    sched.estGlobalBytes = static_cast<double>(info.memFootprintBytes);
    sched.estTimeUs = std::max(
        deviceSpec.memTimeUs(sched.estGlobalBytes),
        deviceSpec.computeTimeUs(static_cast<double>(info.flops),
                                 ComputePipe::kAlu));
    ++evaluated;
    return sched;
}

} // namespace souffle
