/**
 * @file
 * Pinned structure of the full-size zoo compiles.
 *
 * The global transforms (horizontal, vertical, megakernel task-graph
 * reduction) are rewritten for speed from time to time; their output
 * must not move. Each case compiles one full-size paper model and
 * checks the program hash, the transform pass counters and the
 * fingerprint of the serialized module (task graph included) against
 * constants captured at commit f5df355, before the transforms were
 * made to cost one rebuild per change. A mismatch means a transform
 * changed what it produces, not just how fast.
 */

#include <cstdint>
#include <ostream>
#include <string>

#include <gtest/gtest.h>

#include "common/hash.h"
#include "compiler/souffle.h"
#include "kernel/serialize.h"
#include "models/zoo.h"

namespace souffle {
namespace {

struct PinnedCompile
{
    const char *model;
    int level;
    const char *programHash;
    const char *moduleDigest;
    int64_t merged;
    int64_t rounds;
    int64_t groups;
    int64_t tesMerged;
    int64_t megakernelTasks;
    int64_t megakernelEdges;
    int64_t megakernelEdgesPruned;
};

void
PrintTo(const PinnedCompile &pin, std::ostream *os)
{
    *os << pin.model << " V" << pin.level;
}

class PinnedStructure : public ::testing::TestWithParam<PinnedCompile>
{
};

TEST_P(PinnedStructure, MatchesCapturedCompile)
{
    const PinnedCompile &pin = GetParam();
    SouffleOptions options;
    options.level = static_cast<SouffleLevel>(pin.level);
    const Compiled compiled =
        compileSouffle(buildPaperModel(pin.model), options);

    EXPECT_EQ(compiled.programHash.toHex(), pin.programHash);
    FingerprintHasher hasher;
    hasher.absorb(serializeCompiledModule(compiled.module));
    EXPECT_EQ(hasher.finish().toHex(), pin.moduleDigest);

    const PassStatistics &stats = compiled.passStats;
    EXPECT_EQ(stats.counterTotal("merged"), pin.merged);
    EXPECT_EQ(stats.counterTotal("rounds"), pin.rounds);
    EXPECT_EQ(stats.counterTotal("groups"), pin.groups);
    EXPECT_EQ(stats.counterTotal("tesMerged"), pin.tesMerged);
    EXPECT_EQ(stats.counterTotal("megakernelTasks"), pin.megakernelTasks);
    EXPECT_EQ(stats.counterTotal("megakernelEdges"), pin.megakernelEdges);
    EXPECT_EQ(stats.counterTotal("megakernelEdgesPruned"),
              pin.megakernelEdgesPruned);
}

INSTANTIATE_TEST_SUITE_P(
    FullZoo, PinnedStructure,
    ::testing::Values(
        PinnedCompile{"BERT", 4, "2310c3f664702acd5765f64c2fe7fd0f",
                      "8e4df117267bd94bd4d25ce42994bdae", 96, 4, 48, 96,
                      0, 0, 0},
        PinnedCompile{"ResNeXt", 4, "a5cd30b43eb53a5bfebc12d2546c881b",
                      "f3ab1c1b20f3a1c1e061dd0d4fcf96c1", 169, 3, 35,
                      2081, 0, 0, 0},
        PinnedCompile{"LSTM", 4, "579428bc9b9ae5d6afc23b1fd3abe556",
                      "306a85295188c64272656d11c4732dfc", 2026, 11, 972,
                      16018, 0, 0, 0},
        PinnedCompile{"EfficientNet", 4,
                      "b001ac177963924e08caa5dca379f7aa",
                      "b321e75f30e07341e40f6cb297fcede3", 59, 2, 0, 0, 0,
                      0, 0},
        PinnedCompile{"SwinTransformer", 4,
                      "4e3911d446124aaae8ec17e1a9d87788",
                      "a71a09ed8b861cab0042374e457fcc36", 274, 4, 96, 192,
                      0, 0, 0},
        PinnedCompile{"MMoE", 4, "7d79b328ab5abdfaca6bac1a6f09bdb7",
                      "a63d079aaa009b012e85ca971408ba6e", 7, 4, 16, 34, 0,
                      0, 0},
        PinnedCompile{"LSTM", 5, "579428bc9b9ae5d6afc23b1fd3abe556",
                      "23ab1ac3953815d4643caad8bb3ca154", 2026, 11, 972,
                      16018, 748, 747, 216363},
        PinnedCompile{"SwinTransformer", 5,
                      "4e3911d446124aaae8ec17e1a9d87788",
                      "e7b8ac3519c99aaceac80b6ac9cc46bd", 274, 4, 96, 192,
                      584, 583, 152857}),
    [](const ::testing::TestParamInfo<PinnedCompile> &info) {
        return std::string(info.param.model) + "_V"
               + std::to_string(info.param.level);
    });

} // namespace
} // namespace souffle
