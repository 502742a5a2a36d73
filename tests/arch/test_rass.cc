#include <gtest/gtest.h>

#include <set>

#include "arch/rass.h"
#include "core/sads.h"
#include "model/workload.h"
#include "testutil.h"

namespace sofa {
namespace {

/** The Fig. 15 example: 4 queries over 8 keys. */
SelectionList
paperExample()
{
    return {
        {0, 1, 2, 3, 4, 5}, // q0
        {2, 3, 4, 5, 6, 7}, // q1
        {2, 3, 5, 6},       // q2
        {0, 1, 4, 7},       // q3
    };
}

TEST(Rass, PaperExampleReducesTraffic)
{
    auto sel = paperExample();
    auto naive = scheduleNaive(sel, 4);
    auto rass = scheduleRass(sel, 4);
    EXPECT_LT(rass.vectorLoads, naive.vectorLoads);
    // RASS reaches the floor on this example: 8 distinct keys.
    EXPECT_EQ(rass.vectorLoads, 2 * distinctKeyLoads(sel));
}

TEST(Rass, AllQueriesServed)
{
    auto sel = paperExample();
    auto rass = scheduleRass(sel, 4);
    std::set<int> loaded;
    for (const auto &phase : rass.phaseKeys)
        loaded.insert(phase.begin(), phase.end());
    for (const auto &s : sel)
        for (int key : s)
            EXPECT_TRUE(loaded.count(key)) << "key " << key;
}

TEST(Rass, PhasesRespectBufferCapacity)
{
    auto sel = paperExample();
    for (int cap : {1, 2, 4, 8}) {
        auto rass = scheduleRass(sel, cap);
        for (const auto &phase : rass.phaseKeys)
            EXPECT_LE(static_cast<int>(phase.size()), cap);
    }
}

TEST(Rass, NeverBelowDistinctFloor)
{
    Rng rng(3);
    for (int trial = 0; trial < 10; ++trial) {
        SelectionList sel(8);
        for (auto &s : sel) {
            const int n = static_cast<int>(rng.uniformInt(4, 20));
            std::set<int> keys;
            while (static_cast<int>(keys.size()) < n)
                keys.insert(
                    static_cast<int>(rng.uniformInt(0, 63)));
            s.assign(keys.begin(), keys.end());
        }
        auto rass = scheduleRass(sel, 8);
        auto naive = scheduleNaive(sel, 8);
        EXPECT_GE(rass.vectorLoads, 2 * distinctKeyLoads(sel));
        EXPECT_GE(naive.vectorLoads, 2 * distinctKeyLoads(sel));
        EXPECT_LE(rass.vectorLoads, naive.vectorLoads);
    }
}

TEST(Rass, RealisticSelectionsSaveMemory)
{
    // Selections from a real SADS run over overlapping top-k rows:
    // RASS should save a Fig. 20-scale fraction vs naive.
    WorkloadSpec spec;
    spec.seq = 512;
    spec.queries = 64;
    spec.mixture = {0.25, 0.75, 0.0};
    auto w = generateWorkload(spec);
    auto sads = sadsTopK(exactScores(w), 64, {});
    auto sel = sads.selections();

    auto naive = scheduleNaive(sel, 64);
    auto rass = scheduleRass(sel, 64);
    const double reduction =
        1.0 - static_cast<double>(rass.vectorLoads) /
                  static_cast<double>(naive.vectorLoads);
    EXPECT_GT(reduction, 0.10);
}

TEST(Rass, IdenticalSelectionsCollapse)
{
    // All queries want the same keys: RASS loads them once.
    SelectionList sel(16, Selection{1, 2, 3, 4});
    auto rass = scheduleRass(sel, 4);
    EXPECT_EQ(rass.vectorLoads, 8);
    EXPECT_EQ(rass.phases, 1);
}

TEST(Rass, DisjointSelectionsNoSavings)
{
    SelectionList sel = {{0, 1}, {2, 3}, {4, 5}};
    auto rass = scheduleRass(sel, 2);
    auto naive = scheduleNaive(sel, 2);
    EXPECT_EQ(rass.vectorLoads, 12);
    // With disjoint needs naive is also at the floor.
    EXPECT_EQ(naive.vectorLoads, 12);
}

TEST(Rass, EmptySelections)
{
    SelectionList sel(4);
    auto rass = scheduleRass(sel, 4);
    EXPECT_EQ(rass.vectorLoads, 0);
    EXPECT_EQ(rass.phases, 0);
    auto naive = scheduleNaive(sel, 4);
    EXPECT_EQ(naive.vectorLoads, 0);
}

TEST(Naive, SmallBufferThrashes)
{
    // Shrinking the buffer increases naive refetches.
    auto w = testutil::makeWorkload(256, 32, /*headDim=*/64,
                                    /*tokenDim=*/128);
    auto sads = sadsTopK(exactScores(w), 64, {});
    auto sel = sads.selections();
    auto big = scheduleNaive(sel, 256);
    auto small = scheduleNaive(sel, 4);
    EXPECT_GE(small.vectorLoads, big.vectorLoads);
}

TEST(ScheduleResult, BytesHelper)
{
    ScheduleResult r;
    r.vectorLoads = 10;
    EXPECT_DOUBLE_EQ(r.bytes(128.0), 1280.0);
}

} // namespace
} // namespace sofa
