#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

#include "common/faultplan.h"

namespace sofa {
namespace {

TEST(FaultPlan, EmptyPlanNeverFires)
{
    const FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    EXPECT_EQ(plan.at(0, "sads_topk", 0).action, FaultAction::None);
    EXPECT_EQ(plan.at(42, nullptr, 3).action, FaultAction::None);
    EXPECT_EQ(FaultPlan::parse("").ruleCount(), 0u);
    EXPECT_EQ(FaultPlan::parse(" ; ;").ruleCount(), 0u);
}

TEST(FaultPlan, FromEnvUnsetIsEmpty)
{
    unsetenv("SOFA_FAULTS_TEST_UNSET");
    EXPECT_TRUE(FaultPlan::fromEnv("SOFA_FAULTS_TEST_UNSET").empty());
    setenv("SOFA_FAULTS_TEST_EMPTY", "", 1);
    EXPECT_TRUE(FaultPlan::fromEnv("SOFA_FAULTS_TEST_EMPTY").empty());
    unsetenv("SOFA_FAULTS_TEST_EMPTY");
}

TEST(FaultPlan, FromEnvParsesTheVariable)
{
    setenv("SOFA_FAULTS_TEST_SET",
           "fail:req=3:stage=sads_topk;slow:ms=2.5", 1);
    const FaultPlan plan = FaultPlan::fromEnv("SOFA_FAULTS_TEST_SET");
    unsetenv("SOFA_FAULTS_TEST_SET");
    ASSERT_EQ(plan.ruleCount(), 2u);
    EXPECT_EQ(plan.at(3, "sads_topk", 0).action, FaultAction::Fail);
    const FaultDecision d = plan.at(7, "kv_generate", 0);
    EXPECT_EQ(d.action, FaultAction::Slow);
    EXPECT_DOUBLE_EQ(d.slowMs, 2.5);
}

TEST(FaultPlan, RequestAndStageMatching)
{
    const FaultPlan plan =
        FaultPlan::parse("fail:req=3:stage=sads_topk");
    EXPECT_EQ(plan.at(3, "sads_topk", 0).action, FaultAction::Fail);
    EXPECT_EQ(plan.at(3, "sads_topk", 5).action, FaultAction::Fail);
    EXPECT_EQ(plan.at(3, "dlzs_predict", 0).action,
              FaultAction::None);
    EXPECT_EQ(plan.at(4, "sads_topk", 0).action, FaultAction::None);
    // A stage-specific rule cannot match an unknown (null) stage.
    EXPECT_EQ(plan.at(3, nullptr, 0).action, FaultAction::None);

    const FaultPlan wild = FaultPlan::parse("fail:req=*:stage=*");
    EXPECT_EQ(wild.at(99, "quality", 7).action, FaultAction::Fail);
    EXPECT_EQ(wild.at(0, nullptr, 0).action, FaultAction::Fail);
}

TEST(FaultPlan, FirstMatchWins)
{
    const FaultPlan plan =
        FaultPlan::parse("slow:req=1:ms=7;fail:req=*");
    const FaultDecision d = plan.at(1, "sads_topk", 0);
    EXPECT_EQ(d.action, FaultAction::Slow);
    EXPECT_DOUBLE_EQ(d.slowMs, 7.0);
    EXPECT_EQ(plan.at(2, "sads_topk", 0).action, FaultAction::Fail);
}

TEST(FaultPlan, AttemptWindows)
{
    const FaultPlan eq = FaultPlan::parse("fail:attempt=1");
    EXPECT_EQ(eq.at(0, "sads_topk", 0).action, FaultAction::None);
    EXPECT_EQ(eq.at(0, "sads_topk", 1).action, FaultAction::Fail);
    EXPECT_EQ(eq.at(0, "sads_topk", 2).action, FaultAction::None);

    const FaultPlan below = FaultPlan::parse("fail:attempt<2");
    EXPECT_EQ(below.at(0, "sads_topk", 0).action, FaultAction::Fail);
    EXPECT_EQ(below.at(0, "sads_topk", 1).action, FaultAction::Fail);
    EXPECT_EQ(below.at(0, "sads_topk", 2).action, FaultAction::None);
}

TEST(FaultPlan, ProbabilisticRulesAreHashGatedAndDeterministic)
{
    const FaultPlan plan =
        FaultPlan::parse("fail:prob=0.25:seed=11");
    int fired = 0;
    const int n = 400;
    for (int id = 0; id < n; ++id) {
        const FaultDecision d = plan.at(
            static_cast<std::uint64_t>(id), "sads_topk", 0);
        if (d.action == FaultAction::Fail)
            ++fired;
        // Stateless: probing the same point again (any order, any
        // number of times) gives the identical decision.
        EXPECT_EQ(plan.at(static_cast<std::uint64_t>(id),
                          "sads_topk", 0)
                      .action,
                  d.action);
    }
    const double frac = static_cast<double>(fired) / n;
    EXPECT_GT(frac, 0.10);
    EXPECT_LT(frac, 0.40);

    // A different seed selects a different subset.
    const FaultPlan other =
        FaultPlan::parse("fail:prob=0.25:seed=12");
    int differs = 0;
    for (int id = 0; id < n; ++id)
        if (plan.at(static_cast<std::uint64_t>(id), "sads_topk", 0)
                .action !=
            other.at(static_cast<std::uint64_t>(id), "sads_topk", 0)
                .action)
            ++differs;
    EXPECT_GT(differs, 0);
}

TEST(FaultPlan, ParseErrors)
{
    EXPECT_THROW(FaultPlan::parse("explode"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("fail:ms=5"),
                 std::invalid_argument); // ms only on slow rules
    EXPECT_THROW(FaultPlan::parse("slow:ms=0"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("fail:prob=2"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("fail:prob=-0.5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("fail:attempt"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("fail:req=abc"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("fail:req=3x"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("fail:wat=1"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("fail:stage="),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("fail:prob<0.5"),
                 std::invalid_argument); // '<' is attempt-only
    EXPECT_THROW(FaultPlan::parse("fail:req=-1"),
                 std::invalid_argument); // would wrap to 2^64 - 1
    EXPECT_THROW(FaultPlan::parse("fail:seed=-5"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("slow:ms=inf"),
                 std::invalid_argument);
    EXPECT_THROW(FaultPlan::parse("slow:ms=1e308"),
                 std::invalid_argument); // above the 60 s cap
}

TEST(FaultPlan, DescribeRoundTrips)
{
    const std::string spec =
        "fail:req=3:stage=sads_topk:attempt<2;slow:req=*:stage=*"
        ":prob=0.1:seed=7:ms=5";
    const FaultPlan plan = FaultPlan::parse(spec);
    const std::string desc = plan.describe();
    EXPECT_NE(desc.find("fail:req=3:stage=sads_topk:attempt<2"),
              std::string::npos);
    EXPECT_NE(desc.find("slow:req=*:stage=*"), std::string::npos);
    EXPECT_NE(desc.find("ms=5"), std::string::npos);
    // The description parses back to an equivalent plan.
    const FaultPlan again = FaultPlan::parse(desc);
    EXPECT_EQ(again.ruleCount(), plan.ruleCount());
    EXPECT_EQ(again.at(3, "sads_topk", 1).action,
              plan.at(3, "sads_topk", 1).action);
    EXPECT_TRUE(FaultPlan{}.describe().find("empty") !=
                std::string::npos);
}

TEST(FaultPlan, HashUnitIntervalIsUniformishAndPure)
{
    double sum = 0.0;
    for (int i = 0; i < 1000; ++i) {
        const double u = hashUnitInterval(
            5, static_cast<std::uint64_t>(i), 3);
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
        EXPECT_DOUBLE_EQ(
            u, hashUnitInterval(5, static_cast<std::uint64_t>(i), 3));
    }
    EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

} // namespace
} // namespace sofa
