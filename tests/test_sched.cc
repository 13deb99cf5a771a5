/**
 * @file
 * Scheduler tests: policy parsing, cost-model monotonicity and EWMA
 * refinement, the policy-ordered PendingQueue (FIFO/SJF plus urgent
 * drain) and fair-share starvation-freedom under a flooding client.
 * That every policy's responses are bit-identical to the in-process
 * run is pinned where policies order work, at the fleet dispatcher
 * (test_dispatch.cc).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "api/endpoint.h"
#include "sched/cost.h"
#include "sched/policy.h"

namespace gpuperf {
namespace {

// --- Policy parsing ---------------------------------------------------

TEST(SchedPolicy, ParsesEveryCanonicalSpelling)
{
    using sched::SchedPolicy;
    const SchedPolicy all[] = {
        SchedPolicy::kFifo, SchedPolicy::kSjf, SchedPolicy::kFairShare};
    for (SchedPolicy p : all) {
        SchedPolicy parsed = SchedPolicy::kFifo;
        EXPECT_TRUE(
            sched::parseSchedPolicy(sched::schedPolicyName(p), &parsed));
        EXPECT_EQ(parsed, p);
    }
    SchedPolicy parsed = SchedPolicy::kFifo;
    EXPECT_FALSE(sched::parseSchedPolicy("round-robin", &parsed));
    EXPECT_FALSE(sched::parseSchedPolicy("biggest-first", &parsed));
    EXPECT_FALSE(sched::parseSchedPolicy("", &parsed));
}

TEST(SchedPolicy, EndpointRejectsAnUnknownPolicyNamingTheValidOnes)
{
    try {
        api::Endpoint::parse("inproc:?sched=biggest-first");
        FAIL() << "biggest-first must not parse";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "option 'sched' must be fifo, sjf or fair-share"),
                  std::string::npos)
            << e.what();
    }
}

// --- Cost model -------------------------------------------------------

TEST(CostModel, StaticUnitsAreMonotoneInEveryFeature)
{
    sched::CostFeatures base;
    base.warpOps = 100;
    base.warps = 8;
    const double u0 = sched::CostModel::staticUnits(base);
    EXPECT_GE(u0, 1.0); // floor: nothing predicts "free"

    sched::CostFeatures moreOps = base;
    moreOps.warpOps = 1000;
    EXPECT_GT(sched::CostModel::staticUnits(moreOps), u0);

    sched::CostFeatures moreWarps = base;
    moreWarps.warps = 64;
    EXPECT_GT(sched::CostModel::staticUnits(moreWarps), u0);

    // An unobserved key's estimate inherits the monotonicity.
    sched::CostModel model;
    EXPECT_GT(model.estimate("unobserved", moreOps),
              model.estimate("unobserved", base));
    EXPECT_GT(model.estimate("unobserved", moreWarps),
              model.estimate("unobserved", base));
}

TEST(CostModel, ObservationsRefineTheEstimate)
{
    sched::CostModel model;
    sched::CostFeatures f;
    f.warpOps = 50;
    f.warps = 4;

    // Unobserved: the static fallback at the default scale.
    EXPECT_DOUBLE_EQ(model.estimate("k", f),
                     sched::CostModel::staticUnits(f) *
                         sched::CostModel::kDefaultMsPerUnit);

    // First observation replaces the estimate outright (EWMA with no
    // history IS the sample) ...
    model.observe("k", f, 40.0);
    EXPECT_DOUBLE_EQ(model.estimate("k", f), 40.0);

    // ... and later samples move it smoothly toward the new level.
    model.observe("k", f, 80.0);
    const double e = model.estimate("k", f);
    EXPECT_GT(e, 40.0);
    EXPECT_LT(e, 80.0);
    EXPECT_NEAR(e, 0.3 * 80.0 + 0.7 * 40.0, 1e-12);

    // Other keys keep the static fallback, whose ms-per-unit factor
    // the same two samples refined: with equal features it lands on
    // the same EWMA.
    EXPECT_NEAR(model.estimate("other", f), e, 1e-9);

    // Prediction-error accounting saw both observations.
    EXPECT_EQ(model.predictionSamples(), 2u);
    EXPECT_GT(model.predictionErrorAbsSum(), 0.0);
}

TEST(CostModel, EwmaMergeFirstSampleWinsThenSmooths)
{
    EXPECT_DOUBLE_EQ(sched::CostModel::ewmaMerge(0.0, 0, 50.0), 50.0);
    EXPECT_NEAR(sched::CostModel::ewmaMerge(50.0, 1, 100.0),
                0.3 * 100.0 + 0.7 * 50.0, 1e-12);
}

// --- PendingQueue policy ordering -------------------------------------

std::vector<int>
popAll(sched::PendingQueue<int> &q)
{
    std::vector<int> order;
    while (!q.empty())
        order.push_back(q.pop());
    return order;
}

TEST(PendingQueue, FifoPopsInArrivalOrderRegardlessOfCost)
{
    sched::PendingQueue<int> q(sched::SchedPolicy::kFifo);
    q.push(1, 5.0);
    q.push(2, 1.0);
    q.push(3, 3.0);
    EXPECT_EQ(popAll(q), (std::vector<int>{1, 2, 3}));
}

TEST(PendingQueue, SjfPopsCheapestFirstWithFifoTieBreak)
{
    sched::PendingQueue<int> q(sched::SchedPolicy::kSjf);
    q.push(1, 5.0);
    q.push(2, 1.0);
    q.push(3, 3.0);
    q.push(4, 1.0); // same cost as 2 — arrival order breaks the tie
    EXPECT_EQ(popAll(q), (std::vector<int>{2, 4, 3, 1}));
}

TEST(PendingQueue, UrgentEntriesDrainFirstUnderEveryPolicy)
{
    for (sched::SchedPolicy p :
         {sched::SchedPolicy::kFifo, sched::SchedPolicy::kSjf,
          sched::SchedPolicy::kFairShare}) {
        sched::PendingQueue<int> q(p);
        q.push(1, 0.5);
        q.pushUrgent(90);
        q.pushUrgent(91);
        EXPECT_EQ(q.pop(), 90) << sched::schedPolicyName(p);
        EXPECT_EQ(q.pop(), 91) << sched::schedPolicyName(p);
        EXPECT_EQ(q.pop(), 1) << sched::schedPolicyName(p);
    }
}

TEST(PendingQueue, EraseRemovesFromUrgentAndPolicyEntries)
{
    sched::PendingQueue<int> q(sched::SchedPolicy::kSjf);
    q.push(1, 1.0);
    q.push(2, 2.0);
    q.pushUrgent(3);
    EXPECT_TRUE(q.erase(3));
    EXPECT_TRUE(q.erase(1));
    EXPECT_FALSE(q.erase(42));
    EXPECT_EQ(q.pop(), 2);
    EXPECT_TRUE(q.empty());
}

TEST(PendingQueue, FairShareNeverStarvesTheTricklingClient)
{
    // Client A floods 60 expensive items; client B trickles 3 cheap
    // ones in AFTER the flood is queued. Under FIFO B would wait out
    // all 60; fair share must serve B's entire trickle within a few
    // pops, and A must keep making progress too.
    sched::PendingQueue<int> q(sched::SchedPolicy::kFairShare);
    for (int i = 0; i < 60; ++i)
        q.push(1000 + i, 10.0, "A");
    for (int i = 0; i < 3; ++i)
        q.push(2000 + i, 1.0, "B");

    std::vector<int> first(8);
    for (int i = 0; i < 8; ++i)
        first[i] = q.pop();

    size_t b_served = 0, a_served = 0;
    for (int item : first)
        (item >= 2000 ? b_served : a_served) += 1;
    EXPECT_EQ(b_served, 3u)
        << "flooded client starved the trickler";
    EXPECT_GE(a_served, 1u) << "flooding client starved entirely";

    // Accounting matches what happened.
    bool sawA = false, sawB = false;
    for (const sched::ClientShare &s : q.shares()) {
        if (s.client == "A") {
            sawA = true;
            EXPECT_EQ(s.popped, a_served);
        }
        if (s.client == "B") {
            sawB = true;
            EXPECT_EQ(s.popped, 3u);
            EXPECT_EQ(s.queued, 0u);
        }
    }
    EXPECT_TRUE(sawA);
    EXPECT_TRUE(sawB);
}

} // namespace
} // namespace gpuperf
