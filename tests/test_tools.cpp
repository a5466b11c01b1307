// Tests for the tooling layer: DOT export, certification reports and
// valence classification.

#include <gtest/gtest.h>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "algo/quorum_leader_kset.hpp"
#include "core/report.hpp"
#include "core/theorem10.hpp"
#include "core/theorem2.hpp"
#include "core/theorem8.hpp"
#include "core/valence.hpp"
#include "graph/dot.hpp"
#include "graph/generators.hpp"
#include "graph/scc.hpp"
#include "sim/dot_export.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"

namespace ksa {
namespace {

// --------------------------------------------------------------- DOT export

TEST(DotExport, RunDiagramContainsLanesArrowsAndDecisions) {
    algo::FloodingKSet algorithm(2);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, rr);
    std::string dot = run_to_dot(run);
    EXPECT_NE(dot.find("digraph run"), std::string::npos);
    EXPECT_NE(dot.find("p1_0"), std::string::npos);       // lane anchor
    EXPECT_NE(dot.find("VAL(1,1)"), std::string::npos);   // message label
    EXPECT_NE(dot.find("palegreen"), std::string::npos);  // decision fill
}

TEST(DotExport, CrashIsHighlighted) {
    algo::FloodingKSet algorithm(2);
    FailurePlan plan;
    plan.set_crash(1, CrashSpec{1, {}});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, rr);
    EXPECT_NE(run_to_dot(run).find("lightcoral"), std::string::npos);
}

TEST(DotExport, OptionsAreRespected) {
    algo::FloodingKSet algorithm(2);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, rr);
    DotOptions quiet;
    quiet.show_payloads = false;
    EXPECT_EQ(run_to_dot(run, quiet).find("VAL(1,1)"), std::string::npos);
    DotOptions digesty;
    digesty.show_digests = true;
    EXPECT_NE(run_to_dot(run, digesty).find("FL(p1"), std::string::npos);
}

TEST(DotExport, DigraphWithHighlight) {
    graph::Digraph g = graph::random_min_indegree(6, 2, 3);
    auto sources = graph::source_components(g);
    ASSERT_FALSE(sources.empty());
    std::string dot = graph::digraph_to_dot(g, sources.front());
    EXPECT_NE(dot.find("digraph g"), std::string::npos);
    EXPECT_NE(dot.find("gold"), std::string::npos);
}

// ------------------------------------------------------------------ reports

TEST(Reports, Theorem2ReportIsComplete) {
    algo::FloodingKSet candidate(2);
    core::Theorem2Result result = core::run_theorem2(candidate, 5, 3, 2);
    std::string report = core::render_report(result);
    EXPECT_NE(report.find("Theorem 2 at (n, f, k) = (5, 3, 2)"),
              std::string::npos);
    EXPECT_NE(report.find("condition (A)"), std::string::npos);
    EXPECT_NE(report.find("witnessed"), std::string::npos);
    EXPECT_NE(report.find("| p1 |"), std::string::npos);
    EXPECT_EQ(report.find("FAILED"), std::string::npos);
}

TEST(Reports, Theorem8BorderReport) {
    auto algorithm = algo::make_flp_kset(6, 4);
    core::Theorem8Border border = core::theorem8_border(*algorithm, 6, 2);
    std::string report = core::render_report(border);
    EXPECT_NE(report.find("3 groups pasted"), std::string::npos);
    EXPECT_NE(report.find("verified per Definition 2"), std::string::npos);
}

TEST(Reports, Theorem10ReportMentionsLemma9) {
    algo::QuorumLeaderKSet candidate;
    core::Theorem10Result result = core::run_theorem10(candidate, 5, 2);
    std::string report = core::render_report(result);
    EXPECT_NE(report.find("Lemma 9"), std::string::npos);
    EXPECT_EQ(report.find("INVALID"), std::string::npos);
}

// ------------------------------------------------------------------ valence

TEST(Valence, TrivialAlgorithmIsAlwaysUnivalentPerProcess) {
    algo::TrivialWaitFree algorithm;
    core::ValenceResult v = core::classify_valence(
        algorithm, 2, {0, 1}, core::one_crash_plans(2), 6);
    // Both 0 and 1 get decided (by their owners) -- but as a *set
    // agreement* outcome, not consensus; valence over decisions is {0,1}.
    EXPECT_TRUE(v.exhaustive);
    EXPECT_EQ(v.reachable, (std::set<Value>{0, 1}));
}

TEST(Valence, MixedInputsAreBivalentForBothCandidates) {
    // FLP Lemma 2, executable: mixed binary inputs are bivalent (the
    // adversary's crash choice steers the decision) -- for the flawed
    // flooding candidate AND for the correct initial-crash protocol.
    algo::FloodingKSet flooding(2);  // n=3, f=1
    core::BivalenceSweep fl = core::binary_input_sweep(
        flooding, 3, core::one_crash_plans(3), 10);
    EXPECT_TRUE(fl.exhaustive) << fl.summary();
    EXPECT_GT(fl.bivalent, 0) << fl.summary();
    // All-equal inputs are univalent by validity.
    EXPECT_FALSE(fl.rows.front().second.bivalent());  // (0,0,0)
    EXPECT_FALSE(fl.rows.back().second.bivalent());   // (1,1,1)

    auto flp = algo::make_flp_kset(3, 1);
    core::BivalenceSweep ok = core::binary_input_sweep(
        *flp, 3, core::one_crash_plans(3), 12);
    EXPECT_GT(ok.bivalent, 0) << ok.summary();
}

TEST(Valence, TheDichotomyIsViolationsNotBivalence) {
    // What separates the correct protocol from the flawed candidate is
    // not bivalence but reachable violations: per plan, every quiescent
    // outcome of the FLP protocol is internally consistent, while
    // flooding reaches outcomes with two decided values in one run.
    auto flp = algo::make_flp_kset(3, 1);
    algo::FloodingKSet flooding(2);
    for (const FailurePlan& plan : core::one_crash_plans(3)) {
        core::ExploreConfig cfg;
        cfg.reduction = core::ReductionOptions::none();
        cfg.n = 3;
        cfg.inputs = {0, 1, 1};
        cfg.plan = plan;
        cfg.k = 1;
        cfg.max_depth = 12;
        core::ExploreResult good = core::explore_schedules(*flp, cfg);
        EXPECT_FALSE(good.violation_found) << good.summary();
        EXPECT_TRUE(good.exhaustive);
    }
    core::ExploreConfig cfg;
    cfg.reduction = core::ReductionOptions::none();
    cfg.n = 3;
    cfg.inputs = {0, 1, 1};
    cfg.k = 1;
    cfg.max_depth = 12;
    core::ExploreResult bad = core::explore_schedules(flooding, cfg);
    EXPECT_TRUE(bad.violation_found) << bad.summary();
}

TEST(Valence, PlanFamilyGenerator) {
    auto plans = core::one_crash_plans(4);
    EXPECT_EQ(plans.size(), 5u);
    EXPECT_EQ(plans[0].num_faulty(), 0);
    EXPECT_TRUE(plans[3].is_initially_dead(3));
}

}  // namespace
}  // namespace ksa
