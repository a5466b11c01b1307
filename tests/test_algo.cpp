// Unit tests for the protocol implementations under benign and
// adversarial schedules.

#include <gtest/gtest.h>

#include <random>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "algo/paxos_consensus.hpp"
#include "algo/quorum_leader_kset.hpp"
#include "algo/ranked_set_agreement.hpp"
#include "core/kset_spec.hpp"
#include "fd/sources.hpp"
#include "graph/clique.hpp"
#include "graph/digraph.hpp"
#include "graph/scc.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace ksa {
namespace {

// ------------------------------------------------------ FLP initial clique

TEST(InitialClique, ConsensusWithoutCrashes) {
    auto algorithm = algo::make_flp_consensus(5);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(*algorithm, 5, distinct_inputs(5), {}, rr);
    core::expect_kset_agreement(run, 1);
    EXPECT_EQ(run.distinct_decisions().size(), 1u);
}

TEST(InitialClique, ConsensusWithInitialCrashes) {
    // n=5: L = 3, tolerates f = 2 initial crashes.
    auto algorithm = algo::make_flp_consensus(5);
    FailurePlan plan;
    plan.set_initially_dead({2, 4});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(*algorithm, 5, distinct_inputs(5), plan, rr);
    core::expect_kset_agreement(run, 1);
}

TEST(InitialClique, ConsensusUnderRandomSchedules) {
    auto algorithm = algo::make_flp_consensus(7);
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
        FailurePlan plan;
        plan.set_initially_dead({static_cast<ProcessId>(1 + seed % 7)});
        RandomScheduler sched(seed);
        ksa::Run run = execute_run(*algorithm, 7, distinct_inputs(7), plan,
                                   sched);
        core::expect_kset_agreement(run, 1);
    }
}

TEST(InitialClique, KSetWithManyInitialCrashes) {
    // n=6, f=4: L=2, solvable for k with k*6 > (k+1)*4, i.e. k >= 3.
    auto algorithm = algo::make_flp_kset(6, 4);
    FailurePlan plan;
    plan.set_initially_dead({1, 3, 5, 6});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(*algorithm, 6, distinct_inputs(6), plan, rr);
    core::expect_kset_agreement(run, 3);
}

TEST(InitialClique, DecisionCountBoundedBySourceComponents) {
    // n=9, L=3 => at most floor(9/3)=3 distinct decisions, whatever the
    // (crash-free) schedule does.
    algo::InitialCliqueKSet algorithm(3);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RandomScheduler sched(seed);
        ksa::Run run = execute_run(algorithm, 9, distinct_inputs(9), {}, sched);
        EXPECT_TRUE(run.all_correct_decided());
        EXPECT_LE(run.distinct_decisions().size(), 3u) << run_summary(run);
    }
}

TEST(InitialClique, PartitionedRunRealizesTheBound) {
    // Three isolated triples, L=3: each triple forms its own source
    // component and decides its own minimum.
    algo::InitialCliqueKSet algorithm(3);
    PartitionScheduler sched({{1, 2, 3}, {4, 5, 6}, {7, 8, 9}});
    ksa::Run run = execute_run(algorithm, 9, distinct_inputs(9), {}, sched);
    EXPECT_TRUE(sched.stalled_blocks().empty());
    EXPECT_EQ(run.distinct_decisions(), (std::set<Value>{1, 4, 7}));
}

TEST(InitialClique, ValidatesThresholdRange) {
    algo::InitialCliqueKSet algorithm(9);
    EXPECT_THROW(algorithm.make_behavior(1, 5, 1), UsageError);
    EXPECT_THROW(algo::make_flp_kset(5, 5), UsageError);
}

TEST(InitialClique, NotLiveUnderMidRunCrash) {
    // The protocol only tolerates *initial* crashes: a process crashing
    // after its stage-1 broadcast can leave others waiting forever for
    // its stage-2 message -- exactly the gap Theorem 2 proves essential.
    auto algorithm = algo::make_flp_consensus(5);  // L=3
    FailurePlan plan;
    plan.set_crash(1, CrashSpec{1, {}});  // dies after stage-1 broadcast
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(*algorithm, 5, distinct_inputs(5), plan, rr,
                               nullptr, {.max_steps = 2000});
    EXPECT_EQ(run.stop, StopReason::kStepLimit);
    EXPECT_FALSE(run.all_correct_decided());
}

// The decision rule computed through the graph library: the heard-from
// graph over all n ids, the subgraph induced by the participants, its
// source components and one reachability pass per source.  This is the
// oracle for the mask-based algo::initial_clique_decision.
Value graph_rule_decision(int n, ProcessId self, Value input,
                          const std::vector<int>& heard,
                          const algo::InitialCliqueReports& known) {
    std::vector<int> participants{self - 1};
    for (const auto& [q, _] : known)
        algo::insert_sorted_unique(participants, q - 1);

    graph::Digraph g(n);
    for (int u : heard) g.add_edge(u - 1, self - 1);
    for (const auto& [q, info] : known)
        for (int u : info.second)
            if (u != q) g.add_edge(u - 1, q - 1);

    std::vector<int> labels;
    graph::Digraph sub = g.induced(participants, &labels);
    const auto self_local = static_cast<int>(
            std::find(labels.begin(), labels.end(), self - 1) -
            labels.begin());
    int best_member = -1;
    for (const auto& sc : graph::source_components(sub)) {
        auto reach = graph::reachable_from(sub, sc);
        if (!std::binary_search(reach.begin(), reach.end(), self_local))
            continue;
        const int member = labels[sc.front()];
        if (best_member == -1 || member < best_member) best_member = member;
    }
    const ProcessId rep = best_member + 1;
    return rep == self ? input : known.at(rep).first;
}

/// Proposal of process q in the rule tests: distinct per id, so the
/// decided value names the representative.
Value proposal_of(ProcessId q) { return 100 + q; }

/// The ids 1..n in `mask` (bit q-1 for process q), ascending.
std::vector<int> ids_in(std::uint32_t mask, int n) {
    std::vector<int> out;
    for (int q = 1; q <= n; ++q)
        if ((mask >> (q - 1)) & 1) out.push_back(q);
    return out;
}

void expect_rule_matches_oracle(int n, ProcessId self,
                                const std::vector<int>& heard,
                                const algo::InitialCliqueReports& known) {
    const Value input = proposal_of(self);
    EXPECT_EQ(algo::initial_clique_decision(n, self, input, heard, known),
              graph_rule_decision(n, self, input, heard, known))
            << "n=" << n << " self=" << self;
}

// Every heard-from configuration for n <= 4: each self, each heard set
// of other ids, and each process other than self either silent or
// reporting any subset of 1..n -- lists naming the receiver, the
// reporter itself or silent (non-participant) processes included, as a
// Byzantine sender may forge them.
TEST(InitialCliqueRule, MatchesGraphOracleExhaustivelyUpToN4) {
    for (int n = 1; n <= 4; ++n) {
        const std::uint32_t all = (1u << n) - 1;
        const auto options = static_cast<std::uint32_t>(all + 2);
        for (ProcessId self = 1; self <= n; ++self) {
            const std::uint32_t others = all & ~(1u << (self - 1));
            std::vector<ProcessId> reporters = ids_in(others, n);
            std::uint64_t combos = 1;
            for (std::size_t i = 0; i < reporters.size(); ++i)
                combos *= options;
            for (std::uint32_t h = 0; h <= all; ++h) {
                if ((h & others) != h) continue;
                const std::vector<int> heard = ids_in(h, n);
                for (std::uint64_t c = 0; c < combos; ++c) {
                    // Digit i of c: 0 = reporter i silent, d > 0 = it
                    // reports the list with mask d-1.
                    algo::InitialCliqueReports known;
                    std::uint64_t digits = c;
                    for (ProcessId q : reporters) {
                        const auto d = static_cast<std::uint32_t>(
                                digits % options);
                        digits /= options;
                        if (d > 0) known[q] = {proposal_of(q), ids_in(d - 1, n)};
                    }
                    expect_rule_matches_oracle(n, self, heard, known);
                }
            }
        }
    }
}

// Seeded random configurations for 5 <= n <= 8, same shapes.
TEST(InitialCliqueRule, MatchesGraphOracleOnRandomConfigurationsUpToN8) {
    std::mt19937_64 rng(20110606);
    for (int n = 5; n <= 8; ++n) {
        const std::uint32_t all = (1u << n) - 1;
        for (int trial = 0; trial < 4000; ++trial) {
            const auto self = static_cast<ProcessId>(1 + rng() % n);
            const std::uint32_t others = all & ~(1u << (self - 1));
            const std::vector<int> heard =
                    ids_in(static_cast<std::uint32_t>(rng()) & others, n);
            algo::InitialCliqueReports known;
            for (ProcessId q : ids_in(others, n))
                if (rng() % 3 != 0)
                    known[q] = {proposal_of(q),
                                ids_in(static_cast<std::uint32_t>(rng()) & all,
                                       n)};
            expect_rule_matches_oracle(n, self, heard, known);
        }
    }
}

TEST(InitialCliqueRule, RejectsIdsOutOfRange) {
    algo::InitialCliqueReports known;
    EXPECT_THROW(algo::initial_clique_decision(4, 1, 1, {5}, known),
                 UsageError);
    EXPECT_THROW(algo::initial_clique_decision(4, 1, 1, {1}, known),
                 UsageError);
    known[2] = {2, {0}};
    EXPECT_THROW(algo::initial_clique_decision(4, 1, 1, {}, known),
                 UsageError);
}

TEST(InitialClique, RejectsMoreProcessesThanTheMaskWidth) {
    algo::InitialCliqueKSet algorithm(3);
    EXPECT_NO_THROW(algorithm.make_behavior(1, algo::kInitialCliqueMaxN, 1));
    EXPECT_THROW(algorithm.make_behavior(1, algo::kInitialCliqueMaxN + 1, 1),
                 UsageError);
}

// ---------------------------------------------------------------- flooding

TEST(Flooding, DecidesMinimumUnderFairSchedule) {
    algo::FloodingKSet algorithm(4);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, {7, 3, 9, 5}, {}, rr);
    for (ProcessId p = 1; p <= 4; ++p) EXPECT_EQ(*run.decision_of(p), 3);
}

TEST(Flooding, SolvesFPlus1SetAgreement) {
    // threshold n-f with f = 2: never more than f+1 = 3 distinct values.
    const int n = 6, f = 2;
    auto algorithm = algo::make_flooding(n, f);
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        RandomScheduler sched(seed);
        ksa::Run run = execute_run(*algorithm, n, distinct_inputs(n), {}, sched);
        auto check = core::check_kset_agreement(run, f + 1);
        EXPECT_TRUE(check.ok()) << run_summary(run);
    }
}

TEST(Flooding, FPlus1IsTight) {
    // A staged schedule realizing exactly f+1 distinct decisions: member
    // p_i hears the window {p_i..p_{i+n-f-1}}.
    const int n = 4, f = 2;
    auto algorithm = algo::make_flooding(n, f);  // threshold 2
    StagedScheduler::Stage stage;
    stage.active = {1, 2, 3, 4};
    stage.filter = [](const Message& m, ProcessId dest) {
        return m.from == dest % 4 + 1;  // hear only your cyclic successor
    };
    StagedScheduler sched({stage});
    ksa::Run run = execute_run(*algorithm, n, distinct_inputs(n), {}, sched);
    // p1 sees {1,2}->1, p2 sees {2,3}->2, p3 sees {3,4}->3, p4 {4,1}->1.
    EXPECT_EQ(run.distinct_decisions(), (std::set<Value>{1, 2, 3}));
    EXPECT_EQ(run.distinct_decisions().size(),
              static_cast<std::size_t>(f + 1));
}

// ------------------------------------------------------------------- Paxos

std::unique_ptr<FdOracle> benign_oracle(int n, const FailurePlan& plan) {
    ProcessId leader = 0;
    for (ProcessId p = 1; p <= n && leader == 0; ++p)
        if (!plan.is_faulty(p)) leader = p;
    return fd::make_benign_sigma_omega(n, plan, {leader});
}

TEST(Paxos, ConsensusNoFailures) {
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    auto oracle = benign_oracle(4, plan);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, {9, 4, 6, 2}, plan, rr,
                               oracle.get());
    core::expect_kset_agreement(run, 1);
}

TEST(Paxos, ConsensusWithCrashes) {
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    plan.set_initially_dead(1);
    plan.set_crash(3, CrashSpec{2, {}});
    auto oracle = benign_oracle(5, plan);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        auto orc = benign_oracle(5, plan);
        RandomScheduler sched(seed);
        ksa::Run run = execute_run(algorithm, 5, distinct_inputs(5), plan,
                                   sched, orc.get());
        core::expect_kset_agreement(run, 1);
    }
}

TEST(Paxos, SafeUnderCompetingLeadersPreGst) {
    // Before stabilization every process believes itself the leader --
    // ballots arbitrate, so agreement still holds once LD stabilizes.
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    auto quorums = std::make_unique<fd::CorrectSetQuorum>(4, plan);
    auto leaders = std::make_unique<fd::StableLeaders>(
        std::vector<ProcessId>{2}, 30, [](const QueryContext& c) {
            return std::vector<ProcessId>{c.querier};
        });
    fd::ComposedOracle oracle(std::move(quorums), std::move(leaders));
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), plan, rr,
                               &oracle);
    core::expect_kset_agreement(run, 1);
}

// -------------------------------------------------------------- ranked set

TEST(RankedSet, AllCorrectFairSchedule) {
    algo::RankedSetAgreement algorithm;
    FailurePlan plan;
    auto oracle = std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(5, plan), nullptr);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 5, distinct_inputs(5), plan, rr,
                               oracle.get());
    core::expect_kset_agreement(run, 4);
}

TEST(RankedSet, SoleSurvivorDecidesViaLoneliness) {
    algo::RankedSetAgreement algorithm;
    FailurePlan plan;
    for (ProcessId p = 2; p <= 4; ++p) plan.set_initially_dead(p);
    auto oracle = std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(4, plan), nullptr);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), plan, rr,
                               oracle.get());
    EXPECT_EQ(run.decision_of(1), 1);
}

TEST(RankedSet, SmallestCorrectProcessDecidesViaRelay) {
    // p1 never hears a smaller id and is never lonely; it terminates by
    // copying a decision announcement.
    algo::RankedSetAgreement algorithm;
    FailurePlan plan;
    auto oracle = std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(3, plan), nullptr);
    RandomScheduler sched(99);
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, sched,
                               oracle.get());
    EXPECT_TRUE(run.decision_of(1).has_value());
    core::expect_kset_agreement(run, 2);
}

// ----------------------------------------------------- quorum-leader k-set

TEST(QuorumLeader, BenignRunsStayWithinKValues) {
    // k=2 leaders, benign oracle: at most 2 distinct decisions.
    algo::QuorumLeaderKSet algorithm;
    FailurePlan plan;
    auto oracle = std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(5, plan),
        std::make_unique<fd::StableLeaders>(std::vector<ProcessId>{1, 4}, 0));
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 5, distinct_inputs(5), plan, rr,
                               oracle.get());
    auto check = core::check_kset_agreement(run, 2);
    EXPECT_TRUE(check.ok()) << run_summary(run);
}

TEST(QuorumLeader, TerminatesWhenSomeLeaderIsCorrect) {
    algo::QuorumLeaderKSet algorithm;
    FailurePlan plan;
    plan.set_initially_dead(1);  // a faulty leader...
    auto oracle = std::make_unique<fd::ComposedOracle>(
        std::make_unique<fd::CorrectSetQuorum>(5, plan),
        std::make_unique<fd::StableLeaders>(std::vector<ProcessId>{1, 3}, 0));
    RandomScheduler sched(5);
    ksa::Run run = execute_run(algorithm, 5, distinct_inputs(5), plan, sched,
                               oracle.get());
    EXPECT_TRUE(run.all_correct_decided());  // ...p3 carries the run
}

// ------------------------------------------- clone fidelity / fold_state
//
// The snapshot explorer rests on two per-behavior contracts:
//
//   * clone() reproduces the full local state (digest-identical, and
//     fold_state-identical, to the original);
//   * fold_state(h) distinguishes exactly what state_digest()
//     distinguishes -- equal digests must fold to equal hashes and
//     distinct digests to distinct hashes (a 128-bit collision would be
//     astronomically unlikely; an actual under-folding bug is not).
//
// These tests drive real executions and audit both contracts at every
// reached state, for every algorithm that overrides fold_state plus one
// that relies on the string-digest default.

Digest128 fold_hash(const Behavior& b) {
    StateHasher h;
    b.fold_state(h);
    return h.digest();
}

void audit_clone_and_fold(const Algorithm& algorithm, int n, FailurePlan plan,
                          int rounds, FdOracle* oracle = nullptr) {
    System sys(algorithm, n, distinct_inputs(n), plan, oracle);
    sys.set_recording(false);
    std::map<std::string, Digest128> hash_of_digest;
    std::map<Digest128, std::string> digest_of_hash;

    auto audit = [&] {
        for (ProcessId p = 1; p <= n; ++p) {
            if (sys.crashed(p)) continue;
            const Behavior& live = sys.behavior_of(p);
            const std::string digest = live.state_digest();
            const Digest128 hash = fold_hash(live);

            // Clone fidelity: digest- and fold-identical to the original.
            const auto clone = sys.clone_behavior(p);
            EXPECT_EQ(clone->state_digest(), digest) << "p" << p;
            EXPECT_EQ(fold_hash(*clone), hash) << "p" << p;
            // The live accessor agrees with the behavior it exposes.
            EXPECT_EQ(sys.last_digest(p), digest) << "p" << p;

            // Partition agreement, both directions.
            const auto [it, fresh_digest] = hash_of_digest.emplace(digest, hash);
            if (!fresh_digest) {
                EXPECT_EQ(it->second, hash) << "digest re-folded differently: "
                                            << digest;
            }
            const auto [jt, fresh_hash] = digest_of_hash.emplace(hash, digest);
            if (!fresh_hash) {
                EXPECT_EQ(jt->second, digest)
                        << "fold collision: " << hash.to_string();
            }
        }
    };

    audit();
    for (int r = 0; r < rounds; ++r)
        for (ProcessId p = 1; p <= n; ++p) {
            if (sys.crashed(p)) continue;
            StepChoice choice;
            choice.process = p;
            choice.deliver_all = true;
            sys.apply_choice(choice);
            audit();
        }
}

TEST(CloneAndFold, Flooding) {
    algo::FloodingKSet algorithm(2);
    audit_clone_and_fold(algorithm, 3, {}, 4);
}

TEST(CloneAndFold, TrivialWaitFree) {
    algo::TrivialWaitFree algorithm;
    audit_clone_and_fold(algorithm, 3, {}, 2);
}

TEST(CloneAndFold, InitialCliqueWithInitialDeath) {
    auto algorithm = algo::make_flp_kset(4, 2);
    FailurePlan plan;
    plan.set_initially_dead({2});
    audit_clone_and_fold(*algorithm, 4, plan, 5);
}

TEST(CloneAndFold, InitialCliqueWithMidRunCrash) {
    auto algorithm = algo::make_flp_kset(3, 1);
    FailurePlan plan;
    plan.set_crash(1, CrashSpec{2, {}});  // dies on its second step
    audit_clone_and_fold(*algorithm, 3, plan, 5);
}

TEST(CloneAndFold, DefaultFoldStateMatchesDigest) {
    // Paxos does not override fold_state: the Behavior default folds the
    // digest string itself, so the partition agreement is the contract
    // applied to the fallback path (and the clone audit still bites).
    algo::PaxosConsensus algorithm;
    FailurePlan plan;
    auto oracle = benign_oracle(4, plan);
    audit_clone_and_fold(algorithm, 4, plan, 6, oracle.get());
}

// ------------------------------------------------ renamed fold_state
//
// The symmetry reduction rests on the equivariance contract of
// Behavior::fold_state_renamed: folding p's state under a renaming pi
// equals fold_state of process pi(p) in the renamed execution (inputs
// and schedule moved along pi).  Checked at every reached state, for
// every pi in S4, under a schedule that alternates single-message and
// whole-buffer deliveries -- which exercises the renamed ordering of
// every id-sorted container the overrides walk.

void audit_renamed_fold(const Algorithm& algorithm, int n, int rounds) {
    const std::vector<Value> inputs = distinct_inputs(n);
    ProcessRenaming ren(static_cast<std::size_t>(n));
    for (int p = 1; p <= n; ++p) ren[static_cast<std::size_t>(p) - 1] = p;
    do {
        auto renamed_id = [&ren](ProcessId p) {
            return ren[static_cast<std::size_t>(p) - 1];
        };
        std::vector<Value> renamed_inputs(inputs.size());
        for (ProcessId p = 1; p <= n; ++p)
            renamed_inputs[static_cast<std::size_t>(renamed_id(p)) - 1] =
                    inputs[static_cast<std::size_t>(p) - 1];
        System sys(algorithm, n, inputs, FailurePlan{});
        System renamed(algorithm, n, renamed_inputs, FailurePlan{});
        sys.set_recording(false);
        renamed.set_recording(false);
        auto audit = [&] {
            for (ProcessId p = 1; p <= n; ++p) {
                StateHasher via_renaming;
                ASSERT_TRUE(sys.behavior_of(p).fold_state_renamed(
                        via_renaming, ren));
                EXPECT_EQ(via_renaming.digest(),
                          fold_hash(renamed.behavior_of(renamed_id(p))))
                        << "p" << p << " renamed to p" << renamed_id(p);
            }
        };
        audit();
        for (int r = 0; r < rounds; ++r)
            for (ProcessId p = 1; p <= n; ++p) {
                const std::size_t count =
                        r % 2 == 0 ? std::min<std::size_t>(
                                             1, sys.buffer(p).size())
                                   : sys.buffer(p).size();
                sys.apply_choice(sys.prefix_choice(p, count));
                renamed.apply_choice(
                        renamed.prefix_choice(renamed_id(p), count));
                audit();
            }
    } while (std::next_permutation(ren.begin(), ren.end()));
}

TEST(RenamedFold, FloodingMatchesTheRenamedExecution) {
    algo::FloodingKSet algorithm(3);
    audit_renamed_fold(algorithm, 4, 4);
}

TEST(RenamedFold, InitialCliqueMatchesTheRenamedExecution) {
    auto algorithm = algo::make_flp_kset(4, 2);
    audit_renamed_fold(*algorithm, 4, 6);
}

}  // namespace
}  // namespace ksa
