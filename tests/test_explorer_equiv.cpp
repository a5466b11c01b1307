// Golden equivalence suite for the exploration engine.
//
// core/explorer.hpp promises that the engine run with
// ReductionOptions::none() and the replay-based test oracle
// (tests/support/explore_oracle.hpp: string keys, no snapshots, no
// ghost steps) produce IDENTICAL ExploreResults on every configuration
// -- same state count, same expansion and dedup counts, same
// exhaustiveness, same witness schedule step for step, same quiescent
// outcomes and decision sets -- and that the engine's result is
// additionally byte-identical across thread counts.  This suite is the
// enforcement: every bench_model_check case, a chaos-style crash plan
// with final-step omissions, and a max_states truncation case (where
// any divergence in insertion *order* becomes a divergence in
// *content*) run through both.
//
// If the engine's ghost stepping or hash keying ever drifts from the
// real transition semantics, it shows up here as a state-count or
// witness mismatch long before anybody trusts a speedup number.

#include <gtest/gtest.h>

#include <string>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "core/explorer.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/system.hpp"
#include "tests/support/explore_oracle.hpp"

namespace ksa::core {

// Failed EXPECT_EQ(a, b) on two results prints both summaries.
void PrintTo(const ExploreResult& r, std::ostream* os) { *os << r.summary(); }

namespace {

/// Runs `cfg` through the oracle and through the engine with every
/// reduction off at 1, 2, 4 and the hardware thread count, and requires
/// identical results.  Returns the oracle's result for case-specific
/// assertions.
ExploreResult expect_all_engines_agree(const Algorithm& algorithm,
                                       ExploreConfig cfg,
                                       const std::string& label) {
    const ExploreResult oracle = oracle::explore_oracle(algorithm, cfg);
    cfg.reduction = ReductionOptions::none();
    for (const int threads : {1, 2, 4, exec::hardware_threads()}) {
        cfg.threads = threads;
        const ExploreResult r = explore_schedules(algorithm, cfg);
        const std::string what = label + ": oracle vs engine(" +
                                 std::to_string(threads) + ")";
        EXPECT_EQ(oracle, r) << what;
    }
    return oracle;
}

ExploreConfig base_config(int n, int k, int depth) {
    ExploreConfig cfg;
    cfg.n = n;
    cfg.inputs = distinct_inputs(n);
    cfg.k = k;
    cfg.max_depth = depth;
    cfg.max_states = 400000;
    return cfg;
}

TEST(ExplorerEquivalence, FloodingConsensusViolation) {
    algo::FloodingKSet algorithm(2);
    const ExploreResult r = expect_all_engines_agree(
            algorithm, base_config(3, 1, 9), "flooding k=1");
    EXPECT_TRUE(r.violation_found);
}

TEST(ExplorerEquivalence, FloodingTwoSetHolds) {
    algo::FloodingKSet algorithm(2);
    const ExploreResult r = expect_all_engines_agree(
            algorithm, base_config(3, 2, 9), "flooding k=2");
    EXPECT_FALSE(r.violation_found);
}

TEST(ExplorerEquivalence, InitialCliqueWithInitialDeath) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.plan.set_initially_dead({3});
    const ExploreResult r =
            expect_all_engines_agree(*algorithm, cfg, "flp dead{3}");
    EXPECT_FALSE(r.violation_found);
    EXPECT_TRUE(r.exhaustive);
}

TEST(ExplorerEquivalence, InitialCliqueNoCrash) {
    auto algorithm = algo::make_flp_kset(3, 1);
    const ExploreResult r = expect_all_engines_agree(
            *algorithm, base_config(3, 1, 10), "flp no crash");
    EXPECT_FALSE(r.violation_found);
}

TEST(ExplorerEquivalence, KSetGeneralization) {
    auto algorithm = algo::make_flp_kset(4, 2);
    ExploreConfig cfg = base_config(4, 2, 10);
    cfg.plan.set_initially_dead({1, 2});
    const ExploreResult r =
            expect_all_engines_agree(*algorithm, cfg, "flp k=2");
    EXPECT_FALSE(r.violation_found);
}

TEST(ExplorerEquivalence, TrivialViolatesImmediately) {
    algo::TrivialWaitFree algorithm;
    const ExploreResult r = expect_all_engines_agree(
            algorithm, base_config(3, 2, 4), "trivial");
    EXPECT_TRUE(r.violation_found);
}

// The crash plan of the chaos layer's staggered adversary: a process
// that crashes mid-run with the sends of its final step omitted to a
// strict subset of receivers.  The ghost-step key must reproduce the
// omission semantics (GhostStep::send_survives) bit-for-bit, and this
// is the case that exercises it.
TEST(ExplorerEquivalence, MidRunCrashWithOmissions) {
    algo::FloodingKSet algorithm(2);
    ExploreConfig cfg = base_config(3, 1, 9);
    cfg.plan.set_crash(1, CrashSpec{2, {3}});
    expect_all_engines_agree(algorithm, cfg, "crash omit{3}");
}

TEST(ExplorerEquivalence, MidRunCrashOmittingAll) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.plan.set_crash_omit_all(2, 1, 3);
    expect_all_engines_agree(*algorithm, cfg, "crash omit-all");
}

// max_states truncation: which states fall inside the cut depends on
// the BFS insertion order, so any ordering divergence between the
// engines -- or between thread counts -- changes states_explored,
// quiescent_outcomes or the witness.  All of them must still agree.
TEST(ExplorerEquivalence, TruncationCutsIdentically) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.max_states = 200;
    const ExploreResult r =
            expect_all_engines_agree(*algorithm, cfg, "truncated");
    EXPECT_FALSE(r.exhaustive);
    EXPECT_GT(r.states_explored, 200u);  // cut just past the cap
}

// Determinism across repeated runs of the same engine (the PR-1
// contract applied to the parallel full-space path).
TEST(ExplorerEquivalence, FastModeRunToRunDeterminism) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.reduction = ReductionOptions::none();
    cfg.threads = 4;
    const ExploreResult a = explore_schedules(*algorithm, cfg);
    const ExploreResult b = explore_schedules(*algorithm, cfg);
    EXPECT_EQ(a, b) << "full(4) run-to-run";
}

// Stutter candidates -- steps whose child key is the parent's own --
// skip their child key and their visited-store probe and are counted
// straight into dedup_hits.  The count is pinned so that a predicate
// that starts matching more (unsound) or fewer (slower) candidates
// shows here, and the result must still equal the oracle's.
TEST(ExplorerEquivalence, StutterHitsArePinnedDedupHits) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 10);
    const ExploreResult oracle = oracle::explore_oracle(*algorithm, cfg);
    cfg.reduction = ReductionOptions::none();
    for (const int threads : {1, 4}) {
        cfg.threads = threads;
        const ExploreResult r = explore_schedules(*algorithm, cfg);
        const std::string what = "threads " + std::to_string(threads);
        EXPECT_EQ(oracle, r) << what;
        EXPECT_EQ(r.stutter_hits, 8739u) << what;
        EXPECT_LE(r.stutter_hits, r.dedup_hits) << what;
    }
}

// ---------------------------------------------------------------------
// The reduction layer (ExploreConfig::reduction).
//
// With reductions on, the engine explores a QUOTIENT of the
// configuration space, so state and
// expansion counts are allowed (expected!) to shrink; what must be
// preserved, exactly, on every exhaustive golden case, are the three
// observables: violation_found, reachable_decision_sets and
// quiescent_outcomes.  The helpers below enforce that against the
// full-space run (ReductionOptions::none()), plus thread-count
// byte-identity of the reduced run itself, on every golden case.

void expect_observables_equal(const ExploreResult& full,
                              const ExploreResult& reduced,
                              const std::string& label) {
    EXPECT_EQ(full.violation_found, reduced.violation_found) << label;
    EXPECT_EQ(full.reachable_decision_sets, reduced.reachable_decision_sets)
            << label;
    EXPECT_EQ(full.quiescent_outcomes, reduced.quiescent_outcomes) << label;
}

/// Runs `cfg` through the full space (none()) and with cfg's reductions
/// (threads 1, 2, 4 and the hardware count), requires the three
/// observables to match and the reduced runs to be byte-identical
/// across thread counts, and returns (full, reduced).
std::pair<ExploreResult, ExploreResult> expect_reduced_agrees(
        const Algorithm& algorithm, ExploreConfig cfg,
        const std::string& label) {
    ExploreConfig full_cfg = cfg;
    full_cfg.reduction = ReductionOptions::none();
    full_cfg.threads = 1;
    const ExploreResult fast = explore_schedules(algorithm, full_cfg);
    cfg.threads = 1;
    const ExploreResult red1 = explore_schedules(algorithm, cfg);
    for (const int threads : {2, 4, exec::hardware_threads()}) {
        cfg.threads = threads;
        const ExploreResult red_n = explore_schedules(algorithm, cfg);
        EXPECT_EQ(red1, red_n) << label << ": reduced(1) vs reduced("
                               << threads << ")";
    }
    expect_observables_equal(fast, red1, label + ": full vs reduced");
    EXPECT_LE(red1.states_explored, fast.states_explored) << label;
    return {fast, red1};
}

// Each worker memoizes local transitions: a distinct (process, behavior
// state, delivered prefix) is ghost-stepped once, and later candidates
// read the memo.  The memo changes CPU time only: the full-space result
// equals the oracle's, the reduced one keeps the oracle's observables,
// and both are identical at 1 and 4 threads.  Misses are pinned at 1
// thread, where the node order is fixed, so a key that starts telling
// apart more transitions (slower) or fewer (unsound) shows here.
TEST(ExplorerEquivalence, TransitionMemoIsInvisible) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 10);
    const ExploreResult oracle = oracle::explore_oracle(*algorithm, cfg);
    struct Case {
        const char* name;
        bool full;
        std::uint64_t misses;
    };
    for (const Case& c : {Case{"none", true, 366}, Case{"reduced", false, 262}}) {
        cfg.reduction = c.full ? ReductionOptions::none() : ReductionOptions{};
        ExploreResult first;
        for (const int threads : {1, 4}) {
            cfg.threads = threads;
            const ExploreResult r = explore_schedules(*algorithm, cfg);
            const std::string what =
                    std::string(c.name) + ", threads " + std::to_string(threads);
            if (c.full)
                EXPECT_EQ(oracle, r) << what;
            else
                expect_observables_equal(oracle, r, what);
            EXPECT_GT(r.transition_memo_hits, 0u) << what;
            if (threads == 1) {
                EXPECT_EQ(r.transition_memo_misses, c.misses) << what;
                first = r;
            } else {
                EXPECT_EQ(first, r) << what;
            }
        }
    }
}

TEST(ReducedEquivalence, FloodingConsensusViolation) {
    algo::FloodingKSet algorithm(2);
    auto [fast, red] = expect_reduced_agrees(algorithm, base_config(3, 1, 9),
                                             "flooding k=1");
    EXPECT_TRUE(red.violation_found);
}

TEST(ReducedEquivalence, FloodingTwoSetHolds) {
    algo::FloodingKSet algorithm(2);
    auto [fast, red] = expect_reduced_agrees(algorithm, base_config(3, 2, 9),
                                             "flooding k=2");
    EXPECT_FALSE(red.violation_found);
}

TEST(ReducedEquivalence, InitialCliqueWithInitialDeath) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.plan.set_initially_dead({3});
    expect_reduced_agrees(*algorithm, cfg, "flp dead{3}");
}

// The flagship bench case ("Thm 8, no crash", depth 14, exhaustive):
// besides the observables agreeing, this is where the reduction has to
// EARN its keep -- at least 2x fewer expansions than the full space,
// with the skipped work visible in por_skips.  BENCH_explorer.json
// records the measured counts; this test pins the invariant so a
// regression in the reduction layer fails loudly rather than silently
// eroding the speedup.
TEST(ReducedEquivalence, FlagshipAtLeastTwofoldReduction) {
    auto algorithm = algo::make_flp_kset(3, 1);
    auto [fast, red] = expect_reduced_agrees(
            *algorithm, base_config(3, 1, 14), "flp no crash d14");
    EXPECT_TRUE(fast.exhaustive);
    EXPECT_TRUE(red.exhaustive);
    EXPECT_GE(fast.schedules_expanded, 2 * red.schedules_expanded)
            << "reduction lost its 2x on the flagship case";
    EXPECT_GT(red.por_skips, 0u);
}

TEST(ReducedEquivalence, KSetGeneralization) {
    auto algorithm = algo::make_flp_kset(4, 2);
    ExploreConfig cfg = base_config(4, 2, 10);
    cfg.plan.set_initially_dead({1, 2});
    expect_reduced_agrees(*algorithm, cfg, "flp k=2");
}

TEST(ReducedEquivalence, TrivialViolatesImmediately) {
    algo::TrivialWaitFree algorithm;
    auto [fast, red] =
            expect_reduced_agrees(algorithm, base_config(3, 2, 4), "trivial");
    EXPECT_TRUE(red.violation_found);
}

TEST(ReducedEquivalence, MidRunCrashWithOmissions) {
    algo::FloodingKSet algorithm(2);
    ExploreConfig cfg = base_config(3, 1, 9);
    cfg.plan.set_crash(1, CrashSpec{2, {3}});
    expect_reduced_agrees(algorithm, cfg, "crash omit{3}");
}

TEST(ReducedEquivalence, MidRunCrashOmittingAll) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.plan.set_crash_omit_all(2, 1, 3);
    expect_reduced_agrees(*algorithm, cfg, "crash omit-all");
}

// Uniform inputs make the whole symmetric group admissible: the
// symmetry axis alone must collapse the space by far more than the
// group order would suggest (orbits compound down the tree) while the
// orbit-expanded outcomes still match the full engine's exactly.
TEST(ReducedEquivalence, UniformInputsSymmetry) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.inputs = {7, 7, 7};
    auto [fast, red] = expect_reduced_agrees(*algorithm, cfg, "flp uniform");
    EXPECT_TRUE(fast.exhaustive);
    EXPECT_LT(red.states_explored * 3, fast.states_explored)
            << "uniform-input symmetry should shrink the space >3x";
}

// With every reduction switched off the engine must not merely agree --
// it must partition states exactly like the full-space oracle and
// reproduce its result bit for bit (counts, witness, everything).  This
// pins the identity quotient: the dedup key (core/reduction.hpp,
// fold_key) distinguishes exactly what the oracle's canonical strings
// distinguish.
TEST(ReducedEquivalence, AllReductionsOffIsBitIdenticalToFast) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    const ExploreResult full = oracle::explore_oracle(*algorithm, cfg);
    cfg.reduction.symmetry = false;
    cfg.reduction.por = false;
    cfg.reduction.absorption = false;
    const ExploreResult red = explore_schedules(*algorithm, cfg);
    EXPECT_EQ(full, red) << "reduction-off vs oracle";
}

// Each reduction axis must be individually sound, not only the default
// all-on combination: sweep all 8 on/off combinations on a case with
// crashes (omission semantics) and assert the observables every time.
TEST(ReducedEquivalence, EveryAxisCombinationAgrees) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.plan.set_crash_omit_all(2, 1, 3);
    cfg.reduction = ReductionOptions::none();
    const ExploreResult fast = explore_schedules(*algorithm, cfg);
    for (int mask = 0; mask < 8; ++mask) {
        ExploreConfig rcfg = cfg;
        rcfg.reduction.symmetry = (mask & 1) != 0;
        rcfg.reduction.por = (mask & 2) != 0;
        rcfg.reduction.absorption = (mask & 4) != 0;
        const ExploreResult red = explore_schedules(*algorithm, rcfg);
        expect_observables_equal(fast, red,
                                 "axis mask " + std::to_string(mask));
    }
}

// A reduced violation witness is a real schedule (frontier nodes are
// realized Systems, never merely renamed ones): replaying it step for
// step on a fresh System must reproduce a state with more than k
// distinct decisions.  The oracle's witness is held to the same check:
// it is the only reference the engine is compared against, so it must
// itself produce genuine violating schedules.
TEST(ReducedEquivalence, WitnessReplaysToViolation) {
    algo::FloodingKSet algorithm(2);
    ExploreConfig cfg = base_config(3, 1, 9);
    const std::pair<const char*, ExploreResult> runs[] = {
            {"reduced", explore_schedules(algorithm, cfg)},
            {"oracle", oracle::explore_oracle(algorithm, cfg)},
    };
    for (const auto& [who, r] : runs) {
        ASSERT_TRUE(r.violation_found) << who;
        ASSERT_FALSE(r.witness.empty()) << who;

        System sys(algorithm, cfg.n, cfg.inputs, cfg.plan);
        sys.set_recording(false);
        for (const StepChoice& choice : r.witness) sys.apply_choice(choice);
        std::set<Value> decisions;
        for (ProcessId p = 1; p <= cfg.n; ++p) {
            auto d = sys.decision_of(p);
            if (d) decisions.insert(*d);
        }
        EXPECT_GT(static_cast<int>(decisions.size()), cfg.k)
                << who << " witness does not replay to a violation";
    }
}

// Under max_depth truncation exact equality is NOT promised (the
// quotient can reach -- and absorb -- outcomes the depth-bounded full
// space never gets to; doc/performance.md).  What still holds: every
// observable the truncated full-space run records is genuinely
// reachable, so the exhaustive reduced run must contain it.
TEST(ReducedEquivalence, TruncatedFastIsContainedInReduced) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 10);  // full needs 14 for exhaustion
    const ExploreResult red = explore_schedules(*algorithm, cfg);
    cfg.reduction = ReductionOptions::none();
    const ExploreResult fast = explore_schedules(*algorithm, cfg);
    EXPECT_FALSE(fast.exhaustive);
    EXPECT_TRUE(red.exhaustive);  // the quotient closes by depth 8
    for (const auto& ds : fast.reachable_decision_sets)
        EXPECT_TRUE(red.reachable_decision_sets.count(ds) != 0)
                << "decision set seen by truncated full missing from reduced";
    for (const auto& qo : fast.quiescent_outcomes)
        EXPECT_TRUE(red.quiescent_outcomes.count(qo) != 0)
                << "outcome seen by truncated full missing from reduced";
}

TEST(ReducedEquivalence, RunToRunDeterminism) {
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.threads = 4;
    const ExploreResult a = explore_schedules(*algorithm, cfg);
    const ExploreResult b = explore_schedules(*algorithm, cfg);
    EXPECT_EQ(a, b) << "reduced(4) run-to-run";
}

// Groups beyond S3.  Renamed child keys are folded from a per-parent
// digest table (core/reduction.hpp, ChildKeys), which must reproduce
// the partition of a full renamed walk exactly; the pinned counts of
// the first and last case were recorded with such a walk.  Cases: the
// full group S4, the product group {id, (1 2), (3 4), (1 2)(3 4)}, and
// {id, (3 4)} where the swapped processes crash after one step with
// their final sends omitted.  Each runs with absorption on (the
// stepper's dead messages are then judged by its stepped clone) and off.

struct PinnedCounts {
    std::size_t states = 0;
    std::size_t dedup_hits = 0;
    std::size_t por_skips = 0;
};

void expect_pinned_counts(const ExploreResult& r, const PinnedCounts& want,
                          const std::string& label) {
    EXPECT_EQ(r.states_explored, want.states) << label;
    EXPECT_EQ(r.dedup_hits, want.dedup_hits) << label;
    EXPECT_EQ(r.por_skips, want.por_skips) << label;
}

// Flooding, not the initial-clique protocol: with four correct
// processes the latter's full space is beyond an exhaustive full-space
// run.
TEST(ReducedEquivalence, UniformInputsFullGroupS4) {
    algo::FloodingKSet algorithm(3);
    for (const bool absorption : {true, false}) {
        ExploreConfig cfg = base_config(4, 1, 20);
        cfg.inputs = {7, 7, 7, 7};
        cfg.reduction.absorption = absorption;
        const std::string label = absorption ? "S4, absorption on"
                                             : "S4, absorption off";
        auto [fast, red] = expect_reduced_agrees(algorithm, cfg, label);
        EXPECT_TRUE(fast.exhaustive) << label;
        EXPECT_TRUE(red.exhaustive) << label;
        expect_pinned_counts(red,
                             absorption ? PinnedCounts{105, 516, 255}
                                        : PinnedCounts{189, 634, 841},
                             label);
    }
}

// Two input blocks: no renaming maps a process of one block into the
// other, so positions move only within a block, in both at once for
// (1 2)(3 4).
TEST(ReducedEquivalence, TwoInputBlocksProductGroup) {
    algo::FloodingKSet algorithm(3);
    for (const bool absorption : {true, false}) {
        ExploreConfig cfg = base_config(4, 1, 20);
        cfg.inputs = {1, 1, 2, 2};
        cfg.reduction.absorption = absorption;
        const std::string label = absorption ? "blocks, absorption on"
                                             : "blocks, absorption off";
        auto [fast, red] = expect_reduced_agrees(algorithm, cfg, label);
        EXPECT_TRUE(fast.exhaustive) << label;
        EXPECT_TRUE(red.exhaustive) << label;
        EXPECT_EQ(fast.states_explored, 5560u) << label;
        expect_pinned_counts(red,
                             absorption ? PinnedCounts{596, 2969, 1494}
                                        : PinnedCounts{1076, 3654, 4939},
                             label);
    }
}

TEST(ReducedEquivalence, SwappedCrashersWithFinalStepOmissions) {
    auto algorithm = algo::make_flp_kset(4, 2);
    for (const bool absorption : {true, false}) {
        ExploreConfig cfg = base_config(4, 2, 20);
        cfg.inputs = {7, 7, 7, 7};
        // Equal allowances and omission sets: (3 4) fixes the plan, no
        // renaming that moves 1 or 2 does.
        cfg.plan.set_crash(3, CrashSpec{1, {1}});
        cfg.plan.set_crash(4, CrashSpec{1, {1}});
        cfg.reduction.absorption = absorption;
        const std::string label = absorption ? "(3 4), absorption on"
                                             : "(3 4), absorption off";
        auto [fast, red] = expect_reduced_agrees(*algorithm, cfg, label);
        EXPECT_TRUE(fast.exhaustive) << label;
        EXPECT_TRUE(red.exhaustive) << label;
        expect_pinned_counts(red,
                             absorption ? PinnedCounts{1522, 3672, 1095}
                                        : PinnedCounts{4448, 10563, 3190},
                             label);
    }
}

// ---------------------------------------------------------------------
// Store configuration sweeps (src/store/).
//
// The out-of-core store promises that NONE of its sizing knobs -- shard
// count, bloom budget, spill budget, expansion block size -- changes
// any exploration result, and that for a FIXED store configuration the
// deterministic store counters (tier hits, spill tallies) are
// themselves byte-identical across thread counts.  (replay_steps and
// spill_reads are excluded: they depend on work distribution, like
// steal counts.)

/// The outcome equality plus the deterministic store counters and the
/// stutter count; valid only when both runs used the same StoreOptions.
void expect_equal_with_store_counters(const ExploreResult& a,
                                      const ExploreResult& b,
                                      const std::string& label) {
    EXPECT_EQ(a, b) << label;
    EXPECT_EQ(a.store_shards, b.store_shards) << label;
    EXPECT_EQ(a.filter_definite_new, b.filter_definite_new) << label;
    EXPECT_EQ(a.filter_false_positives, b.filter_false_positives) << label;
    EXPECT_EQ(a.spilled_records, b.spilled_records) << label;
    EXPECT_EQ(a.spill_bytes, b.spill_bytes) << label;
    EXPECT_EQ(a.stutter_hits, b.stutter_hits) << label;
}

/// Store configurations that must all yield the same result: defaults,
/// a single unsharded table without a filter tier, maximal sharding
/// with a spill-everything budget, and a degenerate one-node block.
std::vector<store::StoreOptions> store_sweep() {
    std::vector<store::StoreOptions> sweep(4);
    sweep[1].shard_bits = 0;
    sweep[1].filter_bits_per_key = 0;
    sweep[2].shard_bits = 8;
    sweep[2].frontier_ram_bytes = 1024;  // 64-record window: spills hard
    sweep[3].expand_block = 1;
    sweep[3].shard_bits = 1;
    sweep[3].frontier_ram_bytes = 2048;
    return sweep;
}

TEST(StoreEquivalence, EveryStoreConfigYieldsTheSameResult) {
    auto algorithm = algo::make_flp_kset(3, 1);
    for (const ReductionOptions& reduction :
         {ReductionOptions::none(), ReductionOptions{}}) {
        ExploreConfig cfg = base_config(3, 1, 12);
        cfg.reduction = reduction;
        const ExploreResult baseline = explore_schedules(*algorithm, cfg);
        int i = 0;
        for (const store::StoreOptions& opt : store_sweep()) {
            cfg.store = opt;
            const ExploreResult r = explore_schedules(*algorithm, cfg);
            EXPECT_EQ(baseline, r) << "store config " << i++;
        }
    }
}

TEST(StoreEquivalence, CountersAreThreadCountInvariant) {
    auto algorithm = algo::make_flp_kset(3, 1);
    for (const ReductionOptions& reduction :
         {ReductionOptions::none(), ReductionOptions{}}) {
        int i = 0;
        for (const store::StoreOptions& opt : store_sweep()) {
            ExploreConfig cfg = base_config(3, 1, 11);
            cfg.reduction = reduction;
            cfg.store = opt;
            cfg.threads = 1;
            const ExploreResult one = explore_schedules(*algorithm, cfg);
            for (const int threads : {2, exec::hardware_threads()}) {
                cfg.threads = threads;
                const ExploreResult many = explore_schedules(*algorithm, cfg);
                expect_equal_with_store_counters(
                        one, many,
                        "store config " + std::to_string(i) + " threads " +
                                std::to_string(threads));
            }
            ++i;
        }
    }
}

TEST(StoreEquivalence, TruncationCutsIdenticallyUnderSpill) {
    // The sharpest determinism case and the spill path combined: which
    // states fall inside max_states must not depend on the spill
    // budget, the block size or the thread count.
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 14);
    cfg.max_states = 500;
    cfg.reduction = ReductionOptions::none();
    const ExploreResult baseline = explore_schedules(*algorithm, cfg);
    EXPECT_FALSE(baseline.exhaustive);
    cfg.store.frontier_ram_bytes = 1024;
    cfg.store.expand_block = 7;
    cfg.store.shard_bits = 2;
    for (const int threads : {1, 4}) {
        cfg.threads = threads;
        const ExploreResult r = explore_schedules(*algorithm, cfg);
        EXPECT_EQ(baseline, r) << "spilled truncation, threads " << threads;
    }
}

TEST(StoreEquivalence, CrashPlansSurviveRematerialization) {
    // Rematerialization replays delta chains on forked Systems; crash
    // plans (mid-run crashes with omissions) must survive the re-fork
    // byte-identically even when the chain crosses the spill file.
    auto algorithm = algo::make_flp_kset(3, 1);
    ExploreConfig cfg = base_config(3, 1, 12);
    cfg.plan.set_crash(1, CrashSpec{2, {3}});
    cfg.reduction = ReductionOptions::none();
    const ExploreResult baseline = explore_schedules(*algorithm, cfg);
    cfg.store.frontier_ram_bytes = 1024;
    cfg.store.expand_block = 5;
    const ExploreResult spilled = explore_schedules(*algorithm, cfg);
    EXPECT_GT(spilled.spilled_records, 0u);
    EXPECT_EQ(baseline, spilled) << "crash plan under spill";
}

}  // namespace
}  // namespace ksa::core
