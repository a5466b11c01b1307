// Unit tests for the simulation substrate: payloads, messages, failure
// plans, the System executor, schedulers, admissibility and run queries.

#include <gtest/gtest.h>

#include <sstream>

#include "algo/flooding.hpp"
#include "algo/initial_clique.hpp"
#include "exec/parallel_map.hpp"
#include "sim/admissibility.hpp"
#include "sim/model.hpp"
#include "sim/payload.hpp"
#include "sim/schedulers.hpp"
#include "sim/system.hpp"
#include "sim/trace.hpp"

namespace ksa {
namespace {

// ---------------------------------------------------------------- payload

TEST(Payload, RenderingIsCanonical) {
    Payload p = make_payload("S2", {3, 7}, {{1, 2}, {4}});
    EXPECT_EQ(p.to_string(), "S2(3,7|[1,2],[4])");
    EXPECT_EQ(make_payload("S1", {5}).to_string(), "S1(5)");
    EXPECT_EQ(make_payload("PING").to_string(), "PING()");
}

TEST(Payload, EqualityIsStructural) {
    EXPECT_EQ(make_payload("A", {1}), make_payload("A", {1}));
    EXPECT_NE(make_payload("A", {1}), make_payload("A", {2}));
    EXPECT_NE(make_payload("A", {1}), make_payload("B", {1}));
}

TEST(Message, ContentEqualityIgnoresIdentity) {
    Message a{1, 2, 3, 10, make_payload("T", {1})};
    Message b{99, 2, 3, 55, make_payload("T", {1})};
    EXPECT_TRUE(content_equal(a, b));
    EXPECT_EQ(a.to_string(), "2->3:T(1)");
}

// ------------------------------------------------------------ failure plan

TEST(FailurePlan, BasicQueries) {
    FailurePlan plan;
    plan.set_initially_dead(2);
    plan.set_crash(4, CrashSpec{3, {1, 5}});
    EXPECT_TRUE(plan.is_faulty(2));
    EXPECT_TRUE(plan.is_initially_dead(2));
    EXPECT_TRUE(plan.is_faulty(4));
    EXPECT_FALSE(plan.is_initially_dead(4));
    EXPECT_FALSE(plan.is_faulty(1));
    EXPECT_EQ(plan.allowed_steps(4), 3);
    EXPECT_EQ(plan.allowed_steps(1), -1);
    EXPECT_EQ(plan.num_faulty(), 2);
    EXPECT_EQ(plan.correct(5), (std::vector<ProcessId>{1, 3, 5}));
    EXPECT_EQ(plan.faulty(), (std::set<ProcessId>{2, 4}));
}

TEST(FailurePlan, SpecThrowsForCorrectProcess) {
    FailurePlan plan;
    EXPECT_THROW(plan.spec(1), UsageError);
}

// ---------------------------------------------------------------- system

TEST(System, TrivialAlgorithmDecidesOwnValues) {
    algo::TrivialWaitFree algorithm;
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), {}, rr);
    EXPECT_EQ(run.stop, StopReason::kQuiescent);
    for (ProcessId p = 1; p <= 4; ++p) EXPECT_EQ(run.decision_of(p), p);
    EXPECT_EQ(run.distinct_decisions().size(), 4u);
}

TEST(System, RejectsWrongInputCount) {
    algo::TrivialWaitFree algorithm;
    EXPECT_THROW(System(algorithm, 3, {1, 2}, {}), UsageError);
}

TEST(System, InitiallyDeadNeverSteps) {
    algo::TrivialWaitFree algorithm;
    FailurePlan plan;
    plan.set_initially_dead(2);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, rr);
    EXPECT_EQ(run.steps_of(2), 0);
    EXPECT_FALSE(run.decision_of(2).has_value());
    EXPECT_TRUE(run.decision_of(1).has_value());
    EXPECT_EQ(run.crash_time_of(2), 1);
}

TEST(System, CrashPlanIsRealizedExactly) {
    algo::FloodingKSet algorithm(3);  // n=4, threshold 3
    FailurePlan plan;
    plan.set_crash(4, CrashSpec{2, {}});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), plan, rr);
    EXPECT_EQ(run.steps_of(4), 2);
    EXPECT_NE(run.crash_time_of(4), kNever);
    AdmissibilityReport adm = check_admissibility(run);
    EXPECT_TRUE(adm.admissible) << run_summary(run);
}

TEST(System, OmitToDropsFinalStepSends) {
    // Process 1 crashes after its first step (the broadcast), omitting
    // its proposal to process 2 but not to process 3.
    algo::FloodingKSet algorithm(2);  // n=3, threshold 2
    FailurePlan plan;
    plan.set_crash(1, CrashSpec{1, {2}});
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), plan, rr);
    // p3 saw x1 and decides min(1,3)=1 or min over first 2 seen; p2 never
    // saw x1 so its minimum is 2 or min(2,3).
    ASSERT_TRUE(run.decision_of(3).has_value());
    ASSERT_TRUE(run.decision_of(2).has_value());
    EXPECT_EQ(*run.decision_of(3), 1);
    EXPECT_NE(*run.decision_of(2), 1);
    // The omitted message is recorded.
    bool omitted_seen = false;
    for (const StepRecord& s : run.steps)
        for (const Message& m : s.omitted)
            if (m.to == 2) omitted_seen = true;
    EXPECT_TRUE(omitted_seen);
}

TEST(System, DecidingTwiceAborts) {
    // A malicious behavior that decides twice.
    class Bad final : public Behavior {
    public:
        StepOutput on_step(const StepInput&) override {
            StepOutput out;
            out.decision = 1;
            return out;
        }
        std::string state_digest() const override { return "bad"; }
        std::unique_ptr<Behavior> clone() const override {
            return std::make_unique<Bad>(*this);
        }
    };
    class BadAlgo final : public Algorithm {
    public:
        std::unique_ptr<Behavior> make_behavior(ProcessId, int,
                                                Value) const override {
            return std::make_unique<Bad>();
        }
        std::string name() const override { return "bad"; }
    };
    BadAlgo algorithm;
    System sys(algorithm, 1, {1}, {});
    StepChoice c;
    c.process = 1;
    sys.apply_choice(c);
    EXPECT_THROW(sys.apply_choice(c), UsageError);
}

TEST(System, StepChoiceValidation) {
    algo::TrivialWaitFree algorithm;
    System sys(algorithm, 2, {1, 2}, {});
    StepChoice bad;
    bad.process = 7;
    EXPECT_THROW(sys.apply_choice(bad), UsageError);
    StepChoice ghost;
    ghost.process = 1;
    ghost.deliver.push_back(12345);  // no such message
    EXPECT_THROW(sys.apply_choice(ghost), UsageError);
}

TEST(System, DeterministicReplay) {
    algo::FloodingKSet algorithm(3);
    RoundRobinScheduler rr1, rr2;
    ksa::Run a = execute_run(algorithm, 4, distinct_inputs(4), {}, rr1);
    ksa::Run b = execute_run(algorithm, 4, distinct_inputs(4), {}, rr2);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        EXPECT_EQ(a.steps[i].process, b.steps[i].process);
        EXPECT_EQ(a.steps[i].digest_after, b.steps[i].digest_after);
    }
}

// The fork() contract: a snapshot taken mid-run is (a) independent of
// the original and (b) indistinguishable from it under any identical
// continuation -- the same further choices yield bit-identical digests,
// decisions and step records.  This is the primitive the snapshot
// explorer's correctness rests on (doc/performance.md).
TEST(System, ForkRoundTrip) {
    algo::FloodingKSet algorithm(2);
    System original(algorithm, 3, distinct_inputs(3), {});

    auto step_all = [](System& sys) {
        for (ProcessId p = 1; p <= 3; ++p) {
            StepChoice choice;
            choice.process = p;
            choice.deliver_all = true;
            sys.apply_choice(choice);
        }
    };

    step_all(original);  // mid-run: announcements still in flight to p1
    auto forked = original.fork(/*verify_digests=*/true);

    // The snapshot is digest-identical at the fork point...
    for (ProcessId p = 1; p <= 3; ++p) {
        EXPECT_EQ(forked->last_digest(p), original.last_digest(p));
        EXPECT_EQ(forked->buffer(p).size(), original.buffer(p).size());
        EXPECT_EQ(forked->steps_of(p), original.steps_of(p));
    }
    EXPECT_EQ(forked->now(), original.now());

    // ...and stays identical under the same continuation.
    step_all(original);
    step_all(*forked);
    for (ProcessId p = 1; p <= 3; ++p) {
        EXPECT_EQ(forked->last_digest(p), original.last_digest(p));
        EXPECT_EQ(forked->decision_of(p), original.decision_of(p));
    }

    ksa::Run run_a = original.finish(StopReason::kQuiescent);
    ksa::Run run_b = forked->finish(StopReason::kQuiescent);
    ASSERT_EQ(run_a.steps.size(), run_b.steps.size());
    for (std::size_t i = 0; i < run_a.steps.size(); ++i) {
        EXPECT_EQ(run_a.steps[i].process, run_b.steps[i].process);
        EXPECT_EQ(run_a.steps[i].digest_after, run_b.steps[i].digest_after);
    }
    EXPECT_EQ(run_a.distinct_decisions(), run_b.distinct_decisions());
}

TEST(System, ForkIsIndependentOfTheOriginal) {
    algo::FloodingKSet algorithm(2);
    System original(algorithm, 3, distinct_inputs(3), {});
    StepChoice first;
    first.process = 1;
    first.deliver_all = true;
    original.apply_choice(first);

    auto forked = original.fork();
    const std::string digest_before = original.last_digest(2);
    const std::size_t buffered_before = original.buffer(2).size();

    // Drive only the fork; the original must not move.
    for (ProcessId p = 1; p <= 3; ++p) {
        StepChoice choice;
        choice.process = p;
        choice.deliver_all = true;
        forked->apply_choice(choice);
    }
    EXPECT_EQ(original.last_digest(2), digest_before);
    EXPECT_EQ(original.buffer(2).size(), buffered_before);
    EXPECT_FALSE(original.decided(2));
    EXPECT_NE(forked->last_digest(2), digest_before);  // the fork did move
}

// ------------------------------------------------ copy-on-write forks
//
// fork() shares behaviors and buffers until one side writes them.  The
// tests below render every observable piece of a System -- digests,
// buffered messages with their ids, step counts, crash flags,
// decisions and the effective plan -- and require the side that was
// not stepped to render exactly as before.

std::string render_state(const System& sys) {
    std::ostringstream out;
    out << "now=" << sys.now() << " plan=" << sys.plan().to_string() << '\n';
    for (ProcessId p = 1; p <= sys.n(); ++p) {
        out << 'p' << p << ' ' << sys.last_digest(p)
            << " steps=" << sys.steps_of(p) << " crashed=" << sys.crashed(p)
            << " decision=" << sys.decision_of(p).value_or(kNoValue) << " buf:";
        for (const Message& m : sys.buffer(p))
            out << " [" << m.id << '@' << m.sent_at << ' ' << m.to_string()
                << ']';
        out << '\n';
    }
    return out.str();
}

/// n=5 initial-clique system after every process took its stage-1
/// step: each buffer holds four announcements.
std::unique_ptr<System> announced_system(const Algorithm& algorithm) {
    auto sys = std::make_unique<System>(algorithm, 5, distinct_inputs(5),
                                        FailurePlan{});
    for (ProcessId p = 1; p <= 5; ++p) {
        StepChoice c;
        c.process = p;
        sys->apply_choice(c);
    }
    return sys;
}

StepChoice deliver_all_to(ProcessId p) {
    StepChoice c;
    c.process = p;
    c.deliver_all = true;
    return c;
}

TEST(SystemCow, SteppingEitherSideLeavesTheOtherUnchanged) {
    auto algorithm = algo::make_flp_kset(5, 1);
    auto parent = announced_system(*algorithm);
    auto fork = parent->fork(/*verify_digests=*/true);
    const std::string at_fork = render_state(*parent);
    ASSERT_EQ(render_state(*fork), at_fork);

    // Step the fork: the parent must not move.
    fork->apply_choice(fork->prefix_choice(1, 1));
    fork->apply_choice(deliver_all_to(2));
    EXPECT_EQ(render_state(*parent), at_fork);
    const std::string fork_after = render_state(*fork);
    EXPECT_NE(fork_after, at_fork);

    // Step the parent differently: the fork must not move.
    parent->apply_choice(deliver_all_to(3));
    parent->apply_choice(parent->prefix_choice(2, 2));
    EXPECT_EQ(render_state(*fork), fork_after);

    // A fork of a fork shares with both; stepping it moves neither.
    const std::string parent_now = render_state(*parent);
    auto grandchild = fork->fork(/*verify_digests=*/true);
    grandchild->apply_choice(deliver_all_to(4));
    EXPECT_EQ(render_state(*fork), fork_after);
    EXPECT_EQ(render_state(*parent), parent_now);
}

/// The fault of each kind, aimed at messages of `sys`.
std::vector<std::pair<std::string, FaultAction>> one_fault_per_kind(
        const System& sys) {
    std::vector<std::pair<std::string, FaultAction>> out;
    FaultAction drop;
    drop.kind = FaultAction::Kind::kDropMessage;
    drop.message = sys.buffer(2).front().id;
    out.emplace_back("drop", drop);
    FaultAction dup;
    dup.kind = FaultAction::Kind::kDuplicateMessage;
    dup.message = sys.buffer(2).front().id;
    out.emplace_back("duplicate", dup);
    FaultAction corrupt;
    corrupt.kind = FaultAction::Kind::kCorruptMessage;
    corrupt.message = sys.buffer(3).front().id;
    corrupt.corrupt_seed = 41;
    out.emplace_back("corrupt", corrupt);
    FaultAction equivocate;
    equivocate.kind = FaultAction::Kind::kEquivocate;
    equivocate.message = sys.buffer(4).front().id;
    equivocate.corrupt_seed = 97;
    out.emplace_back("equivocate", equivocate);
    FaultAction crash;
    crash.kind = FaultAction::Kind::kCrashProcess;
    crash.process = 5;
    crash.omit_to = {1, 2};
    out.emplace_back("crash", crash);
    return out;
}

TEST(SystemCow, EveryFaultKindOnOneSideLeavesTheOtherUnchanged) {
    auto algorithm = algo::make_flp_kset(5, 1);
    auto base = announced_system(*algorithm);
    for (const auto& [name, fault] : one_fault_per_kind(*base)) {
        // A step of p5 that carries the fault; p5 delivers nothing, so
        // the fault is the only change to the other buffers.
        StepChoice c;
        c.process = 5;
        c.faults.push_back(fault);

        auto parent = base->fork(/*verify_digests=*/true);
        auto fork = parent->fork(/*verify_digests=*/true);
        const std::string at_fork = render_state(*parent);
        fork->apply_choice(c);
        EXPECT_EQ(render_state(*parent), at_fork) << name << " on the fork";
        EXPECT_NE(render_state(*fork), at_fork) << name << " on the fork";

        auto other = parent->fork(/*verify_digests=*/true);
        parent->apply_choice(c);
        EXPECT_EQ(render_state(*other), at_fork) << name << " on the parent";
        // Same choice, same state: the two faulted sides agree.
        EXPECT_EQ(render_state(*parent), render_state(*fork)) << name;
    }
}

// finish() fills the Run header -- n, algorithm, inputs and the
// effective plan -- from the live System, so a fork of a non-recording
// System, which copies no Run at all, still finishes with the header a
// recording twin reports.  Crash injection and Byzantine faults extend
// the effective plan after the fork; the header must carry that too.
TEST(SystemCow, NonRecordingForksFinishWithTheParentsHeader) {
    auto algorithm = algo::make_flp_kset(5, 1);
    auto base = announced_system(*algorithm);
    const FailurePlan static_plan = base->plan();
    for (const auto& [name, fault] : one_fault_per_kind(*base)) {
        StepChoice c;
        c.process = 5;
        c.faults.push_back(fault);

        auto twin = base->fork(/*verify_digests=*/true);  // recording
        twin->apply_choice(c);
        const ksa::Run expected = twin->finish(StopReason::kSchedulerEnded);
        ASSERT_EQ(expected.steps.size(), 6u) << name;
        if (name == "crash" || name == "corrupt" || name == "equivocate") {
            EXPECT_NE(expected.plan, static_plan) << name;
        }

        auto parent = base->fork(/*verify_digests=*/true);
        parent->set_recording(false);
        auto early = parent->fork(/*verify_digests=*/true);
        early->apply_choice(c);
        parent->apply_choice(c);
        auto late = parent->fork(/*verify_digests=*/true);
        for (auto* sys : {early.get(), late.get(), parent.get()}) {
            ASSERT_FALSE(sys->recording()) << name;
            const ksa::Run run = sys->finish(StopReason::kSchedulerEnded);
            EXPECT_EQ(run.n, expected.n) << name;
            EXPECT_EQ(run.algorithm, expected.algorithm) << name;
            EXPECT_EQ(run.inputs, expected.inputs) << name;
            EXPECT_EQ(run.plan, expected.plan) << name;
            // The forks copied no Run; the parent keeps the steps it
            // recorded before recording was switched off.
            EXPECT_EQ(run.steps.size(), sys == parent.get() ? 5u : 0u)
                    << name;
        }
    }
}

// Forks of one parent stepped concurrently from the exec workers.  Each
// fork follows its own schedule; the result must equal the same
// schedule run sequentially, and the shared parent must not move (the
// TSan job runs this as the data-race check of the sharing).
TEST(SystemCow, ForksOfOneParentSteppedFromSeveralWorkers) {
    auto algorithm = algo::make_flp_kset(5, 1);
    const auto parent = announced_system(*algorithm);
    const std::string at_start = render_state(*parent);
    auto run_fork = [&parent](std::size_t i, int /*worker*/) {
        auto fork = parent->fork(/*verify_digests=*/false);
        for (std::size_t s = 0; s < 12; ++s) {
            const auto p = static_cast<ProcessId>(1 + (i + s * (i % 3 + 1)) % 5);
            if (fork->crashed(p)) continue;
            const std::size_t buffered = fork->buffer(p).size();
            fork->apply_choice(fork->prefix_choice(p, (i + s) % 2 == 0
                                                              ? buffered
                                                              : buffered / 2));
        }
        return render_state(*fork);
    };
    constexpr std::size_t kForks = 24;
    std::vector<std::string> sequential;
    for (std::size_t i = 0; i < kForks; ++i)
        sequential.push_back(run_fork(i, 0));
    exec::TaskScheduler sched(4, /*oversubscribe=*/true);
    const std::vector<std::string> parallel =
            exec::parallel_map_grained(sched, kForks, 1, run_fork);
    EXPECT_EQ(parallel, sequential);
    EXPECT_EQ(render_state(*parent), at_start);
}

// -------------------------------------------------------------- schedulers

TEST(RoundRobin, DrainsAllBuffersBeforeStopping) {
    algo::FloodingKSet algorithm(2);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, rr);
    EXPECT_EQ(run.stop, StopReason::kQuiescent);
    for (ProcessId p = 1; p <= 3; ++p)
        EXPECT_TRUE(run.undelivered_to(p).empty());
}

TEST(RandomScheduler, IsFairAndDeterministicPerSeed) {
    algo::FloodingKSet algorithm(4);
    RandomScheduler s1(123), s2(123), s3(321);
    ksa::Run a = execute_run(algorithm, 5, distinct_inputs(5), {}, s1);
    ksa::Run b = execute_run(algorithm, 5, distinct_inputs(5), {}, s2);
    ksa::Run c = execute_run(algorithm, 5, distinct_inputs(5), {}, s3);
    EXPECT_EQ(a.steps.size(), b.steps.size());
    EXPECT_EQ(a.distinct_decisions(), b.distinct_decisions());
    EXPECT_EQ(a.stop, StopReason::kQuiescent);
    EXPECT_EQ(c.stop, StopReason::kQuiescent);
}

TEST(PartitionScheduler, IsolatesBlocksUntilDecision) {
    algo::FloodingKSet algorithm(2);  // n=4, threshold 2
    PartitionScheduler sched({{1, 2}, {3, 4}});
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), {}, sched);
    EXPECT_TRUE(sched.stalled_blocks().empty());
    // Block {1,2} decides min(1,2)=1; block {3,4} decides min(3,4)=3.
    EXPECT_EQ(*run.decision_of(1), 1);
    EXPECT_EQ(*run.decision_of(2), 1);
    EXPECT_EQ(*run.decision_of(3), 3);
    EXPECT_EQ(*run.decision_of(4), 3);
    // No cross-block reception before the release time.
    EXPECT_TRUE(run.silent_from_until(1, {3, 4}, sched.release_time()));
    EXPECT_TRUE(run.silent_from_until(3, {1, 2}, sched.release_time()));
    // Admissible: delayed messages were eventually delivered.
    EXPECT_TRUE(check_admissibility(run).admissible);
}

TEST(PartitionScheduler, ReportsStalledBlocks) {
    algo::FloodingKSet algorithm(3);  // n=4, threshold 3: block of 2 stalls
    PartitionScheduler sched({{1, 2}}, 50);
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), {}, sched);
    EXPECT_EQ(sched.stalled_blocks(), std::vector<int>{0});
    // After release everyone decides (threshold reachable system-wide).
    EXPECT_TRUE(run.all_correct_decided());
}

TEST(StagedScheduler, FilterControlsDeliveryByPayload) {
    // Hold back every message whose tag is "VAL" from reaching p2.
    algo::FloodingKSet algorithm(1);  // decide immediately on own value
    StagedScheduler::Stage stage;
    stage.active = {1, 2, 3};
    stage.filter = [](const Message& m, ProcessId dest) {
        return !(dest == 2 && m.payload.tag == "VAL");
    };
    StagedScheduler sched({stage});
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, sched);
    EXPECT_TRUE(run.all_correct_decided());
    // p2 received nothing before release.
    EXPECT_TRUE(run.silent_from_until(2, {1, 3}, sched.release_time()));
}

TEST(ScriptedScheduler, ReplaysExactly) {
    algo::TrivialWaitFree algorithm;
    std::vector<StepChoice> script;
    StepChoice c1;
    c1.process = 2;
    StepChoice c2;
    c2.process = 1;
    script.push_back(c1);
    script.push_back(c2);
    ScriptedScheduler sched(script);
    System sys(algorithm, 2, {10, 20}, {});
    ksa::Run run = sys.execute(sched);
    ASSERT_EQ(run.steps.size(), 2u);
    EXPECT_EQ(run.steps[0].process, 2);
    EXPECT_EQ(run.steps[1].process, 1);
}

// ----------------------------------------------------------- admissibility

TEST(Admissibility, StepLimitIsInconclusive) {
    // Flooding with threshold 4 in a 4-process system where one process
    // is dead can never decide: the run hits the step limit.
    algo::FloodingKSet algorithm(4);
    FailurePlan plan;
    plan.set_initially_dead(4);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, distinct_inputs(4), plan, rr,
                          nullptr, {.max_steps = 500});
    EXPECT_EQ(run.stop, StopReason::kStepLimit);
    AdmissibilityReport adm = check_admissibility(run);
    EXPECT_FALSE(adm.conclusive);
}

TEST(Admissibility, FlagsUndeliveredMessages) {
    // A scheduler that stops early leaves messages undelivered.
    algo::FloodingKSet algorithm(2);
    std::vector<StepChoice> script;
    StepChoice c;
    c.process = 1;
    script.push_back(c);  // p1 broadcasts, then we stop
    ScriptedScheduler sched(script);
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, sched);
    AdmissibilityReport adm = check_admissibility(run);
    EXPECT_FALSE(adm.admissible);
    EXPECT_FALSE(adm.violations.empty());
}

// ----------------------------------------------------- run queries / Def 2

TEST(Run, DigestSequencesAndIndistinguishability) {
    algo::FloodingKSet algorithm(2);
    // Run A: p3 dead.  Run B: p3 alive but silenced until 1,2 decide.
    FailurePlan plan_a;
    plan_a.set_initially_dead(3);
    RoundRobinScheduler rr;
    ksa::Run a = execute_run(algorithm, 3, distinct_inputs(3), plan_a, rr);

    PartitionScheduler part({{1, 2}});
    ksa::Run b = execute_run(algorithm, 3, distinct_inputs(3), {}, part);

    EXPECT_TRUE(indistinguishable_for(a, b, 1));
    EXPECT_TRUE(indistinguishable_for(a, b, 2));
    EXPECT_TRUE(indistinguishable_for_all(a, b, {1, 2}));
    // p3's experience differs radically (dead vs deciding).
    EXPECT_FALSE(indistinguishable_for(a, b, 3));
}

TEST(Run, ReceptionQueries) {
    algo::FloodingKSet algorithm(3);
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 3, distinct_inputs(3), {}, rr);
    auto times = run.receptions_from(1, {2, 3});
    EXPECT_FALSE(times.empty());
    EXPECT_FALSE(run.silent_from_until(1, {2, 3}, kNever));
    EXPECT_TRUE(run.silent_from_until(1, {2, 3}, times.front()));
}

TEST(Run, DistinctDecisionsByGroup) {
    algo::TrivialWaitFree algorithm;
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 4, {5, 5, 7, 7}, {}, rr);
    EXPECT_EQ(run.distinct_decisions().size(), 2u);
    EXPECT_EQ(run.distinct_decisions({1, 2}).size(), 1u);
    EXPECT_EQ(run.distinct_decisions({2, 3}).size(), 2u);
}

// ------------------------------------------------------------------ model

TEST(Model, DescriptorsAndClassification) {
    ModelDescriptor masync = ModelDescriptor::asynchronous();
    EXPECT_FALSE(consensus_solvable_with_one_crash(masync));

    ModelDescriptor t2 = ModelDescriptor::theorem2();
    EXPECT_FALSE(consensus_solvable_with_one_crash(t2));

    ModelDescriptor sync = t2;
    sync.communication = CommSync::kSynchronous;
    EXPECT_TRUE(consensus_solvable_with_one_crash(sync));

    ModelDescriptor ordered = masync;
    ordered.order = MessageOrder::kOrdered;
    ordered.transmission = Transmission::kBroadcast;
    EXPECT_TRUE(consensus_solvable_with_one_crash(ordered));

    EXPECT_NE(masync.to_string(), t2.to_string());
    EXPECT_THROW(
        consensus_solvable_with_one_crash(ModelDescriptor::asynchronous_with_fd()),
        UsageError);
}

TEST(Trace, SummaryAndFullTraceRender) {
    algo::TrivialWaitFree algorithm;
    RoundRobinScheduler rr;
    ksa::Run run = execute_run(algorithm, 2, {4, 9}, {}, rr);
    std::string summary = run_summary(run);
    EXPECT_NE(summary.find("trivial-wait-free"), std::string::npos);
    EXPECT_NE(summary.find("p1:4"), std::string::npos);
    std::string full = trace_string(run);
    EXPECT_NE(full.find("DECIDE"), std::string::npos);
}

}  // namespace
}  // namespace ksa
