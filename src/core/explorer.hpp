#pragma once
// Bounded exhaustive schedule exploration.
//
// The universal quantifier of an impossibility theorem ("no algorithm")
// cannot be executed, but for a *fixed* algorithm and small n the dual
// quantifier ("no schedule violates / some schedule violates") can: this
// module enumerates every adversarial schedule up to a depth bound,
// where at each step the adversary picks (a) which live process steps
// and (b) one of three delivery modes for that step -- nothing, the
// oldest buffered message, or the whole buffer.  These three modes
// suffice to realize every schedule the paper's constructions use, while
// keeping the branching factor at 3n.
//
// States reached by different schedules are deduplicated by
// configuration digest, so the search explores the reachable
// configuration space rather than the schedule tree.  Results:
//
//   * every decision set reachable at quiescence (the "valence" of the
//     initial configuration);
//   * a violation witness schedule if some reachable decisive state has
//     more than k distinct decisions -- the executable form of "this
//     candidate algorithm allows runs that make k-set agreement
//     impossible" (the remark after Theorem 1);
//   * whether the bound was exhaustive (no frontier node hit the depth
//     cap), in which case the absence of a violation is a *verified*
//     small-case possibility result for the fixed plan.
//
// Engine (see doc/performance.md for the full design):
//
//   * the BFS frontier is a list of 16-byte delta records in an
//     out-of-core store (src/store/); a node's live System is
//     re-materialized by forking its parent and replaying one step;
//   * a candidate child's dedup key is computed by ghost-stepping one
//     behavior and patching the parent's cached digests, so rejected
//     duplicates are never materialized; each worker memoizes these
//     local transitions, so a distinct (process, state, delivered
//     prefix) is stepped once;
//   * frontier layers are expanded in parallel on the work-stealing
//     scheduler (exec/task_scheduler.hpp, via exec/parallel_map.hpp)
//     and merged sequentially in input order, so N-thread output is
//     byte-identical to 1-thread output;
//   * deduplication keys are deterministic 128-bit hashes
//     (sim/digest.hpp), optionally canonicalized by the reduction
//     layer (ExploreConfig::reduction); states are inserted in BFS
//     order, so the max_states truncation cuts the same frontier
//     regardless of thread count or store sizing.
//
// With ReductionOptions::none() the engine explores the full
// configuration space.  tests/support/explore_oracle.hpp holds an
// independent, string-keyed, replay-based implementation of the same
// search; the golden equivalence suite requires bit-identical results
// from both.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/reduction_options.hpp"
#include "sim/behavior.hpp"
#include "sim/failure_plan.hpp"
#include "sim/run.hpp"
#include "sim/scheduler.hpp"
#include "store/store_options.hpp"

namespace ksa::core {

/// The exploration engine.  There is one: the store-path ghost-step
/// BFS with the reduction layer (core/reduction_options.hpp) on top;
/// ReductionOptions::none() makes it explore the full space.  Kept as a
/// one-value enum because existing configuration code assigns it.
enum class ExploreMode {
    kReduced,
};

/// Exploration parameters.
struct ExploreConfig {
    int n = 0;
    std::vector<Value> inputs;
    FailurePlan plan;      ///< fixed crash plan (explore plans separately)
    int k = 1;             ///< violation threshold: > k distinct decisions
    int max_depth = 12;    ///< schedule length bound
    std::size_t max_states = 200000;  ///< safety cap on distinct states
    ExploreMode mode = ExploreMode::kReduced;
    /// Worker threads for layer-parallel expansion (1 = sequential).
    /// Output is byte-identical for every value.  Layers smaller than
    /// exec::TaskScheduler::sequential_threshold run inline on the
    /// calling thread: per-region handoff overhead dwarfs the work on
    /// tiny layers.
    int threads = 1;
    /// Which reductions apply.  All on by default; set
    /// ReductionOptions::none() to explore the full configuration
    /// space.  With any axis on, the engine explores a *quotient*:
    /// states_explored / schedules_expanded shrink, while
    /// violation_found, reachable_decision_sets and quiescent_outcomes
    /// are preserved (exactly on exhaustive explorations;
    /// doc/performance.md spells out what weakens under max_depth /
    /// max_states truncation).
    ReductionOptions reduction;
    /// Record per-layer frontier sizes into ExploreResult
    /// (observability; off by default to keep results lean).
    bool collect_layer_sizes = false;
    /// Sizing of the out-of-core store: visited-set sharding, the
    /// probabilistic dedup tier, the delta-frontier spill budget and
    /// the expansion block size.  Every knob trades CPU or resident
    /// memory only -- results are byte-identical for every setting (the
    /// equivalence suite sweeps them).
    store::StoreOptions store;
};

/// The deterministic outcome of an exploration: a pure function of the
/// algorithm and the ExploreConfig, identical for every thread count and
/// store sizing, and (under ReductionOptions::none()) identical to the
/// test oracle's.  Every equivalence check compares results with this
/// one equality; nothing machine- or timing-dependent may live here.
struct ExploreOutcome {
    std::size_t states_explored = 0;
    std::size_t schedules_expanded = 0;
    /// Candidate children rejected because their key was already in the
    /// visited set -- the edge-over-vertex surplus of the reachable
    /// graph.  With ReductionOptions::none() identical to the test
    /// oracle's (same candidates, same partition); with symmetry on it
    /// additionally counts orbit merges.
    std::size_t dedup_hits = 0;
    /// Step choices skipped by the reduction layer (0 with por and
    /// absorption off): persistent-set sibling moves plus the skipped
    /// moves of absorbed (decided, decisions-final) processes.
    std::size_t por_skips = 0;
    bool exhaustive = true;  ///< no node was cut off by max_depth/max_states
    bool violation_found = false;
    std::vector<StepChoice> witness;  ///< schedule reaching the violation
    /// All decision-vectors (one optional value per process, kNoValue for
    /// undecided) observed at quiescent states.
    std::set<std::vector<Value>> quiescent_outcomes;
    /// All distinct decision-value sets observed anywhere.
    std::set<std::set<Value>> reachable_decision_sets;

    std::string summary() const;

    friend bool operator==(const ExploreOutcome&,
                           const ExploreOutcome&) = default;
};

/// Exploration result: the outcome plus observability that the outcome
/// equality deliberately ignores.
struct ExploreResult : ExploreOutcome {
    /// Frontier size of each BFS layer, filled iff
    /// ExploreConfig::collect_layer_sizes (the test oracle never fills
    /// it).
    std::vector<std::size_t> layer_frontier_sizes;
    /// Successful work steals during this exploration.  Scheduler
    /// observability: timing-dependent by design, so excluded from the
    /// oracle and cross-thread equivalence comparisons and from every
    /// report.
    std::uint64_t parallel_steals = 0;
    /// Out-of-core store observability.  The tier counters and spill
    /// tallies are DETERMINISTIC for a fixed StoreOptions -- pure
    /// functions of the key/record streams, which are byte-identical
    /// across thread counts -- so the equivalence suite pins them on top
    /// of the outcome equality; replay_steps and spill_reads
    /// depend on which worker materialized which node (spine cache
    /// locality), so like parallel_steals they are excluded from every
    /// comparison.
    /// Visited-store shard count in effect (2^StoreOptions::shard_bits).
    std::size_t store_shards = 0;
    /// Dedup probes the probabilistic tier answered "definitely new"
    /// without touching the exact table.
    std::uint64_t filter_definite_new = 0;
    /// Dedup probes the filter passed through but the exact table
    /// rejected as absent -- the filter's false positives (observed
    /// FPR = fp / (fp + definite_new)).
    std::uint64_t filter_false_positives = 0;
    /// Frontier delta records spilled to disk / their byte volume.
    std::uint64_t spilled_records = 0;
    std::uint64_t spill_bytes = 0;
    /// Delta-chain steps replayed by re-materialization (spine cache
    /// misses; timing-dependent).
    std::uint64_t replay_steps = 0;
    /// Candidates recognised as stutters from their ghost step -- no
    /// decision, crash or send, an unchanged behavior digest, only dead
    /// messages delivered -- and counted into dedup_hits without a
    /// child key or a visited-store probe.  Deterministic and
    /// thread-count invariant, but outside the outcome equality: the
    /// test oracle has no ghost steps to recognise them from.
    std::uint64_t stutter_hits = 0;
    /// Local-transition memo lookups, summed over workers: candidates
    /// whose ghost step was read from the worker's memo (hits) or run on
    /// a behavior clone and stored (misses).  Deterministic at 1 thread;
    /// with more, they depend on which worker expanded which node.
    /// Outside the outcome equality, like stutter_hits.
    std::uint64_t transition_memo_hits = 0;
    std::uint64_t transition_memo_misses = 0;
    /// Spilled-record reads during re-materialization (timing-dependent).
    std::uint64_t spill_reads = 0;
    /// Peak bytes resident in the store-owned structures (visited
    /// shards + delta window), sampled per expansion block.
    std::size_t peak_resident_bytes = 0;
};

/// Runs the exploration for `algorithm` (which must not use a failure
/// detector -- exploring oracle nondeterminism is out of scope).
ExploreResult explore_schedules(const Algorithm& algorithm,
                                const ExploreConfig& config);

}  // namespace ksa::core
