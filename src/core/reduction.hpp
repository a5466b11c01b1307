#pragma once
// State-space reduction for the explorer (core/explorer.hpp).
//
// The explorer's reduction layer (ExploreConfig::reduction) shrinks the
// explored configuration space along three orthogonal axes; this module
// holds the machinery shared by both.  doc/performance.md carries the
// full soundness argument; the short form:
//
//   * SYMMETRY.  Process ids are wiring labels: permuting them permutes
//     runs.  For the subgroup G of permutations that fix the inputs
//     vector and the FailurePlan (and that the algorithm declares
//     itself equivariant under -- Algorithm::symmetry), two states in
//     the same G-orbit have renamed-isomorphic futures, so the explorer
//     keeps one representative per orbit.  The dedup key of a state is
//     the MINIMUM over G of the renamed state's 128-bit digest; decision
//     VALUE sets are G-invariant, and per-process quiescent outcome
//     vectors are recovered by orbit-expanding the representatives'
//     outcomes over G.
//
//   * ABSORPTION.  Some of what a configuration records is
//     observationally dead: a decided process of an algorithm whose
//     decisions are final (Algorithm::decided_is_final) never emits
//     anything again, so its internal bookkeeping, buffered messages
//     and crash flag cannot influence any future decision or outcome;
//     and a message the receiver provably ignores forever
//     (Behavior::message_inert) is dead weight wherever it sits --
//     delivering a prefix that spans dead messages is
//     indistinguishable from delivering its live subsequence.  The
//     reduced engine keys decided processes on their decision value
//     alone, deletes dead messages from buffer keys, skips decided
//     processes' step choices, and treats decided processes as
//     drained when classifying quiescence.  States that differ only
//     in dead bookkeeping collapse to one representative whose
//     explored futures cover (up to empty-delivery stutter steps,
//     available everywhere) the futures of them all.
//
//   * PARTIAL ORDER.  Two step choices of different processes commute
//     when neither decides and neither's surviving sends touch the
//     other's buffer or a common destination; interleavings that differ
//     only in the order of commuting steps reach the same state through
//     the same multiset of decision events.  The reduced engine
//     exploits this with a persistent-set style filter (explorer.cpp,
//     expand_reduced): when some process's every delivery-mode move is
//     decision-free and send-free toward live processes, and every
//     OTHER live process is send-quiescent (Behavior::may_send), that
//     process's moves commute with everything the rest of the system
//     can ever do -- so only that process is expanded and the siblings
//     of other processes are skipped (counted as por_skips).
//
// What is preserved: violation_found, reachable_decision_sets and
// quiescent_outcomes -- NOT state or expansion counts (shrinking those
// is the point).  See doc/performance.md for what weakens under
// max_depth / max_states truncation.
//
// This module is also the only place allowed to hold canonicalization /
// interning tables (ksa_analyze rule interning-outside-reduction): the
// tag-interning memo below is shared mutable state, which the rest of
// the library bans outside exec/.

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/reduction_options.hpp"
#include "sim/behavior.hpp"
#include "sim/digest.hpp"
#include "sim/failure_plan.hpp"
#include "sim/payload.hpp"
#include "sim/types.hpp"

namespace ksa {
class System;
}  // namespace ksa

namespace ksa::core {

// ReductionOptions itself lives in core/reduction_options.hpp (an
// ordinary public header): this header is private to the reduction TU
// and its driver (core/explorer.cpp) -- see src/lint/layers.def.

/// Absorption switches derived once per exploration from
/// ReductionOptions::absorption and the algorithm's declarations; the
/// all-false default is the identity quotient (the full configuration
/// space).
struct AbsorptionContext {
    /// Strip maximal inert suffixes of buffers from dedup keys
    /// (Behavior::message_inert; a no-op for behaviors that never
    /// declare anything inert).
    bool strip_inert = false;
    /// Key decided processes on (decided, value) alone -- buffers,
    /// crash flags and internal bookkeeping of decided processes leave
    /// the key; requires Algorithm::decided_is_final().
    bool decided_final = false;
};

/// Permutation-enumeration cap for SymmetryGroup::compute: above this
/// many processes the group is forced trivial (n! enumeration; the
/// explorer itself is only tractable well below this anyway).
inline constexpr int kMaxSymmetryProcesses = 8;

// ---------------------------------------------------------------------
// Symmetry group.

/// The subgroup of process renamings the reduced explorer may quotient
/// by: permutations pi of 1..n such that
///
///   * the algorithm declares equivariance (SymmetryKind != kNone, with
///     fold_state_renamed / rename_payload_ids support probed on a
///     throwaway behavior);
///   * the inputs vector is fixed: inputs[pi(p)-1] == inputs[p-1];
///   * for kBlockSymmetric additionally every equal-input class is a
///     contiguous id block (else the group is forced trivial);
///   * the FailurePlan is fixed: pi maps faulty processes to faulty
///     processes with equal step allowances and pi-consistent omission
///     sets.
///
/// Element 0 is always the identity.  Computed once per exploration.
class SymmetryGroup {
public:
    /// The identity-only group on n processes (n >= 1).
    static SymmetryGroup trivial(int n);

    /// Computes the full admissible subgroup (see class comment).
    /// Falls back to trivial() whenever any precondition fails -- a
    /// missing override degrades performance, never soundness.
    static SymmetryGroup compute(const Algorithm& algorithm, int n,
                                 const std::vector<Value>& inputs,
                                 const FailurePlan& plan);

    bool is_trivial() const { return renamings_.size() <= 1; }
    std::size_t size() const { return renamings_.size(); }

    /// Element g as a renaming: renaming(g)[p-1] is the new name of p.
    /// renaming(0) is the identity.
    const ProcessRenaming& renaming(std::size_t g) const {
        return renamings_[g];
    }

    /// Inverse of element g: inverse(g)[r-1] is the process whose new
    /// name is r.  Precomputed because canonical hashing walks states
    /// in renamed-position order.
    const ProcessRenaming& inverse(std::size_t g) const {
        return inverses_[g];
    }

    /// Applies element g to a per-process outcome vector: the renamed
    /// execution's process renaming(g)[p-1] ends in the state process p
    /// ended in, so out[renaming(g)[p-1]-1] = o[p-1].  Used to
    /// orbit-expand quiescent outcomes.
    std::vector<Value> apply_to_outcome(std::size_t g,
                                        const std::vector<Value>& o) const;

private:
    std::vector<ProcessRenaming> renamings_;  ///< [0] is the identity
    std::vector<ProcessRenaming> inverses_;
};

// ---------------------------------------------------------------------
// Payload-tag interning.
//
// Reduced-mode message digests replace the tag string's byte walk with
// one 64-bit interned id.  Ids are CONTENT-DERIVED (a hash of the tag
// bytes), so they are deterministic across runs, threads and insertion
// orders -- interning changes how fast a key is computed, never which
// states collide.  The memo exists to amortize the hash and to detect
// (vanishingly unlikely) 64-bit id collisions between distinct tags,
// which would otherwise silently merge states.

class TagInterner {
public:
    /// The process-wide interner.  Thread-safe.
    static TagInterner& global();

    /// Returns the interned id of `tag`, registering it on first use.
    /// Aborts (invariant) if a distinct tag already owns the id.
    std::uint64_t intern(std::string_view tag);

    /// Number of distinct tags registered so far (observability/tests).
    std::size_t size() const;

private:
    // Shared mutable memo; confined to this module by the
    // interning-outside-reduction lint rule.  Content-derived ids keep
    // results independent of lock interleaving.
    mutable std::mutex mu_;  // ksa-lint: allow(threading-outside-exec)
    std::map<std::string, std::uint64_t, std::less<>> memo_;
    std::map<std::uint64_t, std::string> owners_;
};

/// Interns through a thread-local cache in front of TagInterner::global()
/// -- the hot path of reduced message hashing takes no lock after the
/// first sighting of a tag on each thread.
std::uint64_t intern_tag(std::string_view tag);

// ---------------------------------------------------------------------
// Renamed / reduced state hashing.
//
// The reduced engine keys states on min over G of the renamed state's
// digest.  The identity element reuses the explorer's incremental
// caches (explorer.cpp) with the reduced message digest below; the
// non-identity elements fold a child from its parent's renamed-digest
// table (RenamedChildKeys) or, for a whole state, re-walk it through
// the renaming.  All functions fold EXACTLY the same field sequence as the
// explorer's cached child walk (hash_child_reduced), so that for the identity
// renaming the cached and walked digests coincide (debug builds assert
// this on every realized child).

/// Reusable scratch for renamed hashing: one per worker, reset-free
/// (every helper overwrites what it uses).  Exists to keep the hot path
/// allocation-lean: payload copies and sub-hashers are recycled across
/// candidates instead of constructed per message.
struct RenameScratch {
    Payload payload;  ///< renamed copy of a message payload
    StateHasher sub;  ///< per-behavior / per-message sub-hasher
};

/// Reduced digest of one buffered message: sender id + interned tag id
/// + length-prefixed ints/lists.  Two messages collide iff sender, tag
/// and contents are equal -- the partition of the oracle's
/// `from:payload` strings.
Digest128 reduced_msg_hash(ProcessId from, const Payload& payload);

/// reduced_msg_hash of the message as the renamed execution would hold
/// it: sender mapped through `ren`, payload ids rewritten by
/// Algorithm::rename_payload_ids.  Aborts (invariant) if the algorithm
/// refuses the payload -- SymmetryGroup::compute probed support, so a
/// refusal mid-run is a contract violation, not a fallback case.
Digest128 renamed_msg_hash(ProcessId from, const Payload& payload,
                           const Algorithm& algorithm,
                           const ProcessRenaming& ren, RenameScratch& scratch);

/// Digest of one behavior's renamed local state (fold_state_renamed in
/// a fresh sub-hasher).  Aborts (invariant) if the behavior refuses.
Digest128 renamed_behavior_hash(const Behavior& behavior,
                                const ProcessRenaming& ren,
                                StateHasher& sub);

/// True iff the absorption quotient deletes this buffered message from
/// dedup keys: the receiver declares it inert (Behavior::message_inert
/// -- delivering it is a behavioral no-op, in this state and every
/// future one).  Dead messages are deleted ANYWHERE in the buffer, not
/// only in a suffix: delivering a prefix that spans dead messages is
/// indistinguishable from delivering its live subsequence, and the
/// one delivery-granularity gap that deletion opens (the quotient
/// peer can single-deliver its first LIVE message while the original
/// state's head is dead) is bridged by empty-delivery steps, which are
/// in every process's menu at every state.  doc/performance.md carries
/// the stuttering argument and what weakens under depth truncation.
inline bool dead_message(ProcessId from, const Payload& payload,
                         const Behavior& receiver,
                         const AbsorptionContext& abs) {
    return abs.strip_inert && receiver.message_inert(from, payload);
}

/// Reduced-mode full-state digest (identity renaming): the explorer's
/// key of a whole configuration, with reduced_msg_hash as the message
/// digest and the absorption quotient applied (decided processes fold
/// to their decision, inert buffer suffixes are stripped).  Root key
/// and debug cross-check.
Digest128 reduced_hash_state(const System& sys, int n,
                             const AbsorptionContext& abs);

/// Full-state digest of the configuration as renamed by `ren`
/// (inverse `inv` precomputed by SymmetryGroup): position r of the
/// renamed configuration is position inv[r-1] of `sys`.  Applies the
/// same absorption quotient as reduced_hash_state.
Digest128 hash_state_renamed(const System& sys, int n,
                             const Algorithm& algorithm,
                             const ProcessRenaming& ren,
                             const ProcessRenaming& inv,
                             RenameScratch& scratch,
                             const AbsorptionContext& abs);

/// The effects of one ghost step (explorer.cpp) in the shape renamed
/// child hashing needs: everything is borrowed from the ghost-stepping
/// caller, nothing is copied.
struct GhostEffects {
    ProcessId stepper = 0;
    std::size_t delivered = 0;  ///< delivered prefix length of stepper's buffer
    bool final_crash = false;
    const std::set<ProcessId>* omit_to = nullptr;  ///< final-step omissions
    const std::vector<std::pair<ProcessId, Payload>>* sends = nullptr;
    const std::optional<Value>* decision = nullptr;  ///< decision of the step
    const Behavior* behavior_after = nullptr;  ///< stepper's stepped clone

    bool send_survives(ProcessId dest) const {
        return !(final_crash && omit_to != nullptr &&
                 omit_to->count(dest) != 0);
    }
};

/// Renamed child keys of one parent configuration, computed from a
/// per-parent digest table instead of a fresh renamed walk per child.
///
/// A child differs from its parent only in the stepper (delivered
/// prefix, crash flag, decision, behavior) and in the sends arriving in
/// other buffers.  build() therefore digests, once per parent and for
/// every non-identity element g, every buffered message and every
/// stepped behavior of each process the absorption quotient keeps, plus
/// the dead-message flags under the parent's receivers (inertness does
/// not depend on the renaming).  min_key() then does the g-independent
/// work of a child once -- the stepper's dead flags judged by its
/// stepped clone, the liveness of each arriving send, each buffer's
/// live messages -- and per g digests only the arriving sends and the
/// stepped behavior, folding everything else from the table.  The
/// folded field sequence and sub-digests are exactly those of
/// hash_state_renamed on the realized child, so keys are bit-identical
/// to a full renamed walk (debug builds cross-check every child).
///
/// Cost: build() is |G|-1 times (buffered messages + stepped processes)
/// renamed digests; min_key() is, per element, the arriving sends plus
/// one behavior digest and the folds.  The table holds (|G|-1) *
/// (messages + n) digests, so it grows with the group order (up to 8!
/// at kMaxSymmetryProcesses).  One per worker; reused across parents.
class RenamedChildKeys {
public:
    /// Binds the table to `parent` and fills it.  `parent`, `algorithm`
    /// and `group` must outlive every min_key() call until the next
    /// build().
    void build(const System& parent, int n, const Algorithm& algorithm,
               const SymmetryGroup& group, const AbsorptionContext& abs);

    /// min(key, min over g >= 1 of the renamed digest of the child the
    /// ghost step `eff` reaches from the bound parent).
    Digest128 min_key(const GhostEffects& eff, Digest128 key);

private:
    const System* sys_ = nullptr;
    const Algorithm* algorithm_ = nullptr;
    const SymmetryGroup* group_ = nullptr;
    AbsorptionContext abs_;
    int n_ = 0;
    /// msg_begin_[q-1]: the table-row slot of q's oldest buffered
    /// message; absorbed processes own no slots.
    std::vector<std::size_t> msg_begin_;
    std::size_t num_msgs_ = 0;  ///< slots per row
    std::vector<std::uint8_t> dead_;  ///< per slot, under the parent's receiver
    std::vector<Digest128> msg_;      ///< row g-1: renamed message digests
    std::vector<Digest128> behavior_;  ///< row g-1: renamed behavior digests
    RenameScratch scratch_;
    // Per-child scratch, recycled across children.
    std::vector<std::optional<Value>> decision_;  ///< child decision per process
    std::vector<std::size_t> live_begin_;  ///< live_[..] range per process
    /// The child's live buffer entries in fold order: < num_msgs_ is a
    /// table slot, otherwise num_msgs_ + index into arriving_.
    std::vector<std::size_t> live_;
    std::vector<const Payload*> arriving_;  ///< live arriving sends
    std::vector<Digest128> arriving_digest_;  ///< their renamed digests, per g
};

/// Canonical key of a live System: minimum over the group of the
/// renamed full-state digests (identity via reduced_hash_state), with
/// the absorption quotient applied on every path.  The reduced
/// engine's root key and the debug cross-check of materialized nodes.
Digest128 canonical_state_key(const System& sys, int n,
                              const Algorithm& algorithm,
                              const SymmetryGroup& group,
                              RenameScratch& scratch,
                              const AbsorptionContext& abs);

}  // namespace ksa::core
