#pragma once
// State-space reduction for the explorer (core/explorer.hpp).
//
// The explorer's reduction layer (ExploreConfig::reduction) shrinks the
// explored configuration space along three orthogonal axes; this module
// holds their machinery and the format of the dedup key all three
// shape.  doc/performance.md carries the full soundness argument; the
// short form:
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
//     expand): when some process's every delivery-mode move is
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
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
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
    /// Delete dead messages, wherever they sit in a buffer, from dedup
    /// keys (dead_message; a no-op for behaviors that never declare
    /// anything inert).
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
// Message and behavior digests.

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

// ---------------------------------------------------------------------
// The dedup key.
//
// The engine deduplicates on this logical state, per process: crash
// flag, decision (if any), the live buffer contents in arrival order
// (sender + payload; message ids are simulator bookkeeping and excluded,
// so content-equal states reached by different schedules deduplicate),
// and -- iff the process has stepped at least once -- its behavior
// digest.  The absorption quotient folds a decided process of a
// decisions-are-final algorithm to its decision alone and deletes dead
// messages.  Under a renaming g, position r of the key holds process
// inverse(g)[r-1], every digest taken under renaming(g); the key of a
// state is the minimum over the symmetry group.
//
// A KeyLayout holds what a key folds independently of the renaming;
// fold_key is the one function that knows the field sequence.  Two
// producers fill layouts: canonical_state_key reads a live System, and
// ChildKeys describes a candidate child from its parent's spine caches
// and the child's ghost step, without materializing it.  Both fold the
// same sequence, so a child's key equals the canonical key of the
// realized child (debug builds check it on every child emitted under a
// non-trivial group).

/// One process's entry of a KeyLayout, in original ids.
struct KeyProcess {
    std::optional<Value> decision;
    /// Decided under AbsorptionContext::decided_final: the process folds
    /// to its decision alone.
    bool absorbed = false;
    bool crashed = false;
    bool stepped = false;
    /// The process's live buffer entries:
    /// KeyLayout::live[live_begin, live_end).
    std::size_t live_begin = 0;
    std::size_t live_end = 0;
};

/// The renaming-independent content of a key.  Each live buffer entry
/// is a slot, an index whose meaning belongs to the producer; fold_key
/// digests it through the producer's callable.
struct KeyLayout {
    std::vector<KeyProcess> procs;  ///< procs[q-1]
    /// Slots; a process's range holds its live entries in arrival
    /// order.  Ranges need not follow process order, and entries outside
    /// every range are never read.
    std::vector<std::size_t> live;
};

/// The one fold of a dedup key.  Walks `k` in position order -- position
/// r holds process order[r-1]: SymmetryGroup::inverse(g), the identity
/// for element 0 -- and digests a slot as `msg(slot)` and a stepped
/// process q as `behavior(q)`, both under the renaming being folded.
/// Variable-length fields are length-prefixed, so distinct layouts feed
/// distinct sequences.
template <class MsgDigest, class BehaviorDigest>
Digest128 fold_key(const KeyLayout& k, const ProcessRenaming& order,
                   MsgDigest&& msg, BehaviorDigest&& behavior) {
    StateHasher h;
    for (ProcessId q : order) {
        const KeyProcess& p = k.procs[static_cast<std::size_t>(q) - 1];
        if (p.absorbed) {
            // The marker 2 is disjoint from the 0/1 of the crash flag.
            h.u64(2);
            h.i64(*p.decision);
            continue;
        }
        h.u64(p.crashed ? 1 : 0);
        h.u64(p.decision ? 1 : 0);
        if (p.decision) h.i64(*p.decision);
        h.u64(p.live_end - p.live_begin);
        for (std::size_t e = p.live_begin; e < p.live_end; ++e)
            h.fold(msg(k.live[e]));
    }
    for (ProcessId q : order) {
        const KeyProcess& p = k.procs[static_cast<std::size_t>(q) - 1];
        if (p.absorbed) continue;  // collapsed with the marker above
        h.u64(p.stepped ? 1 : 0);
        if (p.stepped) h.fold(behavior(q));
    }
    return h.digest();
}

/// Canonical key of a live System: the minimum over the group of the
/// folded key, every digest computed afresh from the System (fold_state
/// and fresh message digests, never a cache).  The explorer's root key
/// and the debug cross-check of ghost-step child keys.
Digest128 canonical_state_key(const System& sys, int n,
                              const Algorithm& algorithm,
                              const SymmetryGroup& group,
                              RenameScratch& scratch,
                              const AbsorptionContext& abs);

// ---------------------------------------------------------------------
// Child keys.

/// What a local transition produces: the stepped behavior, the step's
/// output and their digests.  Immutable once built; the explorer's
/// transition memo shares one between every candidate that steps to it.
struct Transition {
    /// The stepped clone, kept because dead-message judgement and
    /// renamed child keys (fold_state_renamed) read it again.
    std::unique_ptr<const Behavior> behavior;
    StepOutput out;                    ///< sends + decision of the step
    Digest128 bhash{};                 ///< behavior_state_hash() after the step
    /// reduced_msg_hash of every send, in emission order.
    std::vector<Digest128> send_hash;
};

/// One candidate step: the stepper delivering the first `delivered`
/// messages of its buffer, taken as the transition `t`, plus what
/// depends on the configuration around it -- the step counts and the
/// crash plan.
struct GhostStep {
    ProcessId stepper = 0;
    std::size_t delivered = 0;  ///< length of the delivered buffer prefix
    const Transition* t = nullptr;
    /// The step is a stutter unless it is the stepper's final step
    /// (explorer.cpp, is_stutter).
    bool idle = false;
    bool final_crash = false;  ///< step count hit the crash plan
    const std::set<ProcessId>* omit_to = nullptr;  ///< final-step omissions

    /// True iff the send to `dest` actually reaches its buffer.
    bool send_survives(ProcessId dest) const {
        return !(final_crash && omit_to != nullptr && omit_to->count(dest) != 0);
    }
};

/// Canonical keys of the children of one parent node, folded from the
/// parent's caches instead of a walk of each realized child.
///
/// A child differs from its parent only in the stepper (delivered
/// prefix, crash flag, decision, behavior) and in the sends arriving in
/// other buffers.  bind() therefore lays out the parent once, judging
/// every buffered message's dead flag under its receiver, and copies
/// the spine caches into row 0 of its digest tables; for a group of
/// order > 1 it also digests every buffered message and stepped
/// behavior under every element g >= 1.  key() builds the child's
/// layout once from the parent's -- the stepper's leftover buffer
/// judged by its stepped clone, each arriving send by its receiver --
/// then folds element 0 from row 0 and Transition::send_hash/bhash,
/// and each g >= 1 from row g, digesting afresh only the arriving sends
/// and the stepped behavior.
///
/// The renamed table holds (|G|-1) * (messages + n) digests, so it
/// grows with the group order (up to 8! at kMaxSymmetryProcesses).  One
/// per worker; its vectors are recycled across parents.
class ChildKeys {
public:
    /// Binds to `parent`, whose spine caches are `marks` (per process)
    /// and `mhash` (per process, per buffered message).  `parent`,
    /// `algorithm` and `group` must outlive every key() call until the
    /// next bind(); the caches are copied.
    void bind(const System& parent, std::span<const BehaviorMark> marks,
              std::span<const std::vector<Digest128>> mhash,
              const Algorithm& algorithm, const SymmetryGroup& group,
              const AbsorptionContext& abs);

    /// Canonical key of the child that the ghost step `g` reaches from
    /// the bound parent.
    Digest128 key(const GhostStep& g);

private:
    const System* sys_ = nullptr;
    const Algorithm* algorithm_ = nullptr;
    const SymmetryGroup* group_ = nullptr;
    AbsorptionContext abs_;
    /// The parent's layout.  Slot i is the parent's buffered message
    /// msgs_[i], msg_begin_[q-1] the slot of q's oldest one (absorbed
    /// processes own none); slot msgs_.size() + j is the step's j-th
    /// send.
    KeyLayout parent_;
    std::vector<const Message*> msgs_;
    std::vector<std::size_t> msg_begin_;
    /// Row g: per slot, the message digest under element g.  Row 0 is
    /// the spine's cache.
    std::vector<Digest128> msg_;
    /// Row g: per process, the behavior digest under element g.  Row 0
    /// is the spine's cache.
    std::vector<Digest128> behavior_;
    RenameScratch scratch_;
    KeyLayout layout_;  ///< the current child's, recycled
};

}  // namespace ksa::core
