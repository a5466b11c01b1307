#include "core/explorer.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <tuple>
#include <sstream>
#include <utility>

#include "core/reduction.hpp"
#include "exec/parallel_map.hpp"
#include "exec/task_scheduler.hpp"
#include "sim/digest.hpp"
#include "sim/system.hpp"
#include "store/delta_store.hpp"
#include "store/rematerialize.hpp"
#include "store/visited_store.hpp"

namespace ksa::core {

namespace {

std::set<Value> decision_set(const System& sys, int n) {
    std::set<Value> out;
    for (ProcessId p = 1; p <= n; ++p) {
        auto d = sys.decision_of(p);
        if (d) out.insert(*d);
    }
    return out;
}

// ---------------------------------------------------------------------
// State keys.
//
// The dedup key's format lives in core/reduction.hpp (KeyLayout,
// fold_key).  A process's behavior digest enters the key only once the
// process has stepped, and that matters: the replay-based test oracle
// (tests/support/explore_oracle.hpp) recovers behavior digests from
// StepRecord::digest_after, which only exists for processes that
// stepped, so an unstepped process contributes the empty string.  The
// engine reproduces that convention exactly, so that with
// ReductionOptions::none() both partition the state space identically
// and the golden equivalence suite can require bit-identical
// ExploreResults.
//
// Behavior digests are the expensive part of a key (one fold over the
// whole local state).  A child configuration differs from its parent by
// exactly one step of one process, so the engine carries the digest
// vector alongside each node (on the rematerializer's spine, as
// BehaviorMarks and per-message digests) and re-digests only the
// stepped process's entry.

// ---------------------------------------------------------------------
// Ghost stepping.
//
// Exploration is dominated by candidate children that deduplication
// then rejects (the reachable graph has far more edges than vertices).
// The engine therefore computes a child's dedup key WITHOUT forking: it
// steps only the stepping process's behavior, and hashes the parent's
// configuration with the step's effects patched in -- p's delivered
// prefix removed from its buffer, the step's surviving sends appended
// to their destination buffers, p's decision/crash flag/behavior digest
// updated.  Only children that survive deduplication are recorded at
// all, and then as a 16-byte delta record, re-forked from its parent's
// live state only when its own expansion comes up (src/store/).
//
// The step itself is a local transition: a pure function of the
// stepper's id, its local state and the (from, payload) contents of the
// delivered prefix -- on_step may read nothing else (sim/behavior.hpp).
// An exploration reaches few distinct transitions (about 1.3 K on a
// 1.28 M-candidate pass), so each worker memoizes them: every distinct
// (p, state, delivered prefix) is stepped on a behavior clone once, and
// later candidates read the memo entry.

/// Transitions (core/reduction.hpp) with different keys often produce
/// the same outcome (on explore-verify 1,260 keys step to 60 distinct
/// behavior states), so the memo keeps one Transition per distinct
/// outcome and shares it between keys.
///
/// Orders transitions by their outcome digests: bhash, decision, then
/// each send's (dest, digest) in emission order.  Equal digests mean
/// equal behavior states and payloads up to the collisions the child
/// keys already assume; Debug builds compare the objects themselves.
struct TransitionLess {
    bool operator()(const Transition& a, const Transition& b) const {
        if (a.bhash != b.bhash) return a.bhash < b.bhash;
        if (a.out.decision != b.out.decision)
            return a.out.decision < b.out.decision;
        const std::size_t common =
                std::min(a.send_hash.size(), b.send_hash.size());
        for (std::size_t i = 0; i < common; ++i) {
            const auto x = std::tie(a.out.sends[i].first, a.send_hash[i]);
            const auto y = std::tie(b.out.sends[i].first, b.send_hash[i]);
            if (x != y) return x < y;
        }
        return a.send_hash.size() < b.send_hash.size();
    }
};

/// Steps a clone of p's behavior on the first `delivered` messages of
/// its buffer.  `scratch` is a caller-owned StepInput reused across
/// calls (System::deliver_prefix recycles the vector's capacity).
Transition run_transition(const System& sys, ProcessId p,
                          std::size_t delivered, StepInput& scratch) {
    Transition t;
    sys.deliver_prefix(p, delivered, scratch);
    std::unique_ptr<Behavior> b = sys.clone_behavior(p);
    t.out = b->on_step(scratch);
    t.bhash = behavior_state_hash(*b);
    t.behavior = std::move(b);
    t.send_hash.reserve(t.out.sends.size());
    for (const auto& [dest, payload] : t.out.sends)
        t.send_hash.push_back(reduced_msg_hash(p, payload));
    return t;
}

/// The memo key, borrowed: the stepper, its BehaviorMark in the parent
/// (for an unstepped process the mark is empty, and p with its fixed
/// input determines the state) and the digests of the delivered prefix,
/// all read off the rematerializer spine.  Compared on the digests
/// themselves: the memo adds no hash and so no collision beyond the
/// ones the visited store already assumes.
struct TransitionKeyRef {
    ProcessId p = 0;
    bool stepped = false;
    Digest128 hash{};
    std::span<const Digest128> delivered;
};

/// The owned form of a TransitionKeyRef, stored in the memo.
struct TransitionKey {
    ProcessId p = 0;
    bool stepped = false;
    Digest128 hash{};
    std::vector<Digest128> delivered;
};

struct TransitionKeyLess {
    using is_transparent = void;
    static TransitionKeyRef ref(const TransitionKey& k) {
        return {k.p, k.stepped, k.hash, k.delivered};
    }
    static const TransitionKeyRef& ref(const TransitionKeyRef& k) { return k; }
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
        const TransitionKeyRef& x = ref(a);
        const TransitionKeyRef& y = ref(b);
        const auto xs = std::tie(x.p, x.stepped, x.hash);
        const auto ys = std::tie(y.p, y.stepped, y.hash);
        if (xs != ys) return xs < ys;
        return std::lexicographical_compare(x.delivered.begin(),
                                            x.delivered.end(),
                                            y.delivered.begin(),
                                            y.delivered.end());
    }
};

/// A memoized local transition.
struct MemoEntry {
    const Transition* t = nullptr;
    /// The step is a stutter unless it is the stepper's final (crash)
    /// step: it decides nothing, sends nothing, leaves a `stepped`
    /// behavior digest where it was and delivers only messages that are
    /// dead for the stepped clone (see is_stutter).
    bool idle = false;
};

/// Per-worker local-transition memo.  Nothing is erased while a node is
/// expanded, so the entries handed out for one node stay valid until
/// its expansion ends.
class TransitionMemo {
  public:
    /// Keys kept across nodes; at or above it, begin_node() clears the
    /// memo.  A node adds at most 3n keys past it.
    static constexpr std::size_t kCap = 4096;

    /// Called before each node's expansion, never during one.
    void begin_node() {
        if (entries_.size() < kCap) return;
        entries_.clear();
        outcomes_.clear();
    }

    /// The transition of p delivering its first `delivered` buffered
    /// messages in `sys`, whose spine caches for p are `mark` and `mh`.
    MemoEntry step(const System& sys, ProcessId p, std::size_t delivered,
                   const BehaviorMark& mark, const std::vector<Digest128>& mh,
                   const AbsorptionContext& abs, StepInput& scratch) {
        const TransitionKeyRef key{
                p, mark.stepped, mark.hash,
                std::span<const Digest128>(mh.data(), delivered)};
        auto it = entries_.lower_bound(key);
        if (it != entries_.end() && !TransitionKeyLess{}(key, it->first)) {
            ++hits_;
#ifndef NDEBUG
            // The memoized transition must equal a fresh one.
            const Transition fresh = run_transition(sys, p, delivered, scratch);
            const Transition& t = *it->second.t;
            require(fresh.bhash == t.bhash &&
                            fresh.out.decision == t.out.decision &&
                            fresh.out.sends == t.out.sends,
                    "explorer: memoized transition differs from a fresh "
                    "ghost step");
#endif
            return it->second;
        }
        ++misses_;
        Transition fresh = run_transition(sys, p, delivered, scratch);
        auto out = outcomes_.find(fresh);
        if (out == outcomes_.end()) {
            out = outcomes_.insert(std::move(fresh)).first;
        } else {
#ifndef NDEBUG
            require(out->behavior->state_digest() ==
                                    fresh.behavior->state_digest() &&
                            out->out.sends == fresh.out.sends,
                    "explorer: transitions with equal outcome digests "
                    "differ");
#endif
        }
        MemoEntry e{&*out, !out->out.decision && out->out.sends.empty() &&
                                   mark.stepped && mark.hash == out->bhash};
        const auto& buf = sys.buffer(p);
        for (std::size_t i = 0; e.idle && i < delivered; ++i)
            e.idle = dead_message(buf[i].from, buf[i].payload, *out->behavior,
                                  abs);
        TransitionKey owned{key.p, key.stepped, key.hash,
                            {key.delivered.begin(), key.delivered.end()}};
        entries_.emplace_hint(it, std::move(owned), e);
        return e;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::map<TransitionKey, MemoEntry, TransitionKeyLess> entries_;
    std::set<Transition, TransitionLess> outcomes_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/// The candidate step of p delivering its first `delivered` messages,
/// taken as the memoized transition `m`.  The explorer's delivery modes
/// always deliver a *prefix* of the buffer (nothing / the oldest
/// message / the whole buffer), so the delivered set is just a prefix
/// length.
GhostStep ghost_step(const System& sys, ProcessId p, std::size_t delivered,
                     const MemoEntry& m) {
    GhostStep g;
    g.stepper = p;
    g.t = m.t;
    g.idle = m.idle;
    g.delivered = delivered;
    const int allowed = sys.plan().allowed_steps(p);
    g.final_crash = allowed >= 0 && sys.steps_of(p) + 1 == allowed;
    if (g.final_crash) g.omit_to = &sys.plan().spec(p).omit_to;
    return g;
}

// ---------------------------------------------------------------------
// The reduction layer (core/reduction.hpp) on top of the ghost-step
// BFS.  doc/performance.md carries the full soundness argument; in
// brief:
//
//   * SYMMETRY -- dedup keys are canonicalized to the minimum digest
//     over the symmetry group G (permutations fixing inputs + plan that
//     the algorithm declares equivariance under): one representative
//     per G-orbit is explored.  ChildKeys (core/reduction.hpp) folds
//     each child's key for every element from tables it builds once per
//     expanded parent: element 0 from the spine's incremental caches,
//     the others from renamed digests.
//     Decision-value sets are G-invariant; per-process quiescent
//     outcome vectors are orbit-expanded over G before the result is
//     returned.
//
//   * ABSORPTION -- the observational quotient of core/reduction.hpp:
//     when the algorithm declares decisions final, a decided process
//     folds to its decision value alone (buffer, crash flag and
//     internal bookkeeping leave the key), its step choices are
//     skipped, and quiescence classification treats it as drained --
//     the absorbed representative itself records the outcome its
//     drain-only descendants would have recorded.  Independently,
//     messages the receiver declares inert (Behavior::message_inert)
//     are deleted from every key, wherever they sit in the buffer.
//
//   * PARTIAL ORDER -- a persistent-set filter: when some enumerable
//     process's every delivery-mode move neither decides a fresh value
//     nor sends to a process that can still step (decided processes
//     of a decisions-are-final algorithm count as stopped), and every
//     OTHER steppable process is send-quiescent (Behavior::may_send),
//     that process's moves commute with everything the rest of the
//     system can ever do.  Only that process is expanded; the other
//     processes' moves are skipped and counted as por_skips.
//
// With any axis on, the engine explores a QUOTIENT of the reachable
// space: states_explored / schedules_expanded shrink, while
// violation_found, reachable_decision_sets and quiescent_outcomes are
// preserved (exactly so on exhaustive explorations).  With
// ReductionOptions::none() every step is the identity and the engine
// explores the full configuration space.

/// Quotient-aware quiescence: a process that has decided under a
/// decisions-are-final algorithm is absorbed -- its undrained buffer
/// and remaining (skipped) steps cannot change any decision, so the
/// configuration's outcome vector is already the outcome vector of the
/// fully drained configurations it represents.  Without absorption
/// this is plain quiescence: every faulty process is stopped, every
/// correct one has decided and drained its buffer.  Classifying
/// quiescence on the quotient is what keeps outcomes observable at
/// all: drain-only children hash equal to their parent and are
/// deduplicated away, so the absorbed representative itself must be
/// the state that records the outcome.
bool quiescent_reduced(const System& sys, const ExploreConfig& cfg,
                       const AbsorptionContext& abs) {
    for (ProcessId p = 1; p <= cfg.n; ++p) {
        if (abs.decided_final && sys.decision_of(p)) continue;  // absorbed
        if (cfg.plan.is_faulty(p)) {
            if (sys.can_step(p)) return false;
        } else {
            if (!sys.decision_of(p)) return false;
            // Dead (inert) leftovers don't block quiescence: the state
            // keys equal to its fully drained counterpart, so it must
            // also CLASSIFY like it, or the orbit's outcome would be
            // recorded by neither representative.
            const auto& buf = sys.buffer(p);
            const Behavior& recv = sys.behavior_of(p);
            for (const Message& m : buf)
                if (!dead_message(m.from, m.payload, recv, abs))
                    return false;
        }
    }
    return true;
}

/// True iff the ghost step `g` is a stutter: its child's key equals the
/// parent's, field for field.  The step decides nothing, does not
/// crash, sends nothing (without a final crash every send survives),
/// leaves the stepper's behavior digest where it was (the parent's mark
/// must already be `stepped`: a first step flips it), and delivers only
/// messages that are dead for the child's behavior -- so they were dead
/// for the parent's equal-state behavior too, and the parent's key
/// never held them.  All but the crash are properties of the transition
/// (MemoEntry::idle).  The parent's key is in the visited store
/// already, so a stutter is a certain dedup hit.
bool is_stutter(const GhostStep& g) { return g.idle && !g.final_crash; }

// ---------------------------------------------------------------------
// Expansion of one node.

/// A candidate child, described without materializing it: the
/// (stepper, delivered-prefix-length) pair fully describes the step --
/// exactly the payload of the DeltaRecord appended if the key survives
/// deduplication.
struct StoreChild {
    Digest128 key{};
    ProcessId stepper = 0;
    std::uint32_t delivered = 0;  ///< length of the delivered buffer prefix
};

struct StoreExpansion {
    std::set<Value> decided;
    bool is_quiescent = false;
    std::vector<Value> outcome;  ///< filled iff is_quiescent
    bool at_depth = false;
    std::size_t por_skips = 0;
    /// Stutter candidates (is_stutter): dedup hits that never reach the
    /// visited store.
    std::size_t stutters = 0;
    std::vector<StoreChild> children;
};

/// What every expansion of one exploration shares: the config plus the
/// reduction context derived from it once.
struct Exploration {
    const Algorithm& algorithm;
    const ExploreConfig& cfg;
    SymmetryGroup group;
    AbsorptionContext abs;
};

/// Per-worker state: the delta rematerializer plus ghost-step and
/// child-key scratch, reused across every node a worker expands.  Each
/// worker owns exactly one: nothing is shared.
struct Worker {
    std::unique_ptr<store::Rematerializer> remat;
    StepInput step;
    ChildKeys keys;  ///< bound to the node being expanded
    TransitionMemo transitions;
};

/// Classify, pick the persistent set, ghost-step and canonicalize the
/// surviving candidates of one materialized node.  Reads the node, the
/// calling worker's scratch and memo and clones single behaviors only
/// -- safe to run concurrently on distinct nodes.
StoreExpansion expand(const store::MaterializedNode& node, int depth,
                      const Exploration& x, Worker& wk) {
    const ExploreConfig& cfg = x.cfg;
    const AbsorptionContext& abs = x.abs;
    StoreExpansion e;
    const System& sys = *node.sys;
    wk.transitions.begin_node();
    e.decided = decision_set(sys, cfg.n);
    if (quiescent_reduced(sys, cfg, abs)) {
        e.is_quiescent = true;
        e.outcome.assign(cfg.n, kNoValue);
        for (ProcessId p = 1; p <= cfg.n; ++p) {
            auto d = sys.decision_of(p);
            if (d) e.outcome[p - 1] = *d;
        }
        return e;
    }
    if (depth >= cfg.max_depth) {
        e.at_depth = true;
        return e;
    }

    // The enumerable moves, in canonical (process, delivery-mode) order:
    // deliver nothing, the oldest buffered message, the whole buffer
    // (only when it differs from "oldest").  This order fixes BFS
    // insertion order -- and therefore witness selection and max_states
    // truncation.
    struct ProcMoves {
        ProcessId p = 0;
        std::size_t prefixes[3] = {0, 0, 0};
        std::size_t num = 0;
    };
    std::vector<ProcMoves> procs;
    procs.reserve(static_cast<std::size_t>(cfg.n));
    std::size_t total_moves = 0;
    for (ProcessId p = 1; p <= cfg.n; ++p) {
        if (!sys.can_step(p)) continue;
        // Skip steps that provably change nothing: a decided correct
        // process with an empty buffer.
        if (!cfg.plan.is_faulty(p) && sys.decision_of(p) &&
            sys.buffer(p).empty())
            continue;
        if (abs.decided_final && sys.decision_of(p)) {
            // Absorbed: a decided process of a decisions-are-final
            // algorithm never sends or decides again, so every one of
            // its moves reaches a state whose quotient key equals the
            // parent's.  Skip them outright (counted with the POR
            // skips) instead of generating self-deduplicating children.
            const std::size_t buf_size = sys.buffer(p).size();
            e.por_skips += 1 + (buf_size >= 1 ? 1 : 0) +
                           (buf_size > 1 ? 1 : 0);
            continue;
        }
        ProcMoves pm;
        pm.p = p;
        const std::size_t buf_size = sys.buffer(p).size();
        pm.prefixes[pm.num++] = 0;
        if (buf_size >= 1) pm.prefixes[pm.num++] = 1;
        if (buf_size > 1) pm.prefixes[pm.num++] = buf_size;
        total_moves += pm.num;
        procs.push_back(pm);
    }

    auto ghost_moves = [&](const ProcMoves& pm) {
        std::vector<GhostStep> out;
        out.reserve(pm.num);
        for (std::size_t m = 0; m < pm.num; ++m) {
            const MemoEntry memo = wk.transitions.step(
                    sys, pm.p, pm.prefixes[m], (*node.marks)[pm.p - 1],
                    (*node.mhash)[pm.p - 1], abs, wk.step);
            out.push_back(ghost_step(sys, pm.p, pm.prefixes[m], memo));
        }
        return out;
    };

    // Partial-order reduction: find the smallest-id safe process.  A
    // process p is safe when (a) every steppable process other than p
    // is send-quiescent -- so nothing can ever send to p or to anyone
    // else before p moves -- and (b) every move of p sends only to p
    // itself or to processes that can never step again, and either
    // does not decide or decides a value that is already in the
    // state's decision set (so hoisting the move past any interleaving
    // changes no intermediate decision set).  Then p's moves commute
    // with every future move of the rest of the system and expanding p
    // alone loses no decision set, no quiescent outcome and no
    // violation (doc/performance.md gives the full argument).
    //
    // probed[i] keeps the ghosts of procs[i] once the POR probe has
    // stepped them, so the full expansion below never steps a move
    // twice.
    std::size_t ample = procs.size();  // index of the safe process, if any
    std::vector<std::vector<GhostStep>> probed(procs.size());
    if (cfg.reduction.por) {
        std::vector<ProcessId> senders;  // steppable and may still send
        for (ProcessId q = 1; q <= cfg.n; ++q)
            if (sys.can_step(q) && sys.behavior_of(q).may_send())
                senders.push_back(q);
        // Two senders: whichever process we pick, some OTHER process
        // may still send -- nobody is safe.  One sender: only it can
        // be.  None: try every enumerable process in id order.
        if (senders.size() <= 1) {
            for (std::size_t i = 0; i < procs.size(); ++i) {
                const ProcMoves& pm = procs[i];
                if (!senders.empty() && senders.front() != pm.p) continue;
                std::vector<GhostStep>& ghosts = probed[i];
                ghosts = ghost_moves(pm);
                bool safe = true;
                for (const GhostStep& g : ghosts) {
                    if (g.t->out.decision &&
                        e.decided.count(*g.t->out.decision) == 0) {
                        safe = false;
                        break;
                    }
                    for (const auto& [dest, payload] : g.t->out.sends) {
                        if (!g.send_survives(dest)) continue;
                        // A decided destination of a decisions-are-final
                        // algorithm is as good as stopped: the send
                        // lands in a buffer the quotient never reads.
                        if (dest != pm.p && sys.can_step(dest) &&
                            !(abs.decided_final && sys.decision_of(dest))) {
                            safe = false;
                            break;
                        }
                    }
                    if (!safe) break;
                }
                if (safe) {
                    ample = i;
                    break;
                }
            }
        }
    }

    bool keys_bound = false;  // wk.keys is bound lazily, once
    auto child_key = [&](const GhostStep& g) {
        if (!keys_bound) {
            wk.keys.bind(sys, *node.marks, *node.mhash, x.algorithm, x.group,
                         abs);
            keys_bound = true;
        }
        const Digest128 key = wk.keys.key(g);
#ifndef NDEBUG
        if (x.group.size() > 1) {
            // The table-folded key must equal a from-scratch canonical
            // key of the realized child (canonical_state_key re-digests
            // every buffer and behavior independently of the tables).
            std::unique_ptr<System> realized = sys.fork(false);
            realized->apply_choice(sys.prefix_choice(g.stepper, g.delivered));
            RenameScratch scratch;
            require(canonical_state_key(*realized, cfg.n, x.algorithm,
                                        x.group, scratch, abs) == key,
                    "explorer: renamed child key differs from the "
                    "realized child's canonical key");
        }
#endif
        return key;
    };
    auto emit_child = [&](const GhostStep& g) {
        if (is_stutter(g)) {
            ++e.stutters;
#ifndef NDEBUG
            // The skipped key must be the parent's own canonical key.
            RenameScratch scratch;
            require(child_key(g) == canonical_state_key(sys, cfg.n,
                                                         x.algorithm, x.group,
                                                         scratch, abs),
                    "explorer: stutter candidate's key differs from its "
                    "parent's canonical key");
#endif
            return;
        }
        e.children.push_back(StoreChild{
                child_key(g), g.stepper, static_cast<std::uint32_t>(g.delivered)});
    };

    if (ample < procs.size()) {
        e.por_skips = total_moves - procs[ample].num;
        for (const GhostStep& g : probed[ample]) emit_child(g);
        return e;
    }
    e.children.reserve(total_moves);
    for (std::size_t i = 0; i < procs.size(); ++i) {
        if (probed[i].empty()) probed[i] = ghost_moves(procs[i]);
        for (const GhostStep& g : probed[i]) emit_child(g);
    }
    return e;
}

#ifndef NDEBUG
/// The executable form of the rematerializer contract: the spine's
/// incrementally advanced caches equal a fresh recompute from the live
/// System.  An accepted child's ghost key is a pure function of these
/// caches, so this also validates the ghost keys of every expanded
/// node.
void check_node_caches(const store::MaterializedNode& node, int n) {
    for (ProcessId q = 1; q <= n; ++q) {
        const BehaviorMark& m = (*node.marks)[q - 1];
        require(m.stepped == (node.sys->steps_of(q) > 0),
                "store path: stale stepped flag in spine cache");
        if (m.stepped)
            require(m.hash == behavior_state_hash(node.sys->behavior_of(q)),
                    "store path: stale behavior digest in spine cache");
        const auto& mh = (*node.mhash)[q - 1];
        const auto& buf = node.sys->buffer(q);
        require(mh.size() == buf.size(),
                "store path: message-digest cache length mismatch");
        for (std::size_t i = 0; i < mh.size(); ++i)
            require(mh[i] == reduced_msg_hash(buf[i].from, buf[i].payload),
                    "store path: stale message digest in spine cache");
    }
}
#endif

// ---------------------------------------------------------------------
// The layered ghost-step BFS over the out-of-core store (src/store/,
// doc/performance.md §6).
//
// A frontier node is a 16-byte DeltaRecord -- (parent id, stepper,
// delivered-prefix length) -- not a live System; node ids are BFS
// acceptance sequence numbers, so a layer is a contiguous id interval
// of the append-only DeltaStore and "popping the next layer" is
// advancing an id range.  Each layer is processed in blocks of
// StoreOptions::expand_block nodes through three phases:
//
//   1. EXPAND (parallel): each worker re-materializes its nodes from
//      delta records through a per-worker store::Rematerializer --
//      which keeps a spine of forked Systems along the root path, so
//      the common case re-forks from the direct parent and replays one
//      step -- and ghost-steps every (live process, delivery mode)
//      candidate into a dedup key.  A stutter candidate (is_stutter)
//      gets no key: it is counted, and the merge books it as a dedup
//      hit.  Pure reads of the shared stores.
//
//   2. DEDUP (parallel): the block's candidate keys, flattened in
//      BFS candidate order, go through ShardedVisitedStore::
//      insert_batch -- one task per shard, each shard owned by exactly
//      one worker and processing its candidates in ascending global
//      order, so the verdict vector is byte-identical to sequential
//      insertion for every thread/shard/block configuration.
//
//   3. MERGE (sequential): consumes expansions + verdicts in input
//      order and replays the exact bookkeeping order of a sequential
//      BFS -- pop-order max_states check, expansion counting,
//      first-in-BFS-order witness (materialized on demand by delta
//      replay), child append order.  Appends to the DeltaStore happen
//      only here, which is the entire concurrency protocol: expansion
//      phases read, the merge phase writes, nothing overlaps.
//
// Block boundaries affect CPU and resident memory only, never results:
// the candidate stream seen by the visited store and the record stream
// appended to the delta store are byte-identical for every
// expand_block, and truncation (max_states) cuts both at the same
// pop-order point a sequential BFS would.
//
// One work-stealing TaskScheduler serves the whole exploration;
// per-worker scratch is sized to sched.size() and reused across every
// block a worker touches.  Blocks below the scheduler's sequential
// threshold run inline; dispatched work is chunked with the auto grain
// and rebalanced by stealing.  The steal count is recorded into the
// result as observability -- it describes the machine and the timing,
// not the exploration, so it stays out of every report and equivalence
// comparison.

void run_store_bfs(const Exploration& x, const Digest128& root_key,
                   ExploreResult& result) {
    const ExploreConfig& cfg = x.cfg;
    exec::TaskScheduler sched(cfg.threads < 1 ? 1 : cfg.threads);
    const std::size_t threshold =
            exec::TaskScheduler::sequential_threshold(sched.size());

    store::ShardedVisitedStore visited(cfg.store);
    store::DeltaStore deltas(cfg.store);
    std::vector<Worker> workers(static_cast<std::size_t>(sched.size()));
    for (Worker& w : workers)
        w.remat = std::make_unique<store::Rematerializer>(
                x.algorithm, cfg.n, cfg.inputs, cfg.plan, deltas,
                &reduced_msg_hash);

    visited.insert(root_key);
    deltas.append(store::DeltaRecord{});  // the root: id 0, no real step
    // Pop-order truncation bookkeeping.  A sequential BFS checks
    // `visited.size() > max_states` when popping a node; insert_batch
    // pre-inserts a whole block's survivors at once, so the equivalent
    // sequential quantity -- root + children accepted by the merge so
    // far -- is carried explicitly, and states_explored is reported
    // from it for the same reason.
    std::size_t states_accepted = 1;

    const std::size_t block_cap =
            cfg.store.expand_block == 0 ? 1 : cfg.store.expand_block;
    std::vector<Digest128> keys;        // flattened candidate keys
    std::vector<std::uint8_t> verdict;  // 1 = new, in candidate order

    std::uint64_t layer_begin = 0;
    std::uint64_t layer_end = 1;
    int depth = 0;
    bool truncated = false;
    while (layer_begin < layer_end && !truncated) {
        if (cfg.collect_layer_sizes)
            result.layer_frontier_sizes.push_back(
                    static_cast<std::size_t>(layer_end - layer_begin));
        for (std::uint64_t block = layer_begin;
             block < layer_end && !truncated; block += block_cap) {
            const std::size_t count = static_cast<std::size_t>(
                    std::min<std::uint64_t>(block_cap, layer_end - block));
            // Phase 1 (parallel): materialize + ghost-expand the block.
            std::vector<StoreExpansion> expansions =
                    exec::parallel_map_grained(
                            sched, count, /*grain=*/0,
                            [&](std::size_t i, int w) {
                                Worker& wk =
                                        workers[static_cast<std::size_t>(w)];
                                const store::MaterializedNode node =
                                        wk.remat->materialize(block + i);
#ifndef NDEBUG
                                check_node_caches(node, cfg.n);
#endif
                                return expand(node, depth, x, wk);
                            },
                            threshold);

            // Phase 2 (parallel): dedup the block's candidates in one
            // sharded batch.
            keys.clear();
            for (const StoreExpansion& e : expansions)
                for (const StoreChild& c : e.children) keys.push_back(c.key);
            visited.insert_batch(sched, keys, verdict);

            // Phase 3 (sequential merge, input order = a sequential
            // BFS's pop order).
            std::size_t vi = 0;
            for (std::size_t i = 0; i < count; ++i) {
                if (states_accepted > cfg.max_states) {
                    result.exhaustive = false;
                    truncated = true;
                    break;
                }
                ++result.schedules_expanded;
                StoreExpansion& e = expansions[i];
                result.por_skips += e.por_skips;
                result.reachable_decision_sets.insert(e.decided);
                if (static_cast<int>(e.decided.size()) > cfg.k &&
                    !result.violation_found) {
                    result.violation_found = true;
                    result.witness = workers[0].remat->script_of(block + i);
                }
                if (e.is_quiescent) {
                    result.quiescent_outcomes.insert(std::move(e.outcome));
                    continue;
                }
                if (e.at_depth) {
                    result.exhaustive = false;
                    continue;
                }
                // Stutters are dedup hits by construction (is_stutter);
                // where they sat among the children is immaterial, as
                // none of them appends a record.
                result.dedup_hits += e.stutters;
                result.stutter_hits += e.stutters;
                for (const StoreChild& c : e.children) {
                    if (verdict[vi++] != 0) {
                        ++states_accepted;
                        deltas.append(store::DeltaRecord{
                                block + i,
                                static_cast<std::uint32_t>(c.stepper),
                                c.delivered});
                    } else {
                        ++result.dedup_hits;
                    }
                }
            }
            const std::size_t resident =
                    visited.stats().resident_bytes + deltas.resident_bytes();
            if (resident > result.peak_resident_bytes)
                result.peak_resident_bytes = resident;
        }
        layer_begin = layer_end;
        layer_end = deltas.size();
        ++depth;
    }

    result.states_explored = states_accepted;
    result.parallel_steals = sched.steal_count();
    const store::VisitedStats vs = visited.stats();
    result.store_shards = vs.shards;
    result.filter_definite_new = vs.filter_negatives;
    result.filter_false_positives = vs.filter_false_positives;
    result.spilled_records = deltas.spilled_records();
    result.spill_bytes = deltas.spill_bytes();
    for (const Worker& w : workers) {
        result.replay_steps += w.remat->replay_steps();
        result.spill_reads += w.remat->spill_reads();
        result.transition_memo_hits += w.transitions.hits();
        result.transition_memo_misses += w.transitions.misses();
    }
}

}  // namespace

std::string ExploreOutcome::summary() const {
    std::ostringstream out;
    out << "explored " << states_explored << " states ("
        << schedules_expanded << " expansions, "
        << dedup_hits << " dedup hits";
    if (por_skips > 0) out << ", " << por_skips << " POR skips";
    out << "), " << (exhaustive ? "exhaustive" : "TRUNCATED") << ", "
        << quiescent_outcomes.size() << " quiescent outcomes, "
        << reachable_decision_sets.size() << " reachable decision sets, "
        << (violation_found ? "VIOLATION FOUND" : "no violation");
    return out.str();
}

ExploreResult explore_schedules(const Algorithm& algorithm,
                                const ExploreConfig& cfg) {
    require(!algorithm.needs_failure_detector(),
            "explore_schedules: detector-using algorithms are not supported");
    require(static_cast<int>(cfg.inputs.size()) == cfg.n,
            "explore_schedules: need n inputs");

    const Exploration x{
            algorithm, cfg,
            cfg.reduction.symmetry
                    ? SymmetryGroup::compute(algorithm, cfg.n, cfg.inputs,
                                             cfg.plan)
                    : SymmetryGroup::trivial(cfg.n),
            AbsorptionContext{cfg.reduction.absorption,
                              cfg.reduction.absorption &&
                                      algorithm.decided_is_final()}};

    Digest128 root_key;
    {
        System root(algorithm, cfg.n, cfg.inputs, cfg.plan);
        RenameScratch scratch;
        root_key = canonical_state_key(root, cfg.n, algorithm, x.group,
                                       scratch, x.abs);
    }
    ExploreResult result;
    run_store_bfs(x, root_key, result);

    // Orbit-expand the quiescent outcomes: a pruned orbit member's runs
    // are the renamed runs of its explored representative, so its
    // outcome vectors are the renamed outcome vectors.
    if (!x.group.is_trivial()) {
        std::set<std::vector<Value>> expanded;
        for (const std::vector<Value>& o : result.quiescent_outcomes)
            for (std::size_t g = 0; g < x.group.size(); ++g)
                expanded.insert(x.group.apply_to_outcome(g, o));
        result.quiescent_outcomes = std::move(expanded);
    }
    return result;
}

}  // namespace ksa::core
