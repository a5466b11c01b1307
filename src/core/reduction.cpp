#include "core/reduction.hpp"

#include <algorithm>

#include "sim/system.hpp"

namespace ksa::core {

namespace {

ProcessRenaming identity_renaming(int n) {
    ProcessRenaming id(static_cast<std::size_t>(n));
    for (int p = 1; p <= n; ++p) id[static_cast<std::size_t>(p) - 1] = p;
    return id;
}

ProcessRenaming invert(const ProcessRenaming& ren) {
    ProcessRenaming inv(ren.size());
    for (std::size_t i = 0; i < ren.size(); ++i)
        inv[static_cast<std::size_t>(ren[i]) - 1] =
                static_cast<ProcessId>(i + 1);
    return inv;
}

/// True iff pi (as `perm`) fixes the inputs vector: the renamed
/// configuration assigns input inputs[p-1] to process perm[p-1], which
/// must equal that position's own input.
bool fixes_inputs(const ProcessRenaming& perm,
                  const std::vector<Value>& inputs) {
    for (std::size_t i = 0; i < perm.size(); ++i)
        if (inputs[static_cast<std::size_t>(perm[i]) - 1] != inputs[i])
            return false;
    return true;
}

/// True iff pi fixes the crash plan: faulty maps to faulty with equal
/// step allowance and pi-consistent omission targets.
bool fixes_plan(const ProcessRenaming& perm, const FailurePlan& plan, int n) {
    for (ProcessId p = 1; p <= n; ++p) {
        const ProcessId image = perm[static_cast<std::size_t>(p) - 1];
        if (plan.is_faulty(p) != plan.is_faulty(image)) return false;
        if (!plan.is_faulty(p)) continue;
        const CrashSpec& a = plan.spec(p);
        const CrashSpec& b = plan.spec(image);
        if (a.after_own_steps != b.after_own_steps) return false;
        std::set<ProcessId> renamed;
        for (ProcessId q : a.omit_to) {
            if (q < 1 || q > n) return false;  // cannot rename out-of-range
            renamed.insert(perm[static_cast<std::size_t>(q) - 1]);
        }
        if (renamed != b.omit_to) return false;
    }
    return true;
}

/// True iff every equal-input class occupies a contiguous id block --
/// the extra admissibility condition of SymmetryKind::kBlockSymmetric
/// (smallest-id tie-breaks stay value-equivariant exactly on block
/// renamings; doc/extending.md).
bool contiguous_input_blocks(const std::vector<Value>& inputs) {
    std::map<Value, std::pair<std::size_t, std::size_t>> span;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        auto [it, fresh] = span.try_emplace(inputs[i], i, i);
        if (!fresh) it->second.second = i;
    }
    for (const auto& [v, range] : span)
        for (std::size_t i = range.first; i <= range.second; ++i)
            if (inputs[i] != v) return false;
    return true;
}

/// Folds one reduced-mode message: sender + interned tag + payload
/// contents.  Shared by the identity and renamed digest paths.
void fold_reduced_message(StateHasher& h, ProcessId from,
                          const Payload& payload) {
    h.i64(from);
    h.u64(intern_tag(payload.tag));
    h.u64(payload.ints.size());
    for (int v : payload.ints) h.i64(v);
    h.u64(payload.lists.size());
    for (const auto& list : payload.lists) {
        h.u64(list.size());
        for (int v : list) h.i64(v);
    }
}

/// Lays out the whole configuration `sys`.  Slot i names msgs[i]: the
/// buffered messages of the processes the absorption quotient keeps,
/// process by process in arrival order, dead ones included (they own a
/// slot but are not live).  begin[q-1] is the slot of q's oldest
/// message and begin[n] the slot count.
void layout_state(const System& sys, int n, const AbsorptionContext& abs,
                  KeyLayout& k, std::vector<const Message*>& msgs,
                  std::vector<std::size_t>& begin) {
    k.procs.clear();
    k.live.clear();
    msgs.clear();
    begin.clear();
    for (ProcessId q = 1; q <= n; ++q) {
        begin.push_back(msgs.size());
        KeyProcess p;
        p.decision = sys.decision_of(q);
        p.absorbed = abs.decided_final && p.decision.has_value();
        p.crashed = sys.crashed(q);
        p.stepped = sys.steps_of(q) > 0;
        p.live_begin = k.live.size();
        if (!p.absorbed) {
            const Behavior& recv = sys.behavior_of(q);
            for (const Message& m : sys.buffer(q)) {
                if (!dead_message(m.from, m.payload, recv, abs))
                    k.live.push_back(msgs.size());
                msgs.push_back(&m);
            }
        }
        p.live_end = k.live.size();
        k.procs.push_back(p);
    }
    begin.push_back(msgs.size());
}

}  // namespace

// ---------------------------------------------------------------------
// SymmetryGroup.

SymmetryGroup SymmetryGroup::trivial(int n) {
    require(n >= 1, "SymmetryGroup::trivial: need n >= 1");
    SymmetryGroup group;
    ProcessRenaming id = identity_renaming(n);
    group.inverses_.push_back(id);
    group.renamings_.push_back(std::move(id));
    return group;
}

SymmetryGroup SymmetryGroup::compute(const Algorithm& algorithm, int n,
                                     const std::vector<Value>& inputs,
                                     const FailurePlan& plan) {
    require(n >= 1, "SymmetryGroup::compute: need n >= 1");
    require(static_cast<int>(inputs.size()) == n,
            "SymmetryGroup::compute: need n inputs");
    if (n < 2 || n > kMaxSymmetryProcesses) return trivial(n);
    const SymmetryKind kind = algorithm.symmetry();
    if (kind == SymmetryKind::kNone) return trivial(n);

    const ProcessRenaming identity = identity_renaming(n);

    // Probe renaming support on a throwaway behavior: under the
    // identity renaming the renamed fold must byte-match fold_state
    // (the anchor that makes cached identity digests comparable with
    // walked renamed digests), and payload renaming must be accepted.
    {
        auto probe = algorithm.make_behavior(1, n, inputs.front());
        StateHasher direct;
        probe->fold_state(direct);
        StateHasher renamed;
        if (!probe->fold_state_renamed(renamed, identity)) return trivial(n);
        if (direct.digest() != renamed.digest()) return trivial(n);
        Payload payload;
        payload.tag = "__symmetry_probe";
        if (!algorithm.rename_payload_ids(payload, identity)) return trivial(n);
    }

    if (kind == SymmetryKind::kBlockSymmetric &&
        !contiguous_input_blocks(inputs))
        return trivial(n);

    // Enumerate the admissible permutations in lexicographic order; the
    // identity is first.  The admissible set is a subgroup (it is the
    // intersection of the stabilizers of the inputs vector and the
    // plan), so no closure step is needed.
    SymmetryGroup group;
    ProcessRenaming perm = identity;
    do {
        if (!fixes_inputs(perm, inputs)) continue;
        if (!fixes_plan(perm, plan, n)) continue;
        group.inverses_.push_back(invert(perm));
        group.renamings_.push_back(perm);
    } while (std::next_permutation(perm.begin(), perm.end()));
    invariant(!group.renamings_.empty() && group.renamings_[0] == identity,
              "SymmetryGroup::compute: identity must be element 0");
    return group;
}

std::vector<Value> SymmetryGroup::apply_to_outcome(
        std::size_t g, const std::vector<Value>& o) const {
    const ProcessRenaming& ren = renamings_[g];
    invariant(ren.size() == o.size(),
              "SymmetryGroup::apply_to_outcome: size mismatch");
    std::vector<Value> out(o.size());
    for (std::size_t i = 0; i < o.size(); ++i)
        out[static_cast<std::size_t>(ren[i]) - 1] = o[i];
    return out;
}

// ---------------------------------------------------------------------
// Tag interning.

TagInterner& TagInterner::global() {
    static TagInterner interner;
    return interner;
}

std::uint64_t TagInterner::intern(std::string_view tag) {
    // Content-derived id: a hash of the tag bytes, so the id does not
    // depend on which thread or in which order tags are first seen.
    StateHasher h;
    h.str(tag);
    const Digest128 d = h.digest();
    const std::uint64_t id = d.hi ^ (d.lo * 0x9e3779b97f4a7c15ull);

    std::lock_guard<std::mutex> lock(mu_);  // ksa-lint: allow(threading-outside-exec)
    auto it = memo_.find(tag);
    if (it != memo_.end()) return it->second;
    auto [owner, fresh] = owners_.try_emplace(id, std::string(tag));
    invariant(fresh, "TagInterner: 64-bit tag-id collision between '" +
                             owner->second + "' and '" + std::string(tag) +
                             "'");
    memo_.emplace(std::string(tag), id);
    return id;
}

std::size_t TagInterner::size() const {
    std::lock_guard<std::mutex> lock(mu_);  // ksa-lint: allow(threading-outside-exec)
    return memo_.size();
}

std::uint64_t intern_tag(std::string_view tag) {
    // Thread-local front cache: lock-free on every hit after a tag's
    // first sighting on the calling thread.  Content-derived ids make
    // the cache trivially coherent with the global memo.
    thread_local std::map<std::string, std::uint64_t, std::less<>>
            cache;  // ksa-lint: allow(threading-outside-exec)
    auto it = cache.find(tag);
    if (it != cache.end()) return it->second;
    const std::uint64_t id = TagInterner::global().intern(tag);
    cache.emplace(std::string(tag), id);
    return id;
}

// ---------------------------------------------------------------------
// Reduced / renamed hashing.

Digest128 reduced_msg_hash(ProcessId from, const Payload& payload) {
    StateHasher h;
    fold_reduced_message(h, from, payload);
    return h.digest();
}

Digest128 renamed_msg_hash(ProcessId from, const Payload& payload,
                           const Algorithm& algorithm,
                           const ProcessRenaming& ren,
                           RenameScratch& scratch) {
    scratch.payload = payload;
    const bool ok = algorithm.rename_payload_ids(scratch.payload, ren);
    invariant(ok, "renamed_msg_hash: algorithm refused to rename a payload "
                  "after SymmetryGroup::compute probed support");
    scratch.sub.reset();
    fold_reduced_message(scratch.sub,
                         ren[static_cast<std::size_t>(from) - 1],
                         scratch.payload);
    return scratch.sub.digest();
}

Digest128 renamed_behavior_hash(const Behavior& behavior,
                                const ProcessRenaming& ren,
                                StateHasher& sub) {
    sub.reset();
    const bool ok = behavior.fold_state_renamed(sub, ren);
    invariant(ok, "renamed_behavior_hash: behavior refused to fold under a "
                  "renaming after SymmetryGroup::compute probed support");
    return sub.digest();
}

Digest128 canonical_state_key(const System& sys, int n,
                              const Algorithm& algorithm,
                              const SymmetryGroup& group,
                              RenameScratch& scratch,
                              const AbsorptionContext& abs) {
    // Message arrival order is renaming-invariant (the renamed schedule
    // delivers the renamed messages in the same order), and so is the
    // absorption quotient (message_inert and decidedness commute with
    // renaming): one layout serves every element.
    KeyLayout layout;
    std::vector<const Message*> msgs;
    std::vector<std::size_t> begin;
    layout_state(sys, n, abs, layout, msgs, begin);
    Digest128 key{};
    for (std::size_t g = 0; g < group.size(); ++g) {
        const ProcessRenaming& ren = group.renaming(g);
        const Digest128 d = fold_key(
                layout, group.inverse(g),
                [&](std::size_t slot) {
                    const Message& m = *msgs[slot];
                    return g == 0 ? reduced_msg_hash(m.from, m.payload)
                                  : renamed_msg_hash(m.from, m.payload,
                                                     algorithm, ren, scratch);
                },
                [&](ProcessId q) {
                    const Behavior& b = sys.behavior_of(q);
                    return g == 0 ? behavior_state_hash(b)
                                  : renamed_behavior_hash(b, ren, scratch.sub);
                });
        if (g == 0 || d < key) key = d;
    }
    return key;
}

void ChildKeys::bind(const System& parent, std::span<const BehaviorMark> marks,
                     std::span<const std::vector<Digest128>> mhash,
                     const Algorithm& algorithm, const SymmetryGroup& group,
                     const AbsorptionContext& abs) {
    sys_ = &parent;
    algorithm_ = &algorithm;
    group_ = &group;
    abs_ = abs;
    const int n = parent.n();
    const std::size_t un = static_cast<std::size_t>(n);
    layout_state(parent, n, abs, parent_, msgs_, msg_begin_);
    const std::size_t num_msgs = msgs_.size();
    msg_.resize(group.size() * num_msgs);
    behavior_.resize(group.size() * un);
    for (std::size_t qi = 0; qi < un; ++qi) {
        behavior_[qi] = marks[qi].hash;
        if (!parent_.procs[qi].absorbed)
            std::copy(mhash[qi].begin(), mhash[qi].end(),
                      msg_.begin() + static_cast<std::ptrdiff_t>(msg_begin_[qi]));
    }
    for (std::size_t g = 1; g < group.size(); ++g) {
        const ProcessRenaming& ren = group.renaming(g);
        Digest128* msg_row = msg_.data() + g * num_msgs;
        Digest128* behavior_row = behavior_.data() + g * un;
        for (std::size_t slot = 0; slot < num_msgs; ++slot)
            msg_row[slot] = renamed_msg_hash(msgs_[slot]->from,
                                             msgs_[slot]->payload, algorithm,
                                             ren, scratch_);
        for (ProcessId q = 1; q <= n; ++q) {
            const KeyProcess& p = parent_.procs[static_cast<std::size_t>(q) - 1];
            if (!p.absorbed && p.stepped)
                behavior_row[q - 1] = renamed_behavior_hash(
                        parent.behavior_of(q), ren, scratch_.sub);
        }
    }
}

Digest128 ChildKeys::key(const GhostStep& g) {
    invariant(sys_ != nullptr && g.t != nullptr,
              "ChildKeys::key: unbound parent or empty ghost step");
    const ProcessId s = g.stepper;
    const Transition& t = *g.t;
    const auto& sends = t.out.sends;
    const std::size_t num_msgs = msgs_.size();

    // The child's buffer of q is buf[skip:] followed by the surviving
    // sends to q in emission order (apply_choice), with dead messages
    // deleted anywhere, judged by q's CHILD-state behavior: the stepped
    // clone for the stepper, the parent's for everyone else.  The child
    // starts as a copy of the parent's layout; the stepper and every
    // process a send arrives at get a fresh live range at the end.
    layout_ = parent_;
    for (std::size_t qi = 0; qi < layout_.procs.size(); ++qi) {
        const ProcessId q = static_cast<ProcessId>(qi + 1);
        const bool arrives = std::any_of(
                sends.begin(), sends.end(),
                [&](const auto& send) { return send.first == q; });
        if (q != s && !arrives) continue;
        KeyProcess& c = layout_.procs[qi];
        const std::size_t begin = layout_.live.size();
        if (q == s) {
            if (t.out.decision) c.decision = t.out.decision;
            c.absorbed = abs_.decided_final && c.decision.has_value();
            c.crashed = g.final_crash;
            c.stepped = true;
            for (std::size_t slot = msg_begin_[qi] + g.delivered;
                 !c.absorbed && slot < msg_begin_[qi + 1]; ++slot)
                if (!dead_message(msgs_[slot]->from, msgs_[slot]->payload,
                                  *t.behavior, abs_))
                    layout_.live.push_back(slot);
        } else {
            for (std::size_t e = c.live_begin; e < c.live_end; ++e) {
                const std::size_t slot = layout_.live[e];
                layout_.live.push_back(slot);
            }
        }
        const Behavior& receiver = q == s ? *t.behavior : sys_->behavior_of(q);
        for (std::size_t j = 0; !c.absorbed && j < sends.size(); ++j)
            if (sends[j].first == q && g.send_survives(q) &&
                !dead_message(s, sends[j].second, receiver, abs_))
                layout_.live.push_back(num_msgs + j);
        c.live_begin = begin;
        c.live_end = layout_.live.size();
    }

    const std::size_t un = parent_.procs.size();
    Digest128 key{};
    for (std::size_t e = 0; e < group_->size(); ++e) {
        const ProcessRenaming& ren = group_->renaming(e);
        const Digest128* msg_row = msg_.data() + e * num_msgs;
        const Digest128* behavior_row = behavior_.data() + e * un;
        const Digest128 d = fold_key(
                layout_, group_->inverse(e),
                [&](std::size_t slot) {
                    if (slot < num_msgs) return msg_row[slot];
                    const std::size_t j = slot - num_msgs;
                    return e == 0 ? t.send_hash[j]
                                  : renamed_msg_hash(s, sends[j].second,
                                                     *algorithm_, ren, scratch_);
                },
                [&](ProcessId q) {
                    if (q != s) return behavior_row[q - 1];
                    return e == 0 ? t.bhash
                                  : renamed_behavior_hash(*t.behavior, ren,
                                                          scratch_.sub);
                });
        if (e == 0 || d < key) key = d;
    }
    return key;
}

}  // namespace ksa::core
