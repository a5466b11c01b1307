#include "algo/initial_clique.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

namespace ksa::algo {

namespace {

/// Mask bit of process q; every id entering the rule passes through
/// here, so an out-of-range id fails before any mask is built.
std::uint64_t process_bit(int n, int q) {
    if (q < 1 || q > n)
        throw UsageError("initial_clique_decision: process id out of range");
    return std::uint64_t{1} << (q - 1);
}

/// Calls f(v) for every set bit v (0-based) of `mask`, ascending.
template <typename Fn>
void for_each_bit(std::uint64_t mask, const Fn& f) {
    for (; mask != 0; mask &= mask - 1) f(std::countr_zero(mask));
}

/// Per-process state machine of the two-stage protocol.
class InitialCliqueBehavior final : public BehaviorBase {
public:
    InitialCliqueBehavior(ProcessId id, int n, Value input, int l)
        : BehaviorBase(id, n, input), l_(l) {
        require(l_ >= 1 && l_ <= n, "InitialCliqueKSet: need 1 <= L <= n");
    }

    StepOutput on_step(const StepInput& in) override {
        StepOutput out;
        ingest(in);
        if (has_decided()) return out;

        if (phase_ == 0) {
            // Stage 1: announce ourselves.
            broadcast_others(out, make_payload("S1", {id()}));
            phase_ = 1;
        }
        if (phase_ == 1 && static_cast<int>(heard_.size()) == l_ - 1) {
            // Stage 2: publish proposal and heard-list.
            broadcast_others(out,
                             make_payload("S2", {id(), input()}, {heard_}));
            for (int q : heard_) insert_sorted_unique(required_, q);
            phase_ = 2;
        }
        if (phase_ == 2 && closure_complete()) {
            decide(out, initial_clique_decision(n(), id(), input(), heard_,
                                                known_));
            phase_ = 3;
        }
        return out;
    }

    /// All sends happen in the stage-1 announce (phase 0 -> 1) and the
    /// stage-2 publish (phase 1 -> 2) steps; from phase 2 on, steps only
    /// collect stage-2 messages and decide.  Monotone: phase_ only grows.
    bool may_send() const override { return phase_ < 2; }

    /// Once the stage-1 quota is full, further S1 messages are dropped
    /// by ingest() without any state change -- heard_ never shrinks, so
    /// the claim is monotone as Behavior::message_inert requires.
    bool message_inert(ProcessId /*from*/,
                       const Payload& payload) const override {
        return payload.tag == "S1" &&
               static_cast<int>(heard_.size()) >= l_ - 1;
    }

    std::unique_ptr<Behavior> clone() const override {
        return std::make_unique<InitialCliqueBehavior>(*this);
    }

    std::string state_digest() const override {
        std::ostringstream d;
        d << "IC(p" << id() << ",x=" << input() << ",ph=" << phase_
          << ",heard=" << render(heard_) << ",req=" << render(required_)
          << ",known=";
        d << '{';
        bool first = true;
        for (const auto& [q, info] : known_) {
            if (!first) d << ';';
            first = false;
            d << q << ":" << info.first << ":" << render(info.second);
        }
        d << "})";
        return d.str();
    }

    /// Same fields as state_digest, folded directly (no string).
    void fold_state(StateHasher& h) const override {
        h.str("IC");
        h.i64(id());
        h.i64(input());
        h.i64(phase_);
        h.u64(heard_.size());
        for (int q : heard_) h.i64(q);
        h.u64(required_.size());
        for (int q : required_) h.i64(q);
        h.u64(known_.size());
        for (const auto& [q, info] : known_) {
            h.i64(q);
            h.i64(info.first);
            h.u64(info.second.size());
            for (int u : info.second) h.i64(u);
        }
    }

    /// fold_state under renaming: every id-valued field is mapped
    /// through `ren` and every id-sorted container walked in the order
    /// of the new names, exactly as the renamed execution would store it.
    bool fold_state_renamed(StateHasher& h,
                            const ProcessRenaming& ren) const override {
        auto renamed = [&ren](int q) {
            return ren[static_cast<std::size_t>(q) - 1];
        };
        auto fold_ids = [&](const std::vector<int>& ids) {
            h.u64(ids.size());
            for_each_in_renamed_order(ids, renamed,
                                      [&](int q) { h.i64(renamed(q)); });
        };
        h.str("IC");
        h.i64(renamed(id()));
        h.i64(input());
        h.i64(phase_);
        fold_ids(heard_);
        fold_ids(required_);
        h.u64(known_.size());
        for_each_in_renamed_order(
                known_, [&](const auto& entry) { return renamed(entry.first); },
                [&](const auto& entry) {
                    h.i64(renamed(entry.first));
                    h.i64(entry.second.first);
                    fold_ids(entry.second.second);
                });
        return true;
    }

private:
    void ingest(const StepInput& in) {
        for (const Message& m : in.delivered) {
            if (m.payload.tag == "S1") {
                // Only the first L-1 senders become in-neighbours; later
                // stage-1 messages are ignored (the graph edge exists only
                // if the receiver *counted* the message).  A claim naming
                // the receiver itself is discarded: no correct process
                // sends itself a stage-1 message, so such a payload can
                // only be forged (it would be a self-loop in the
                // heard-from graph).
                const int v = m.payload.ints.at(0);
                if (v == id()) continue;
                if (static_cast<int>(heard_.size()) < l_ - 1)
                    insert_sorted_unique(heard_, v);
            } else if (m.payload.tag == "S2") {
                // Likewise, a stage-2 report *about ourselves* is
                // discarded -- we know our own input and in-neighbours,
                // and only a forgery would claim to report them.
                const int q = m.payload.ints.at(0);
                if (q == id()) continue;
                const Value x = m.payload.ints.at(1);
                const std::vector<int>& list = m.payload.lists.at(0);
                known_[q] = {x, list};
                for (int u : list) insert_sorted_unique(required_, u);
            }
        }
    }

    /// True when a stage-2 message from every required process arrived.
    bool closure_complete() const {
        for (int q : required_)
            if (q != id() && known_.count(q) == 0) return false;
        return true;
    }

    int l_;
    int phase_ = 0;                 // 0 start, 1 stage-1 wait, 2 closure, 3 done
    std::vector<int> heard_;        // stage-1 in-neighbours (sorted)
    std::vector<int> required_;     // processes whose stage-2 msg we await
    InitialCliqueReports known_;    // S2 contents
};

}  // namespace

Value initial_clique_decision(int n, ProcessId self, Value input,
                              const std::vector<int>& heard,
                              const InitialCliqueReports& known) {
    if (n < 1 || n > kInitialCliqueMaxN)
        throw UsageError("initial_clique_decision: need 1 <= n <= 64");
    std::uint64_t participants = process_bit(n, self);
    for (const auto& [q, _] : known) participants |= process_bit(n, q);

    // anc[v]: participants with an edge into v, closed (Warshall) into
    // the participants with a path of length >= 1 into v.
    std::array<std::uint64_t, kInitialCliqueMaxN> anc;
    std::fill_n(anc.begin(), n, 0);
    for (int u : heard) {
        if (u == self)
            throw UsageError("initial_clique_decision: self in heard-list");
        anc[self - 1] |= process_bit(n, u);
    }
    for (const auto& [q, info] : known)
        for (int u : info.second)
            if (u != q) anc[q - 1] |= process_bit(n, u);
    for_each_bit(participants, [&](int v) { anc[v] &= participants; });
    for_each_bit(participants, [&](int k) {
        for_each_bit(participants, [&](int v) {
            if ((anc[v] >> k) & 1) anc[v] |= anc[k];
        });
    });

    // u lies in a source component iff every ancestor of u is reached
    // from u (then u's component has no in-edge from outside).  Scan
    // the participants reaching self -- self included -- in id order.
    const std::uint64_t self_bit = std::uint64_t{1} << (self - 1);
    std::uint64_t candidates = anc[self - 1] | self_bit;
    int rep = -1;  // 0-based
    for (; candidates != 0 && rep < 0; candidates &= candidates - 1) {
        const int u = std::countr_zero(candidates);
        bool source = true;
        for_each_bit(anc[u], [&](int w) {
            if (w != u && ((anc[w] >> u) & 1) == 0) source = false;
        });
        if (source) rep = u;
    }
    // (Thrown directly: invariant() would build its message string on
    // every call of this hot rule.)
    if (rep < 0)
        throw SimulationBug(
                "InitialCliqueKSet: no source component reaches this process");

    if (rep + 1 == self) return input;
    auto it = known.find(rep + 1);
    if (it == known.end())
        throw SimulationBug(
                "InitialCliqueKSet: representative's proposal unknown");
    return it->second.first;
}

std::unique_ptr<Behavior> InitialCliqueKSet::make_behavior(ProcessId id, int n,
                                                           Value input) const {
    require(n <= kInitialCliqueMaxN,
            "InitialCliqueKSet: the decision rule supports n <= 64");
    return std::make_unique<InitialCliqueBehavior>(id, n, input, l_);
}

std::string InitialCliqueKSet::name() const {
    return "initial-clique(L=" + std::to_string(l_) + ")";
}

bool InitialCliqueKSet::rename_payload_ids(Payload& payload,
                                           const ProcessRenaming& ren) const {
    auto rename_id = [&ren](int& q) {
        q = ren[static_cast<std::size_t>(q) - 1];
    };
    if (payload.tag == "S1" && !payload.ints.empty()) {
        rename_id(payload.ints[0]);
    } else if (payload.tag == "S2" && !payload.ints.empty()) {
        rename_id(payload.ints[0]);  // ints[1] is the proposal value
        // The heard-list is a sorted id set in the sender's state; the
        // renamed execution sends it sorted under the new names.
        for (std::vector<int>& list : payload.lists) {
            for (int& q : list) rename_id(q);
            std::sort(list.begin(), list.end());
        }
    }
    return true;
}

std::unique_ptr<Algorithm> make_flp_consensus(int n) {
    return std::make_unique<InitialCliqueKSet>((n + 2) / 2);  // ceil((n+1)/2)
}

std::unique_ptr<Algorithm> make_flp_kset(int n, int f) {
    require(f >= 0 && f < n, "make_flp_kset: need 0 <= f < n");
    return std::make_unique<InitialCliqueKSet>(n - f);
}

}  // namespace ksa::algo
