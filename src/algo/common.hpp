#pragma once
// Shared helpers for protocol implementations.

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "sim/behavior.hpp"
#include "sim/types.hpp"

namespace ksa::algo {

/// Base class for protocol state machines: stores identity, carries the
/// write-once decision flag and provides digest-rendering helpers.
class BehaviorBase : public Behavior {
public:
    BehaviorBase(ProcessId id, int n, Value input)
        : id_(id), n_(n), input_(input) {}

protected:
    ProcessId id() const { return id_; }
    int n() const { return n_; }
    Value input() const { return input_; }
    bool has_decided() const { return decided_; }

    /// Marks the decision in `out`; enforces write-once locally too.
    void decide(StepOutput& out, Value v) {
        require(!decided_, "BehaviorBase::decide: already decided");
        decided_ = true;
        out.decision = v;
    }

    /// Sends `payload` to every process except self.
    void broadcast_others(StepOutput& out, const Payload& payload) const {
        for (ProcessId q = 1; q <= n_; ++q)
            if (q != id_) out.send(q, payload);
    }

    /// Digest fragment for a set of ids/values.
    template <typename Container>
    static std::string render(const Container& xs) {
        std::ostringstream out;
        out << '{';
        bool first = true;
        for (const auto& x : xs) {
            if (!first) out << ',';
            first = false;
            out << x;
        }
        out << '}';
        return out.str();
    }

private:
    ProcessId id_;
    int n_;
    Value input_;
    bool decided_ = false;
};

/// Inserts into a sorted vector, keeping it sorted and duplicate-free.
inline void insert_sorted_unique(std::vector<int>& v, int x) {
    auto it = std::lower_bound(v.begin(), v.end(), x);
    if (it == v.end() || *it != x) v.insert(it, x);
}

/// Calls `visit(x)` for every element of `xs` in ascending order of
/// `new_name(x)`, ties in container order: the order in which a renamed
/// execution stores an id-sorted container, produced without building
/// and sorting a renamed copy (Behavior::fold_state_renamed runs for
/// every candidate child and symmetry-group element, so it must not
/// allocate).  Quadratic in xs.size(), which for per-process id sets is
/// at most n.
template <typename Container, typename NewName, typename Visit>
void for_each_in_renamed_order(const Container& xs, const NewName& new_name,
                               const Visit& visit) {
    bool started = false;
    int last = 0;
    for (std::size_t visited = 0; visited < xs.size();) {
        bool found = false;
        int next = 0;
        for (const auto& x : xs) {
            const int r = new_name(x);
            if ((!started || r > last) && (!found || r < next)) {
                next = r;
                found = true;
            }
        }
        for (const auto& x : xs) {
            if (new_name(x) != next) continue;
            visit(x);
            ++visited;
        }
        last = next;
        started = true;
    }
}

}  // namespace ksa::algo
