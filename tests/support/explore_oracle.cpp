#include "explore_oracle.hpp"

#include <deque>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/system.hpp"

namespace ksa::oracle {

namespace {

bool quiescent(const System& sys, const core::ExploreConfig& cfg) {
    for (ProcessId p = 1; p <= cfg.n; ++p) {
        if (cfg.plan.is_faulty(p)) {
            if (sys.can_step(p)) return false;
        } else {
            if (!sys.decision_of(p) || !sys.buffer(p).empty()) return false;
        }
    }
    return true;
}

std::set<Value> decision_set(const System& sys, int n) {
    std::set<Value> out;
    for (ProcessId p = 1; p <= n; ++p) {
        auto d = sys.decision_of(p);
        if (d) out.insert(*d);
    }
    return out;
}

/// The three delivery modes for process p, in canonical order: deliver
/// nothing, deliver the oldest buffered message, deliver the whole
/// buffer (only when it differs from "oldest").  The engine enumerates
/// children in exactly this order, so BFS insertion order -- and
/// therefore witness selection and max_states truncation -- agree.
std::vector<StepChoice> delivery_modes(const System& sys, ProcessId p) {
    std::vector<StepChoice> modes;
    {
        StepChoice none;
        none.process = p;
        modes.push_back(none);
    }
    const auto& buf = sys.buffer(p);
    if (!buf.empty()) {
        StepChoice oldest;
        oldest.process = p;
        oldest.deliver.push_back(buf.front().id);
        modes.push_back(oldest);
        if (buf.size() > 1) {
            StepChoice all;
            all.process = p;
            for (const Message& m : buf) all.deliver.push_back(m.id);
            modes.push_back(all);
        }
    }
    return modes;
}

/// Runs `script` on a fresh system; returns the system for inspection.
std::unique_ptr<System> replay(const Algorithm& algorithm,
                               const core::ExploreConfig& cfg,
                               const std::vector<StepChoice>& script) {
    auto sys = std::make_unique<System>(algorithm, cfg.n, cfg.inputs, cfg.plan);
    for (const StepChoice& c : script) sys->apply_choice(c);
    return sys;
}

/// Configuration-state key *including* the per-process behavior state:
/// replay, render crash flags, decisions and buffers, then finish() the
/// system and read the behavior digests out of the Run record.  A
/// process that never stepped has no StepRecord and contributes the
/// empty string.
std::string full_digest(const Algorithm& algorithm,
                        const core::ExploreConfig& cfg,
                        const std::vector<StepChoice>& script) {
    auto sys = replay(algorithm, cfg, script);
    std::ostringstream out;
    for (ProcessId p = 1; p <= cfg.n; ++p) {
        out << '|' << (sys->crashed(p) ? "X" : "");
        auto d = sys->decision_of(p);
        if (d) out << "D" << *d;
        out << ';';
        for (const Message& m : sys->buffer(p))
            out << m.from << ':' << m.payload.to_string() << ',';
    }
    Run run = sys->finish(StopReason::kSchedulerEnded);
    std::vector<std::string> last(cfg.n);
    for (const StepRecord& s : run.steps) last[s.process - 1] = s.digest_after;
    out << '#';
    for (const std::string& d : last) out << d << '|';
    return out.str();
}

}  // namespace

core::ExploreResult explore_oracle(const Algorithm& algorithm,
                                   const core::ExploreConfig& cfg) {
    require(static_cast<int>(cfg.inputs.size()) == cfg.n,
            "explore_oracle: need n inputs");
    core::ExploreResult result;
    std::set<std::string> visited;
    std::deque<std::vector<StepChoice>> frontier;
    frontier.push_back({});
    visited.insert(full_digest(algorithm, cfg, {}));

    while (!frontier.empty()) {
        if (visited.size() > cfg.max_states) {
            result.exhaustive = false;
            break;
        }
        std::vector<StepChoice> script = std::move(frontier.front());
        frontier.pop_front();
        ++result.schedules_expanded;

        auto sys = replay(algorithm, cfg, script);
        const std::set<Value> decided = decision_set(*sys, cfg.n);
        result.reachable_decision_sets.insert(decided);
        if (static_cast<int>(decided.size()) > cfg.k &&
            !result.violation_found) {
            result.violation_found = true;
            result.witness = script;
        }
        if (quiescent(*sys, cfg)) {
            std::vector<Value> outcome(cfg.n, kNoValue);
            for (ProcessId p = 1; p <= cfg.n; ++p) {
                auto d = sys->decision_of(p);
                if (d) outcome[p - 1] = *d;
            }
            result.quiescent_outcomes.insert(std::move(outcome));
            continue;
        }
        if (static_cast<int>(script.size()) >= cfg.max_depth) {
            result.exhaustive = false;
            continue;
        }

        for (ProcessId p = 1; p <= cfg.n; ++p) {
            if (!sys->can_step(p)) continue;
            // Skip steps that provably change nothing: a decided
            // correct process with an empty buffer.
            if (!cfg.plan.is_faulty(p) && sys->decision_of(p) &&
                sys->buffer(p).empty())
                continue;
            for (StepChoice& mode : delivery_modes(*sys, p)) {
                std::vector<StepChoice> child = script;
                child.push_back(std::move(mode));
                std::string digest = full_digest(algorithm, cfg, child);
                if (visited.insert(std::move(digest)).second)
                    frontier.push_back(std::move(child));
                else
                    ++result.dedup_hits;
            }
        }
    }
    result.states_explored = visited.size();
    return result;
}

}  // namespace ksa::oracle
