#pragma once
// ReductionOptions -- the public switchboard of the explorer's
// reduction layer, split out of core/reduction.hpp so that
// configuration surfaces (core/explorer.hpp's ExploreConfig, tools,
// tests) can select reductions WITHOUT seeing the reduction engine's
// internals.  core/reduction.hpp (TagInterner, renamed hashing,
// absorption machinery) is a PRIVATE layer: ksa_analyze admits only
// core/reduction.cpp and core/explorer.cpp as importers
// (src/lint/layers.def).  This header is an ordinary `core` header.
//
// doc/performance.md carries the soundness argument for each switch.

namespace ksa::core {

/// Sub-config of ExploreConfig selecting which reductions the explorer
/// applies.  All default on; none() switches all off, and the explorer
/// then explores the full configuration space, bit-identical to the
/// replay-based test oracle (the equivalence suite checks it).
struct ReductionOptions {
    /// Every axis off: the full, unreduced configuration space.
    static constexpr ReductionOptions none() {
        return ReductionOptions{false, false, false};
    }

    bool symmetry = true;  ///< canonicalize states under the symmetry group
    bool por = true;       ///< persistent-set partial-order reduction
    /// Observational absorption quotient: key decided processes on
    /// their decision alone when Algorithm::decided_is_final, and delete
    /// inert messages (Behavior::message_inert) wherever they sit in a
    /// buffer.
    bool absorption = true;
};

}  // namespace ksa::core
