#pragma once
// Deterministic 128-bit state digests.
//
// The configuration-space explorer (core/explorer.hpp) deduplicates
// reached configurations.  Keying the visited set by a canonical
// rendering of the full configuration is unambiguous but
// allocation-heavy: every candidate state pays an ostringstream pass
// over every buffer and behavior (the test oracle does exactly that).
// The explorer instead folds the same logical fields into the 128-bit
// hash below.
//
// Requirements (and why std::hash is banned here):
//
//   * deterministic across processes, builds and platforms -- std::hash
//     is implementation-defined and may be seeded per process, which
//     would make "which states fall inside max_states" unreproducible
//     (the ksa_analyze raw-randomness/determinism rules exist for exactly
//     this class of bug);
//   * incremental -- state components are folded in as they are walked,
//     no intermediate string is materialized;
//   * 128 bits wide -- at the explorer's scale (<= ~10^6 states) the
//     collision probability of a well-mixed 128-bit hash is ~10^-26
//     (birthday bound), far below e.g. the probability of a memory
//     error corrupting the canonical-string comparison.  The golden
//     equivalence suite (tests/test_explorer_equiv.cpp) cross-checks
//     the explorer against the canonical-string test oracle
//     (tests/support/explore_oracle.hpp) on every supported case
//     anyway.
//
// The construction is two independent 64-bit FNV-1a lanes with distinct
// offset bases, each post-mixed with a splitmix64-style finalizer.  The
// lanes consume the same byte stream but evolve through different
// states from the first byte on; the finalizer breaks FNV's weak
// avalanche in the low bits.

#include <cstdint>
#include <string>
#include <string_view>

namespace ksa {

/// A 128-bit digest value.  Ordered (usable as a std::set key) and
/// renderable for reports.
struct Digest128 {
    std::uint64_t hi = 0;
    std::uint64_t lo = 0;

    friend bool operator==(const Digest128&, const Digest128&) = default;
    friend auto operator<=>(const Digest128&, const Digest128&) = default;

    /// Fixed-width hex rendering "hhhhhhhhhhhhhhhh:llllllllllllllll".
    std::string to_string() const {
        static constexpr char kHex[] = "0123456789abcdef";
        std::string out(33, ':');
        for (int i = 0; i < 16; ++i) {
            out[15 - i] = kHex[(hi >> (4 * i)) & 0xf];
            out[32 - i] = kHex[(lo >> (4 * i)) & 0xf];
        }
        return out;
    }
};

/// Incremental, deterministic 128-bit hasher.  Feed bytes / integers /
/// strings in a canonical order, then read digest().  The same feed
/// sequence always yields the same digest; distinct feed sequences are
/// kept distinct by tagging every variable-length field with its length
/// at the call sites (see core/explorer.cpp).
class StateHasher {
public:
    void bytes(const void* data, std::size_t size) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < size; ++i) {
            const std::uint64_t b = p[i];
            a_ = (a_ ^ b) * kPrime;
            b_ = (b_ ^ (b + 0x9e)) * kPrime;
        }
    }

    void str(std::string_view s) {
        // Length prefix keeps ("ab","c") distinct from ("a","bc").
        u64(s.size());
        bytes(s.data(), s.size());
    }

    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }

    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /// Folds a previously computed digest into the stream (128 bits).
    /// The explorer uses this to fold cached per-message digests into a
    /// state key instead of re-walking message payloads per candidate.
    void fold(const Digest128& d) {
        u64(d.hi);
        u64(d.lo);
    }

    /// Finalizes (without consuming) the current state.
    Digest128 digest() const {
        return {finalize(a_ ^ 0x2545f4914f6cdd1dull), finalize(b_)};
    }

    /// Rewinds the hasher to its initial state.  The explorer's hot
    /// paths keep one scratch hasher per worker and reset it between
    /// candidates instead of constructing a fresh object -- the hasher
    /// is trivially small, but reset() also documents the reuse
    /// discipline (no state may leak between candidates).
    void reset() {
        a_ = kBasisA;
        b_ = kBasisB;
    }

private:
    static constexpr std::uint64_t kPrime = 0x100000001b3ull;  // FNV-1a
    static constexpr std::uint64_t kBasisA = 0xcbf29ce484222325ull;  // FNV-1a
    static constexpr std::uint64_t kBasisB = 0x84222325cbf29ce4ull;  // lane 2

    static std::uint64_t finalize(std::uint64_t x) {
        // splitmix64 finalizer: full avalanche over the FNV state.
        x += 0x9e3779b97f4a7c15ull;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        return x ^ (x >> 31);
    }

    std::uint64_t a_ = kBasisA;
    std::uint64_t b_ = kBasisB;
};

}  // namespace ksa
