#pragma once

#include "core/rng.hpp"
#include "oracle/repro.hpp"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace lph {

namespace obs {
class Session;
}

/// One confirmed disagreement between a fast path and its oracle, after
/// counterexample shrinking.
struct Divergence {
    ReproCase repro;     ///< the shrunk, re-runnable counterexample
    std::string detail;  ///< what disagreed, on the shrunk instance
    std::size_t original_nodes = 0;
    std::size_t shrunk_nodes = 0;
};

/// Outcome of fuzzing one differential check over a seeded corpus.
struct CheckReport {
    std::string check;
    std::uint64_t seed = 0;
    std::size_t instances = 0;
    /// Wall-clock of the whole corpus, including shrinking any divergences.
    double wall_ms = 0;
    std::vector<Divergence> divergences;
    bool passed() const { return divergences.empty(); }
    double instances_per_sec() const {
        return wall_ms > 0
                   ? 1000.0 * static_cast<double>(instances) / wall_ms
                   : 0.0;
    }
};

/// Names of all registered differential checks, in execution order:
///   game-par-vs-ref            the memoized game engine at 1 and 4
///                              threads vs the recursive reference
///   game-cache-vs-nocache      verdict table on vs off, plus a reused
///                              shared table and its verdict-mismatch counter
///   logic-eval-vs-expansion    evaluate() vs quantifier-expansion reference
///   eulerian-vs-bruteforce     degree/component test + Hierholzer vs
///                              brute-force trail search
///   coloring-vs-bruteforce     backtracking/DSATUR/bipartite vs k^n scan
///   hamiltonian-vs-bruteforce  pruned search vs permutation scan
///   reduction-eulerian-vs-theorem
///                              AllSelectedToEulerian output vs Prop. 15
std::vector<std::string> check_names();

bool is_check_name(const std::string& name);

/// One differential check as the registry stores it.  Higher layers (the
/// serving library's chaos check, for instance) register their own checks
/// through register_check(); the oracle library cannot depend on them, so
/// the registry is open instead of a closed table.
struct RegisteredCheck {
    std::string name;
    ReproCase (*generate)(Rng&) = nullptr;
    std::optional<std::string> (*compare)(const ReproCase&) = nullptr;
    /// Optional check-specific parameter simplifications for the shrinker.
    std::vector<std::map<std::string, std::string>> (*param_shrinks)(
        const std::map<std::string, std::string>&) = nullptr;
};

/// Appends one check to the registry (thread-safe).  Re-registering an
/// existing name is a checked error except when generate/compare are
/// pointer-identical (idempotent re-registration from multiple cores).
void register_check(const RegisteredCheck& check);

/// Fuzzes one check: `instances` seeded random instances, fast path vs
/// oracle on each; every divergence is shrunk to a 1-minimal counterexample
/// before being reported.  When `obs` is set, the check accumulates
/// `oracle.*` counters (checks, instances, divergences, wall_ms) into the
/// session's registry; span tracing is independent and follows the ambient
/// obs::Tracer.
CheckReport run_check(const std::string& name, std::uint64_t seed,
                      std::size_t instances, obs::Session* obs = nullptr);

/// Re-executes one repro case.  Returns the divergence detail, or nullopt
/// when fast path and oracle now agree.
std::optional<std::string> replay_repro(const ReproCase& repro);

/// One JSON object (single line) summarizing a report; divergence entries
/// carry detail and instance sizes but not the repro text.
std::string report_row_json(const CheckReport& report);

std::string json_escape(const std::string& s);

} // namespace lph
