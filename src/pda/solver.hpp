#pragma once
// Weighted post*/pre* saturation (Reps, Schwoon, Jha, Melski 2005;
// Bouajjani, Esparza, Maler 1997) over P-automata, with:
//   * Dijkstra-ordered worklists — the first time an item is finalized its
//     weight is minimal (weights are monotone: every rule weight ≥ 1̄);
//   * symbolic set-labelled edges, so huge label classes never expand;
//   * per-transition provenance, from which minimum-weight witness rule
//     sequences are reconstructed without a second search.

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "nfa/nfa.hpp"
#include "pda/pautomaton.hpp"
#include "util/arena.hpp"

namespace aalwines::pda {

/// Reusable scratch memory for the saturation entry points: the bucket
/// worklist resets its arena on entry, so a workspace shared across calls
/// reuses the high-water footprint instead of re-allocating.  Not
/// thread-safe: one workspace per thread.  Saturation is sequential;
/// parallelism runs across queries (batch jobs, server workers, sweep
/// chains), each with its own workspace.
struct SolverWorkspace {
    util::Arena worklist; ///< post*/pre* bucket-queue nodes
};

/// Worklist discipline for the saturation Dijkstra loop.
enum class Worklist : std::uint8_t {
    Auto, ///< Dial's bucket queue (FIFO per scalar-weight bucket) when every
          ///< weight is scalar, else Heap
    Heap, ///< binary heap ordered by (weight, insertion seq)
};

struct SolverOptions {
    /// Worklist selection; Auto picks the bucket queue whenever sound.  The
    /// two disciplines finalize items in the identical (weight, insertion)
    /// order, so results do not depend on this knob: forcing Heap is the
    /// cross-check the worklist-equivalence tests run.
    Worklist worklist = Worklist::Auto;

    /// Optional scratch-memory workspace reused across calls.
    SolverWorkspace* workspace = nullptr;

    /// Stop after this many finalized items (0 = unlimited).  A safety valve
    /// for benchmark timeouts; saturation is still sound when hit (the
    /// automaton under-approximates post*/pre*), the caller must treat a
    /// truncated run as inconclusive.
    std::size_t max_iterations = 0;

    /// Demand-driven early termination.  Called on an exponential schedule;
    /// must return the weight of the best configuration accepted *so far*
    /// (typically via find_accepted on the automaton being saturated, which
    /// only reads finalized items), or Weight::infinity() when none exists.
    /// Because items finalize in non-decreasing weight order and extend is
    /// monotone, saturation may stop as soon as that weight is <= the
    /// frontier weight: no cheaper accepted configuration can appear later.
    /// With unit weights this stops at the first check after satisfiability.
    std::function<Weight()> check_accepted;
};

struct SolverStats {
    std::size_t iterations = 0;  ///< worklist pops (items finalized)
    std::size_t transitions = 0; ///< automaton transitions after saturation
    std::size_t epsilons = 0;    ///< ε-transitions after saturation
    std::size_t relaxations = 0; ///< inserts/weight decreases enqueued
    std::size_t peak_queue = 0;  ///< worklist length high-water mark
    bool truncated = false;
    bool early_terminated = false;
    bool bucket_worklist = false; ///< the bucket queue was used for this run
};

/// Saturate `aut` (which initially accepts the source configurations C)
/// into an automaton accepting post*(C).  The initial automaton must have
/// no transitions into control states.
SolverStats post_star(PAutomaton& aut, const SolverOptions& options = {});

/// Saturate `aut` (initially accepting the target configurations C) into an
/// automaton accepting pre*(C).
SolverStats pre_star(PAutomaton& aut, const SolverOptions& options = {});

/// A configuration accepted by the automaton: control state + a concrete
/// stack spelled by `path` (one chosen symbol per traversed transition).
/// In a post*-saturated automaton the accepting run may start with one
/// ε-transition (ε-transitions leave control states only, and lead to
/// non-control states, so at most one can occur — and only as the first
/// move); `leading_epsilon` records it.
struct AcceptedConfig {
    Weight weight;
    StateId control_state = 0;
    std::optional<std::uint32_t> leading_epsilon;
    std::vector<std::pair<TransId, Symbol>> path;
};

/// Find the minimum-weight accepted configuration whose control state is in
/// `starts` and whose stack is in L(stack_nfa) (ε-free NFA over symbols
/// < domain).  Dijkstra over the product automaton, interning only the
/// product nodes it reaches.  `workspace` is accepted for call-site symmetry
/// with post_star/pre_star and is not used: the search allocates per call.
[[nodiscard]] std::optional<AcceptedConfig> find_accepted(const PAutomaton& aut,
                                                          std::span<const StateId> starts,
                                                          const nfa::Nfa& stack_nfa,
                                                          Symbol domain,
                                                          SolverWorkspace* workspace = nullptr);

/// Up to `count` accepted configurations in non-decreasing weight order
/// (k-shortest accepting walks of the product automaton: each product node
/// may be settled up to `count` times).  Distinct walks may spell the same
/// configuration; callers deduplicate at their own level.
[[nodiscard]] std::vector<AcceptedConfig> find_accepted_n(const PAutomaton& aut,
                                                          std::span<const StateId> starts,
                                                          const nfa::Nfa& stack_nfa,
                                                          Symbol domain,
                                                          std::size_t count);

/// A concrete PDA run: start at `initial_state` with `initial_stack`
/// (top first) and apply `rules` in order.
struct PdaWitness {
    StateId initial_state = 0;
    std::vector<Symbol> initial_stack;
    std::vector<RuleId> rules;
};

/// Reconstruct the run leading to `config` in a post*-saturated automaton
/// (walks provenance backwards from the accepting path).
[[nodiscard]] std::optional<PdaWitness> unroll_post_star(const PAutomaton& aut,
                                                         const AcceptedConfig& config);

/// Reconstruct the run starting at `config` in a pre*-saturated automaton
/// (walks provenance forwards into the target set).
[[nodiscard]] std::optional<PdaWitness> unroll_pre_star(const PAutomaton& aut,
                                                        const AcceptedConfig& config);

/// Replay a witness on the PDA, returning the visited configurations
/// (state, stack top-first) including the initial one.  Returns nullopt if
/// the witness is not a valid run (used by tests and trace rebuilding).
[[nodiscard]] std::optional<std::vector<std::pair<StateId, std::vector<Symbol>>>>
replay_witness(const Pda& pda, const PdaWitness& witness);

} // namespace aalwines::pda
