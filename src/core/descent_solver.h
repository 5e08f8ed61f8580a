/**
 * @file
 * Algorithm 1: descend on the Pauli-weight bound with a SAT solver.
 *
 * The solver starts from the cheapest of its start candidates under
 * the run's objective: Bravyi-Kitaev (the paper's w0), the
 * vacuum-paired ternary tree (DescentOptions::pairedTreeStart), the
 * plain ternary tree when vacuum pairing is off, and the caller's
 * seed. It warm-starts the CDCL phases there and repeatedly asks
 * for an encoding strictly cheaper than the best found so far,
 * tightening the totalizer bound by one unit clause per round. The
 * loop ends with a proof of optimality or when the per-step or
 * total budget expires (the paper's timeout termination). A proof
 * is an UNSAT answer at best - 1 or, for the total-weight objective
 * only, a best cost that reached enc::totalWeightLowerBound: there
 * no cheaper encoding exists, so the loop stops without the last
 * SAT call the paper's Algorithm 1 would spend refuting one. The
 * paired tree meets that bound at every N, so with it a
 * total-weight descent starts proved: solve() returns it with no
 * solver, no model and no SAT call.
 *
 * Three configurations correspond to the paper's experiments:
 *  - Full SAT: all constraints, Ham.-independent or -dependent cost;
 *  - SAT w/o Alg.: algebraicIndependence = false (Sec. 4.1);
 *  - SAT + Anl.: Ham.-independent solve here, then the annealing
 *    pairing of Algorithm 2 (annealing.h).
 *
 * Key invariants:
 *  - solve() always returns a valid encoding: every start
 *    candidate is feasible by construction (a seed once
 *    validateEncoding() accepts it), so even a zero budget yields
 *    the cheapest start, at cost <= baselineCost.
 *  - result.cost is exact under the run's objective and equals
 *    costOf(result.encoding); provedOptimal is set only on a true
 *    UNSAT at cost - 1 or when cost reached
 *    enc::totalWeightLowerBound (never on a timeout).
 *  - The cost trajectory is strictly decreasing: each SAT model
 *    accepted during descent is strictly cheaper than the last.
 *  - enumerateOptimal() may only be called after solve(); calling
 *    it first is a fatal diagnostic (FatalError). The returned
 *    encodings are pairwise distinct operator assignments at
 *    cost <= the best found.
 */

#ifndef FERMIHEDRAL_CORE_DESCENT_SOLVER_H
#define FERMIHEDRAL_CORE_DESCENT_SOLVER_H

#include <atomic>
#include <functional>
#include <optional>
#include <vector>

#include "core/encoding_model.h"
#include "encodings/encoding.h"
#include "fermion/operators.h"
#include "sat/portfolio.h"

namespace fermihedral::core {

/**
 * One per-bound progress report, delivered after every SAT step of
 * the descent loop (improving models, the final UNSAT refutation
 * and budget-expired steps alike). Successive reports have strictly
 * decreasing `bound` and non-decreasing `elapsedSeconds`.
 */
struct DescentProgress
{
    /** The bound this step asked for (best - 1). */
    std::size_t bound = 0;

    /** Cheapest feasible cost known after the step. */
    std::size_t bestCost = 0;

    /** SAT calls made so far, this step included. */
    std::size_t satCalls = 0;

    /** Wall-clock since solve() started (monotonic clock). */
    double elapsedSeconds = 0.0;

    /** The step's answer: Sat = improved, Unsat = proved optimal. */
    sat::SolveStatus status = sat::SolveStatus::Unknown;

    /** Aggregate solver conflicts across the run so far. */
    std::uint64_t conflicts = 0;
};

/** Why solve() stopped descending. */
enum class DescentTermination
{
    /**
     * Optimality proved: UNSAT at best - 1, or best reached the
     * total-weight lower bound (for Eq. 14, a cost of 0).
     */
    Completed,
    /** The step/total wall budget expired (anytime answer). */
    BudgetExhausted,
    /** The caller's stop flag was raised mid-descent. */
    Cancelled,
};

/**
 * The SAT-engine knobs, declared once: DescentOptions and
 * api::CompilationRequest inherit them, so every layer that
 * forwards them copies this one value.
 */
struct EngineOptions
{
    /** Threads racing each SAT step (0 = hardware concurrency). */
    std::size_t threads = 1;

    /**
     * Diversified solver instances racing each SAT step (0 = one
     * per thread). With more instances than threads the pool
     * multiplexes them.
     */
    std::size_t portfolioInstances = 0;

    /**
     * Run one solver instance, which searches exactly like a plain
     * sat::Solver: descent results are then a pure function of the
     * options as long as no step times out, and `threads` and
     * `portfolioInstances` are ignored. Racing (false) is faster —
     * the first decisive instance wins and cancels the rest,
     * learnt clauses are shared — but the tie-break between
     * equally-cheap encodings may differ run to run.
     */
    bool deterministic = true;

    /**
     * Read by nothing: perfbench's cold_ladder still assigns it,
     * and ROADMAP item 8(f) drops it there and here.
     */
    bool preprocess = true;

    /**
     * Keep each instance's learnt clauses across the descent's
     * bound-tightening steps. The totalizer bound only ever
     * tightens (one permanent unit clause per round), so clauses
     * learnt at a looser bound remain sound at every tighter one
     * and the next step starts from everything the last one
     * derived. Off = Solver::clearLearnts() after every SAT call,
     * the restart-from-scratch behaviour used to measure what
     * carry-over buys (DescentResult::satStats counts conflicts).
     */
    bool carryLearnts = true;

    /**
     * Read by nothing: perfbench's cold_ladder still assigns it,
     * and ROADMAP item 8(f) drops it there and here.
     */
    bool inprocess = true;
};

/** Options for one descent run. */
struct DescentOptions : EngineOptions
{
    /**
     * Build the power-set algebraic independence clauses (the
     * paper's Full SAT; fatal beyond 8 modes). They never remove a
     * model, because anticommuting strings are always independent,
     * so only the paper's figures that plot them set this: every
     * api strategy runs with it off. It applies to total-weight
     * descents only; an Eq. 14 descent never builds the family.
     */
    bool algebraicIndependence = true;

    /**
     * Add enc::pairedTernaryTree() to the start candidates, and
     * return a start that already sits at the floor without
     * building a solver or a model. The tree keeps the X/Y pairing
     * and meets enc::totalWeightLowerBound at every N, so a
     * total-weight descent ends proved before any SAT work; under
     * Eq. 14 it competes on cost like the other starts. Off =
     * Algorithm 1 from the paper's w0 (Bravyi-Kitaev), model build
     * included, which the paper's figures time.
     */
    bool pairedTreeStart = true;

    /** Keep the vacuum X/Y-pairing clauses. */
    bool vacuumPreservation = true;

    /** Initialise solver phases from the baseline encoding. */
    bool warmStart = true;

    /** Wall-clock budget for each individual SAT call (seconds). */
    double stepTimeoutSeconds = 30.0;

    /**
     * Wall-clock budget for the whole descent (seconds), counted
     * from solve() entry, so building the model spends it too.
     */
    double totalTimeoutSeconds = 300.0;

    /**
     * Cooperative cancellation: when non-null and set, the descent
     * stops at the next SAT budget poll and solve() returns its
     * best-so-far result with DescentTermination::Cancelled. The
     * flag is composed into every sat::Budget the loop issues, so
     * it reaches a racing portfolio as well as the single
     * deterministic instance. Checked with relaxed loads only —
     * attaching a never-fired flag does not perturb deterministic
     * results.
     */
    const std::atomic<bool> *stopFlag = nullptr;

    /**
     * Extra starting candidate (e.g.\ a SAT+Anl. solution for the
     * Hamiltonian-dependent search). Used as warm start and initial
     * bound when it satisfies the active constraints and costs less
     * than the baseline.
     */
    std::optional<enc::FermionEncoding> seedEncoding;

    /**
     * Called after every SAT step with the descent's state (see
     * DescentProgress). Runs on the descent thread; an execution
     * observer only — it cannot steer the search, and it must not
     * re-enter the solver. Empty = no reports.
     */
    std::function<void(const DescentProgress &)> progress;
};

/** Result of a descent run. */
struct DescentResult
{
    /** Best encoding found (the start when SAT never improved). */
    enc::FermionEncoding encoding;

    /** Cost of `encoding` under the run's objective. */
    std::size_t cost = 0;

    /** Cost of the Bravyi-Kitaev baseline for reference. */
    std::size_t baselineCost = 0;

    /**
     * `cost` is proved optimal: the final decrement was refuted, or
     * `cost` is the total-weight lower bound.
     */
    bool provedOptimal = false;

    /** Why the descent stopped (budget vs cancel vs proof). */
    DescentTermination termination = DescentTermination::Completed;

    /** Number of SAT solve() calls made. */
    std::size_t satCalls = 0;

    /**
     * Wall-clock split between building and solving the model.
     * Building includes loading it into the solver, which takes
     * each clause as the model emits it. Both stay 0 when the start
     * was already proved and no model was built.
     */
    double constructSeconds = 0.0;
    double solveSeconds = 0.0;

    /** Variable/clause counts of the constructed instance. */
    std::size_t numVars = 0;
    std::size_t numClauses = 0;

    /** (cost, elapsed seconds) after each improving model. */
    std::vector<std::pair<std::size_t, double>> trajectory;

    /**
     * SAT-engine counters for the whole run: per-instance search
     * work (propagations/conflicts/learnt literals, garbage
     * collection, carry-over resets) and portfolio race outcomes.
     */
    sat::PortfolioStats satStats;
};

/** Searches optimal encodings for one mode count. */
class DescentSolver
{
  public:
    /** Hamiltonian-independent objective (Sec. 3.6). */
    DescentSolver(std::size_t modes, const DescentOptions &options);

    /** Hamiltonian-dependent objective (Sec. 3.7). */
    DescentSolver(const fermion::FermionHamiltonian &hamiltonian,
                  const DescentOptions &options);

    /** Run Algorithm 1. */
    DescentResult solve();

    /**
     * After solve(), enumerate up to `count` further distinct
     * encodings at cost <= the best found (used for Figure 4's
     * sampling of optimal encodings). Returns fewer when the space
     * is exhausted or the budget expires.
     */
    std::vector<enc::FermionEncoding> enumerateOptimal(
        std::size_t count, double timeout_seconds);

  private:
    std::size_t modes;
    DescentOptions options;
    std::vector<fermion::WeightedSubset> structure;

    std::unique_ptr<sat::PortfolioSolver> solver;
    std::unique_ptr<EncodingModel> model;
    std::optional<DescentResult> lastResult;

    std::unique_ptr<sat::PortfolioSolver> makeSolver() const;

    /** `encoding`'s cost under the run's objective. */
    std::size_t objectiveCost(const enc::FermionEncoding &encoding) const;
};

} // namespace fermihedral::core

#endif // FERMIHEDRAL_CORE_DESCENT_SOLVER_H
