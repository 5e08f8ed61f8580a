/**
 * @file
 * Algorithm 1: descend on the Pauli-weight bound with a SAT solver.
 *
 * The solver starts from the Bravyi-Kitaev cost (the paper's w0),
 * warm-starts the CDCL phases at the BK solution, and repeatedly
 * asks for an encoding strictly cheaper than the best found so far,
 * tightening the totalizer bound by one unit clause per round. The
 * loop ends with a proof of optimality or when the per-step or
 * total budget expires (the paper's timeout termination). A proof
 * is an UNSAT answer at best - 1 or, for the total-weight objective
 * only, a best cost that reached enc::totalWeightLowerBound: there
 * no cheaper encoding exists, so the loop stops without the last
 * SAT call the paper's Algorithm 1 would spend refuting one.
 *
 * Three configurations correspond to the paper's experiments:
 *  - Full SAT: all constraints, Ham.-independent or -dependent cost;
 *  - SAT w/o Alg.: algebraicIndependence = false (Sec. 4.1);
 *  - SAT + Anl.: Ham.-independent solve here, then the annealing
 *    pairing of Algorithm 2 (annealing.h).
 *
 * Key invariants:
 *  - solve() always returns a valid encoding: the Bravyi-Kitaev
 *    baseline is feasible by construction, so even a zero budget
 *    yields DescentResult::encoding with cost == baselineCost.
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

/** Options for one descent run. */
struct DescentOptions
{
    /** Keep the power-set algebraic independence clauses. */
    bool algebraicIndependence = true;

    /** Keep the vacuum X/Y-pairing clauses. */
    bool vacuumPreservation = true;

    /** Initialise solver phases from the baseline encoding. */
    bool warmStart = true;

    /** Wall-clock budget for each individual SAT call (seconds). */
    double stepTimeoutSeconds = 30.0;

    /** Wall-clock budget for the whole descent (seconds). */
    double totalTimeoutSeconds = 300.0;

    /** Threads racing each SAT step (0 = hardware concurrency). */
    std::size_t threads = 1;

    /**
     * Diversified solver instances in the portfolio (0 = one per
     * thread). With more instances than threads the pool
     * multiplexes them; instance 0 always searches like the plain
     * solver did.
     */
    std::size_t portfolioInstances = 0;

    /**
     * Fixed winner arbitration (lowest decisive instance index, no
     * cancellation, no clause sharing): descent results are then
     * bit-identical for every thread count as long as no step
     * times out. Racing mode (false) is faster — first decisive
     * instance wins and cancels the rest, learnt clauses are
     * shared — but the tie-break between equally-cheap encodings
     * may differ run to run.
     */
    bool deterministic = true;

    /** Simplify the clause database before the first SAT call. */
    bool preprocess = true;

    /**
     * Wall-clock cap on that upfront simplification run
     * (<= 0 = unlimited). Preprocessing pays for itself many times
     * over during the UNSAT proving rounds, but the paper's
     * time-to-best clock starts before the first model: without a
     * cap the simplifier can spend longer on a dense 4^N-clause
     * instance than the whole improving phase takes.
     */
    double preprocessBudgetSeconds = 0.05;

    /**
     * Skip the upfront pass entirely for instances staged with
     * more than this many clauses (0 = no ceiling). On
     * totalizer-dominated instances past a few thousand clauses
     * the occurrence index alone outweighs the improving phase;
     * the gated inprocessing recovers the simplification once the
     * proving rounds make it worthwhile.
     */
    std::size_t preprocessMaxClauses = 4000;

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
     * Inprocess the clause databases between descent steps
     * (subsumption + vivification, Solver::inprocess): each
     * permanent bound unit lets the simplifier strip satisfied
     * clauses and shorten the totalizer ladder before the next,
     * harder SAT call.
     */
    bool inprocess = true;

    /** Run inprocessing every this-many SAT steps (>= 1). */
    std::size_t inprocessInterval = 3;

    /**
     * Skip inprocessing while the search is easy: maintenance only
     * runs once at least this many conflicts accumulated since the
     * last one. Early descent steps are often solved almost purely
     * by propagation, and subsumption+vivification over a database
     * that produced no learnt clauses is pure overhead on the
     * time-to-best clock.
     */
    std::size_t inprocessMinConflicts = 2000;

    /**
     * Cooperative cancellation: when non-null and set, the descent
     * stops at the next SAT budget poll and solve() returns its
     * best-so-far result with DescentTermination::Cancelled. The
     * flag is composed into every sat::Budget the loop issues, so
     * it reaches both portfolio arbitration modes. Checked with
     * relaxed loads only — attaching a never-fired flag does not
     * perturb deterministic-mode bit-identity.
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
    /** Best encoding found (the baseline when SAT never improved). */
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

    /** Wall-clock split between building and solving the model. */
    double constructSeconds = 0.0;
    double solveSeconds = 0.0;

    /** Variable/clause counts of the constructed instance. */
    std::size_t numVars = 0;
    std::size_t numClauses = 0;

    /** (cost, elapsed seconds) after each improving model. */
    std::vector<std::pair<std::size_t, double>> trajectory;

    /**
     * SAT-engine counters for the whole run: per-instance search
     * work (propagations/conflicts/learnt literals), preprocessing
     * effect (eliminated variables, subsumed clauses, simplified
     * instance size) and portfolio arbitration outcomes.
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

    /** Conflict count at the last inprocessing run (gate state). */
    std::size_t inprocessedConflicts = 0;

    std::unique_ptr<sat::PortfolioSolver> makeSolver() const;

    /** Carry-over / inprocessing maintenance after a SAT step. */
    void afterStep(std::size_t sat_calls);

    std::size_t baselineCost(const enc::FermionEncoding &bk) const;
};

} // namespace fermihedral::core

#endif // FERMIHEDRAL_CORE_DESCENT_SOLVER_H
