/**
 * @file
 * Parallel portfolio SAT engine.
 *
 * PortfolioSolver presents the SolverBase surface over one CDCL
 * instance or N diversified ones (different EVSIDS seeds, phase
 * policies and restart schedules). Instance 0 exists from
 * construction and takes every newVar()/addClause()/setPolarity()/
 * boostActivity() as it arrives, so the formula is never staged.
 * A racing portfolio builds instances 1..N-1 at its first solve()
 * from instance 0's problemClausesSnapshot() plus the warm-start
 * hints recorded until then, and from that solve on races the N
 * over a shared ThreadPool. Racing instances exchange short
 * low-LBD learnt clauses through a lock-light append-only buffer;
 * the first decisive finisher wins and cancels the rest through
 * the Budget stop flag, so the winning instance — and hence the
 * model — may differ run to run. A one-instance portfolio is the
 * deterministic mode: its answers are a pure function of the call
 * sequence and budgets.
 *
 * Key invariants:
 *  - Variable numbering is shared: newVar()/addClause() go to
 *    every built instance in call order, so literal meanings agree
 *    across the portfolio and with the caller.
 *  - No variable is ever eliminated: clauses and assumptions may
 *    mention any created variable at any time, and after Sat,
 *    modelValue() is the winner's model, defined for every
 *    variable.
 *  - With instances = 1, every call goes straight to a plain
 *    Solver: answers, models and SolverStats are bit-identical to
 *    a Solver fed the same calls, for every thread count.
 *  - A level-0 conflict is reported by the addClause() call that
 *    causes it, as a plain Solver reports it.
 *  - Budget.maxSeconds bounds the whole solve() call's wall
 *    clock, not each instance: with fewer threads than instances
 *    the stragglers only get whatever the earlier finishers left
 *    over. Conflict budgets stay per instance.
 */

#ifndef FERMIHEDRAL_SAT_PORTFOLIO_H
#define FERMIHEDRAL_SAT_PORTFOLIO_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/parallel.h"
#include "sat/solver.h"
#include "sat/solver_base.h"
#include "sat/types.h"

namespace fermihedral::sat {

/**
 * Lock-light learnt-clause exchange: an append-only publish log
 * with one read cursor per instance. The single mutex is taken only
 * when a glue clause is learnt or a restart imports — both rare
 * next to propagation — never per propagation or per decision.
 */
class ClauseExchange
{
  public:
    ClauseExchange(std::size_t instances, std::uint32_t max_lbd,
                   std::size_t max_size);

    /** LBD ceiling for published clauses (units always pass). */
    std::uint32_t maxLbd() const { return lbdLimit; }

    /** Length ceiling for published clauses. */
    std::size_t maxSize() const { return sizeLimit; }

    /** Append a clause learnt by `from`. */
    void publish(std::size_t from, std::span<const Lit> literals,
                 std::uint32_t lbd);

    /** A clause in transit, with the publisher's LBD. */
    struct SharedClause
    {
        std::vector<Lit> lits;
        std::uint32_t lbd;
    };

    /**
     * Append all clauses published by other instances since
     * `instance` last collected. The publisher's LBD rides along
     * so importers keep the glue protection reduceDb() grants.
     */
    void collect(std::size_t instance,
                 std::vector<SharedClause> &out);

    /** Total clauses ever published. */
    std::uint64_t published() const;

  private:
    struct Entry
    {
        std::size_t from;
        SharedClause clause;
    };

    std::uint32_t lbdLimit;
    std::size_t sizeLimit;
    mutable std::mutex mutex;
    /** Entries every cursor consumed are pruned; this counts them. */
    std::uint64_t totalPruned = 0;
    std::vector<Entry> log;
    std::vector<std::size_t> cursors;
};

/** Configuration of a PortfolioSolver. */
struct PortfolioOptions
{
    /**
     * Number of diversified solver instances (0 selects the
     * resolved thread count); more than one races them. Instance 0
     * always runs the default SolverConfig, so a 1-instance
     * portfolio searches exactly like a plain Solver.
     */
    std::size_t instances = 0;

    /** Threads racing the instances (0 = hardware concurrency). */
    std::size_t threads = 1;
};

/** Counters describing the portfolio's work so far. */
struct PortfolioStats
{
    /** Sum of every instance's counters. */
    SolverStats aggregate;

    /** Counters of the last winning instance. */
    SolverStats winner;

    /**
     * Upfront-simplifier figures that perfbench's cold_ladder still
     * reads; ROADMAP item 8(f) drops them. Nothing simplifies
     * before the first solve, so both stay 0.
     */
    struct
    {
        double seconds = 0.0;
        std::size_t eliminatedVariables = 0;
    } simplifier;

    /** Index of the instance that decided the last solve. */
    std::size_t lastWinner = 0;

    /** solve() calls so far. */
    std::size_t solves = 0;

    /** Solves decided by Sat / Unsat / neither. */
    std::size_t satAnswers = 0;
    std::size_t unsatAnswers = 0;
    std::size_t unknownAnswers = 0;
};

/** The portfolio front-end (see file docs). */
class PortfolioSolver final : public SolverBase
{
  public:
    explicit PortfolioSolver(const PortfolioOptions &options = {});
    ~PortfolioSolver() override;

    Var newVar() override;
    std::size_t numVars() const override
    {
        return instances.front()->numVars();
    }

    /**
     * addClause() calls so far, units and clauses satisfied at
     * level 0 included: the instance as its builder emitted it.
     * Instance 0 stores fewer (Solver::numClauses()).
     */
    std::size_t numClauses() const override { return clausesAdded; }

    using SolverBase::addClause;
    bool addClause(std::span<const Lit> literals) override;

    SolveStatus solve(std::span<const Lit> assumptions = {},
                      const Budget &budget = {}) override;

    /**
     * Drop every instance's learnt clauses (Solver::clearLearnts):
     * the carry-over reset used to measure what incremental reuse
     * buys across the descent's bound-tightening steps.
     */
    void clearLearnts();

    using SolverBase::modelValue;
    LBool modelValue(Var var) const override;

    void setPolarity(Var var, bool value) override;
    void boostActivity(Var var, double amount) override;

    bool inconsistent() const override;
    const SolverStats &stats() const override;

    /** Number of instances that will race (>= 1). */
    std::size_t numInstances() const { return instanceCount; }

    /** Threads used per solve (>= 1). */
    std::size_t numThreads() const { return threadCount; }

    const PortfolioStats &portfolioStats() const;

    /**
     * The diversified configuration instance `index` runs with.
     * Exposed so tests can pin down the diversification contract.
     */
    static SolverConfig instanceConfig(std::size_t index);

  private:
    std::size_t instanceCount;
    std::size_t threadCount;

    /**
     * Instance 0 from construction on; instances 1..N-1 once a
     * racing portfolio has made its first solve.
     */
    std::vector<std::unique_ptr<Solver>> instances;
    /** addClause() calls so far (see numClauses()). */
    std::size_t clausesAdded = 0;
    /** Warm-start hints replayed into instances 1..N-1. */
    std::vector<std::pair<Var, bool>> pendingPolarity;
    std::vector<std::pair<Var, double>> pendingActivity;

    std::unique_ptr<ClauseExchange> exchange;
    std::unique_ptr<ThreadPool> pool;
    std::vector<LBool> fullModel;

    mutable PortfolioStats portfolio;
    mutable SolverStats aggregateCache;

    /** Every instance exists (always true with one instance). */
    bool built() const { return instances.size() == instanceCount; }
    void buildRacers();
    void checkIncrementalLits(std::span<const Lit> literals) const;
    void publishModel(const Solver &winner);
};

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_PORTFOLIO_H
