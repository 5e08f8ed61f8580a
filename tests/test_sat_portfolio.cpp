/**
 * @file
 * Tests for the portfolio SAT engine: SolverBase conformance
 * (models over every variable, clauses, assumptions and variables
 * after the first solve), diversification, racing with clause
 * sharing and cancellation, and the one-instance identity with a
 * plain Solver.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "sat/dimacs.h"
#include "sat/portfolio.h"
#include "sat/solver.h"

namespace fermihedral::sat {
namespace {

PortfolioOptions
withInstances(std::size_t instances, std::size_t threads)
{
    PortfolioOptions options;
    options.instances = instances;
    options.threads = threads;
    return options;
}

/**
 * The pigeonhole formula PHP(pigeons, holes): UNSAT whenever
 * pigeons > holes, and exponentially hard for resolution, so
 * PHP(10, 9) keeps every instance busy far longer than any test.
 */
void
addPigeonhole(SolverBase &solver, int pigeons, int holes)
{
    std::vector<std::vector<Var>> at(pigeons,
                                     std::vector<Var>(holes));
    for (int p = 0; p < pigeons; ++p)
        for (int h = 0; h < holes; ++h)
            at[p][h] = solver.newVar();
    for (int p = 0; p < pigeons; ++p) {
        std::vector<Lit> clause;
        for (int h = 0; h < holes; ++h)
            clause.push_back(mkLit(at[p][h]));
        solver.addClause(clause);
    }
    for (int h = 0; h < holes; ++h)
        for (int p = 0; p < pigeons; ++p)
            for (int q = p + 1; q < pigeons; ++q)
                solver.addClause(
                    {~mkLit(at[p][h]), ~mkLit(at[q][h])});
}

/** Random 3-SAT clauses over `num_vars` fresh solver variables. */
std::vector<std::vector<Lit>>
randomCnf(SolverBase &solver, int num_vars, int num_clauses,
          Rng &rng)
{
    std::vector<std::vector<Lit>> cnf;
    for (int v = 0; v < num_vars; ++v)
        solver.newVar();
    for (int c = 0; c < num_clauses; ++c) {
        std::vector<Lit> clause;
        for (int k = 0; k < 3; ++k) {
            const Var var =
                static_cast<Var>(rng.nextBelow(num_vars));
            clause.push_back(mkLit(var, rng.nextBool()));
        }
        solver.addClause(clause);
        cnf.push_back(std::move(clause));
    }
    return cnf;
}

TEST(PortfolioSolver, SimpleSatAndFullModel)
{
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    solver.addClause({mkLit(a)});
    solver.addClause({~mkLit(a), mkLit(b)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(a), LBool::True);
    EXPECT_EQ(solver.modelValue(b), LBool::True);
}

TEST(PortfolioSolver, UnsatIsDetectedThroughPreprocessing)
{
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    solver.addClause({mkLit(a), mkLit(b)});
    solver.addClause({mkLit(a), ~mkLit(b)});
    solver.addClause({~mkLit(a), mkLit(b)});
    solver.addClause({~mkLit(a), ~mkLit(b)});
    EXPECT_EQ(solver.solve(), SolveStatus::Unsat);
}

TEST(PortfolioSolver, ModelCoversEliminatedVariables)
{
    // The model covers every variable, a Tseitin-style auxiliary
    // (y <-> a AND b) included.
    PortfolioSolver solver(withInstances(1, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    const Var y = solver.newVar();
    solver.addClause({~mkLit(y), mkLit(a)});
    solver.addClause({~mkLit(y), mkLit(b)});
    solver.addClause({~mkLit(a), ~mkLit(b), mkLit(y)});
    solver.addClause({mkLit(a)});
    solver.addClause({mkLit(b)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(a), LBool::True);
    EXPECT_EQ(solver.modelValue(b), LBool::True);
    // y is forced by a AND b.
    EXPECT_EQ(solver.modelValue(y), LBool::True);
}

TEST(PortfolioSolver, FrozenVariablesAcceptLaterClauses)
{
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    solver.addClause({mkLit(a), mkLit(b)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    // Incremental tightening, as the descent loop does with
    // totalizer outputs.
    solver.addClause({~mkLit(a)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(b), LBool::True);
    solver.addClause({~mkLit(b)});
    EXPECT_EQ(solver.solve(), SolveStatus::Unsat);
}

TEST(PortfolioSolver, AssumptionsOnFirstSolveSkipPreprocessing)
{
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    solver.addClause({mkLit(a), mkLit(b)});
    const Lit assume[] = {~mkLit(a)};
    ASSERT_EQ(solver.solve(assume), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(b), LBool::True);
    // Nothing is ever eliminated.
    EXPECT_EQ(solver.portfolioStats().simplifier.eliminatedVariables,
              0u);
    // Assumptions are not permanent.
    EXPECT_EQ(solver.solve(), SolveStatus::Sat);
}

TEST(PortfolioSolver, EveryVariableStaysUsableAfterTheFirstSolve)
{
    // y <-> (a AND b) plus {y, c}, with nothing marked: a solver
    // that eliminated a variable at the first solve would reject
    // the later assumption on c or the later clause on y.
    PortfolioSolver solver(withInstances(1, 1));
    const Lit a = mkLit(solver.newVar());
    const Lit b = mkLit(solver.newVar());
    const Lit y = mkLit(solver.newVar());
    const Lit c = mkLit(solver.newVar());
    solver.addClause({~y, a});
    solver.addClause({~y, b});
    solver.addClause({~a, ~b, y});
    solver.addClause({y, c});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);

    const Lit not_c[] = {~c};
    ASSERT_EQ(solver.solve(not_c), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(y), LBool::True);

    solver.addClause({~y});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(c), LBool::True);
    EXPECT_EQ(solver.solve(not_c), SolveStatus::Unsat);
}

/** Every SolverStats counter of `actual` equals `expected`'s. */
void
expectSameStats(const SolverStats &actual, const SolverStats &expected,
                int round)
{
    EXPECT_EQ(actual.conflicts, expected.conflicts) << "round " << round;
    EXPECT_EQ(actual.decisions, expected.decisions) << "round " << round;
    EXPECT_EQ(actual.propagations, expected.propagations)
        << "round " << round;
    EXPECT_EQ(actual.restarts, expected.restarts) << "round " << round;
    EXPECT_EQ(actual.learntLiterals, expected.learntLiterals)
        << "round " << round;
    EXPECT_EQ(actual.removedClauses, expected.removedClauses)
        << "round " << round;
    EXPECT_EQ(actual.sharedOut, expected.sharedOut) << "round " << round;
    EXPECT_EQ(actual.sharedIn, expected.sharedIn) << "round " << round;
    EXPECT_EQ(actual.garbageCollects, expected.garbageCollects)
        << "round " << round;
    EXPECT_EQ(actual.reclaimedWords, expected.reclaimedWords)
        << "round " << round;
    EXPECT_EQ(actual.clearedLearnts, expected.clearedLearnts)
        << "round " << round;
}

TEST(PortfolioSolver, InstanceZeroMatchesPlainSolver)
{
    // The portfolio's instance 0 runs the stock configuration and
    // takes every call as it arrives, so a 1-instance portfolio
    // must agree with a plain Solver on status, model and
    // SolverStats, call for call. The calls follow the descent's
    // order: the clauses, then warm-start polarities and
    // activities, then one bound unit between solves.
    constexpr int vars = 40;
    Rng rng(314);
    for (int round = 0; round < 10; ++round) {
        Solver plain;
        PortfolioSolver portfolio(withInstances(1, 1));
        Rng plain_rng = rng.fork(round);
        Rng portfolio_rng = rng.fork(round);
        const auto cnf_a = randomCnf(plain, vars, 168, plain_rng);
        const auto cnf_b =
            randomCnf(portfolio, vars, 168, portfolio_rng);
        ASSERT_EQ(cnf_a, cnf_b);

        Rng hint_rng = rng.fork(1000 + round);
        for (Var v = 0; v < vars; ++v) {
            const bool phase = hint_rng.nextBool();
            plain.setPolarity(v, phase);
            portfolio.setPolarity(v, phase);
        }
        for (Var v = 0; v < vars; v += 3) {
            plain.boostActivity(v, 1.0);
            portfolio.boostActivity(v, 1.0);
        }

        for (int step = 0; step < 8; ++step) {
            const SolveStatus expected = plain.solve();
            ASSERT_EQ(portfolio.solve(), expected)
                << "round " << round << " step " << step;
            expectSameStats(portfolio.stats(), plain.stats(), round);
            if (expected != SolveStatus::Sat)
                break;
            for (Var v = 0; v < vars; ++v)
                EXPECT_EQ(portfolio.modelValue(v),
                          plain.modelValue(v))
                    << "round " << round << " var " << v;
            // A bound unit: forbid one variable's current value.
            const Var bound = static_cast<Var>((7 * step) % vars);
            const Lit unit = mkLit(
                bound, plain.modelValue(bound) == LBool::True);
            EXPECT_EQ(portfolio.addClause({unit}),
                      plain.addClause({unit}));
        }
    }
}

TEST(PortfolioSolver, LevelZeroConflictIsReportedAtAddTime)
{
    // Every clause reaches instance 0 as it arrives and is
    // propagated at level 0 there, so a conflict that only
    // propagation finds is reported by the clause that causes it,
    // before any solve — by a racing portfolio too.
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    const Var b = solver.newVar();
    EXPECT_TRUE(solver.addClause({mkLit(a)}));
    EXPECT_TRUE(solver.addClause({~mkLit(a), mkLit(b)}));
    EXPECT_FALSE(solver.addClause({~mkLit(b)}));
    EXPECT_TRUE(solver.inconsistent());
    EXPECT_EQ(solver.solve(), SolveStatus::Unsat);
}

TEST(PortfolioSolver, RacingModeAgreesOnVerdict)
{
    // Racing arbitration may pick any decisive instance, but the
    // verdict must match the reference solver and any Sat model
    // must satisfy the formula.
    Rng rng(9001);
    for (int round = 0; round < 6; ++round) {
        Solver reference;
        PortfolioSolver racing(withInstances(4, 4));
        Rng ref_rng = rng.fork(round);
        Rng race_rng = rng.fork(round);
        const auto cnf = randomCnf(reference, 16, 70, ref_rng);
        randomCnf(racing, 16, 70, race_rng);
        const SolveStatus expected = reference.solve();
        const SolveStatus status = racing.solve();
        ASSERT_EQ(status, expected) << "round " << round;
        if (status == SolveStatus::Sat) {
            for (const auto &clause : cnf) {
                bool satisfied = false;
                for (const Lit lit : clause)
                    satisfied |=
                        racing.modelValue(lit) == LBool::True;
                EXPECT_TRUE(satisfied) << "round " << round;
            }
        }
    }
}

TEST(PortfolioSolver, DiversifiedConfigsDiffer)
{
    const SolverConfig base = PortfolioSolver::instanceConfig(0);
    EXPECT_EQ(base.seed, 0u);
    EXPECT_EQ(base.randomBranchFreq, 0.0);
    for (std::size_t i = 1; i < 8; ++i) {
        const SolverConfig config =
            PortfolioSolver::instanceConfig(i);
        EXPECT_NE(config.seed, 0u) << "instance " << i;
    }
    // Adjacent instances must not share the whole heuristic tuple.
    for (std::size_t i = 0; i + 1 < 8; ++i) {
        const SolverConfig a = PortfolioSolver::instanceConfig(i);
        const SolverConfig b =
            PortfolioSolver::instanceConfig(i + 1);
        const bool differs =
            a.seed != b.seed ||
            a.randomBranchFreq != b.randomBranchFreq ||
            a.initialPhase != b.initialPhase ||
            a.randomizePhases != b.randomizePhases ||
            a.restartSchedule != b.restartSchedule ||
            a.restartBase != b.restartBase;
        EXPECT_TRUE(differs) << "instances " << i << ", " << i + 1;
    }
}

TEST(PortfolioSolver, StatsAggregateAcrossInstances)
{
    PortfolioSolver solver(withInstances(3, 1));
    Rng rng(555);
    randomCnf(solver, 14, 60, rng);
    solver.solve();
    const PortfolioStats &stats = solver.portfolioStats();
    EXPECT_EQ(stats.solves, 1u);
    EXPECT_EQ(stats.satAnswers + stats.unsatAnswers +
                  stats.unknownAnswers,
              1u);
    // The aggregate sums every instance's counters, the winner's
    // included, however early the race stopped the others.
    EXPECT_GE(stats.aggregate.propagations,
              stats.winner.propagations);
}

TEST(ClauseExchange, RoutesClausesBetweenInstances)
{
    ClauseExchange exchange(3, 2, 8);
    const std::vector<Lit> clause = {mkLit(0), ~mkLit(1)};
    exchange.publish(0, clause, 2);
    std::vector<ClauseExchange::SharedClause> collected;
    exchange.collect(0, collected);
    EXPECT_TRUE(collected.empty()); // own clauses are not echoed
    exchange.collect(1, collected);
    ASSERT_EQ(collected.size(), 1u);
    EXPECT_EQ(collected[0].lits, clause);
    EXPECT_EQ(collected[0].lbd, 2u); // the publisher's LBD rides along
    // A second collect from the same cursor yields nothing new.
    collected.clear();
    exchange.collect(1, collected);
    EXPECT_TRUE(collected.empty());
    EXPECT_EQ(exchange.published(), 1u);
}

TEST(PortfolioSolver, SharingRacingSolvesPigeonhole)
{
    // PHP(6,5) forces real conflict work on every instance; with
    // sharing enabled the race must still return correct UNSAT.
    PortfolioSolver solver(withInstances(3, 3));
    addPigeonhole(solver, 6, 5);
    EXPECT_EQ(solver.solve(), SolveStatus::Unsat);
}

TEST(PortfolioSolver, ContradictoryUnitsReportConflictAtAddTime)
{
    // Mirrors SatSolver.ContradictoryUnitsAreUnsat and the
    // Cnf::loadInto contract: the second unit reports the conflict.
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    EXPECT_TRUE(solver.addClause({mkLit(a)}));
    EXPECT_FALSE(solver.addClause({~mkLit(a)}));
    EXPECT_TRUE(solver.inconsistent());
    EXPECT_EQ(solver.solve(), SolveStatus::Unsat);
}

TEST(PortfolioSolver, VariablesCreatedAfterFirstSolveAreUsable)
{
    // The SolverBase contract: variables and clauses may be added
    // between solve() calls.
    PortfolioSolver solver(withInstances(2, 1));
    const Var a = solver.newVar();
    solver.addClause({mkLit(a)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    const Var b = solver.newVar();
    solver.addClause({~mkLit(a), mkLit(b)});
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(b), LBool::True);
}

TEST(PortfolioSolver, CallerStopFlagCancelsAllInstances)
{
    // A pre-set caller stop flag must be relayed to every racing
    // instance: the hard pigeonhole below would otherwise burn
    // CPU for a long time before answering.
    PortfolioSolver solver(withInstances(2, 1));
    addPigeonhole(solver, 10, 9);
    std::atomic<bool> stop{true};
    Budget budget;
    budget.stopFlag = &stop;
    EXPECT_EQ(solver.solve({}, budget), SolveStatus::Unknown);
}

TEST(PortfolioSolver, CallerStopFlagCancelsDeterministicMode)
{
    // Deterministic mode is one instance, solved inline whatever
    // the thread count — so cancellation must reach it through its
    // own budget, not through the racing watcher (which a single
    // instance does not start).
    PortfolioSolver solver(withInstances(1, 2));
    addPigeonhole(solver, 10, 9);
    std::atomic<bool> stop{true};
    Budget budget;
    budget.stopFlag = &stop;
    EXPECT_EQ(solver.solve({}, budget), SolveStatus::Unknown);
}

TEST(PortfolioSolver, CallerStopFlagRaisedMidSolveCancelsRace)
{
    // The flag goes up while both racing instances are deep in a
    // pigeonhole proof that would take minutes: the watcher must
    // relay it into the race. The bound is generous for sanitizer
    // builds; the relay itself takes at most one 5 ms poll.
    PortfolioSolver solver(withInstances(2, 2));
    addPigeonhole(solver, 10, 9);
    std::atomic<bool> stop{false};
    Budget budget;
    budget.stopFlag = &stop;
    std::thread canceller([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        stop.store(true);
    });
    const auto start = std::chrono::steady_clock::now();
    const SolveStatus status = solver.solve({}, budget);
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               start)
                               .count();
    canceller.join();
    EXPECT_EQ(status, SolveStatus::Unknown);
    EXPECT_LT(seconds, 30.0);
}

TEST(PortfolioSolver, RacingSolveWithStopFlagReturnsPromptly)
{
    // Every facade request carries a never-fired stop flag, so the
    // watcher that relays it must not hold a finished race back
    // for the rest of its 5 ms poll. A trivial formula races in
    // microseconds; a watcher that sleeps out its slice makes every
    // solve last at least 5 ms. The fastest of many solves is the
    // statistic, because a loaded sanitizer runner can delay any
    // single thread start and join by a scheduler tick.
    PortfolioSolver solver(withInstances(2, 2));
    const Var a = solver.newVar();
    solver.addClause({mkLit(a)});
    std::atomic<bool> stop{false};
    Budget budget;
    budget.stopFlag = &stop;
    // The first solve builds the instances and starts the pool,
    // whose fresh workers can finish the race before the watcher
    // even starts; only later solves show the watcher's latency.
    ASSERT_EQ(solver.solve({}, budget), SolveStatus::Sat);
    double fastest_ms = 1e9;
    for (int round = 0; round < 40; ++round) {
        const auto start = std::chrono::steady_clock::now();
        ASSERT_EQ(solver.solve({}, budget), SolveStatus::Sat);
        fastest_ms = std::min(
            fastest_ms, std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    }
    EXPECT_LT(fastest_ms, 2.5);
}

TEST(PortfolioSolver, CnfLoadsThroughSolverBase)
{
    const Cnf cnf = parseDimacs("p cnf 3 3\n"
                                "1 0\n"
                                "-1 2 0\n"
                                "-2 3 0\n");
    PortfolioSolver solver(withInstances(2, 1));
    ASSERT_TRUE(cnf.loadInto(solver));
    ASSERT_EQ(solver.solve(), SolveStatus::Sat);
    EXPECT_EQ(solver.modelValue(Var{2}), LBool::True);
}

} // namespace
} // namespace fermihedral::sat
