/**
 * @file
 * Dedicated exercise of the solver invariant self-checks.
 *
 * Every Solver in this binary runs with SolverConfig::selfCheck on
 * (the same checks FERMIHEDRAL_SOLVER_CHECK compiles in
 * unconditionally — the CI fuzz-smoke job builds with the macro so
 * the compile-time path is covered there), driving checkInvariants()
 * through the interesting lifecycle boundaries: plain solves,
 * assumption solves, conflict-heavy UNSAT proofs, learnt-database
 * reduction, carry-over resets and arena garbage collection. The
 * VarHeap's own consistency probe (brokenSlot) is unit-tested
 * directly.
 */

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "common/rng.h"
#include "sat/solver.h"
#include "sat/totalizer.h"
#include "sat/types.h"
#include "sat/var_heap.h"

namespace sat = fermihedral::sat;
using fermihedral::Rng;
using sat::mkLit;

namespace {

sat::SolverConfig
checkedConfig()
{
    sat::SolverConfig config;
    config.selfCheck = true;
    return config;
}

/** Random 3-SAT clauses over a checked solver's fresh variables. */
std::vector<sat::Var>
addRandom3Sat(sat::Solver &solver, Rng &rng, std::size_t num_vars,
              std::size_t num_clauses)
{
    std::vector<sat::Var> vars;
    for (std::size_t v = 0; v < num_vars; ++v)
        vars.push_back(solver.newVar());
    for (std::size_t c = 0; c < num_clauses; ++c) {
        std::vector<sat::Lit> clause;
        while (clause.size() < 3) {
            const sat::Var var =
                vars[rng.nextBelow(vars.size())];
            bool fresh = true;
            for (const sat::Lit lit : clause)
                fresh &= litVar(lit) != var;
            if (fresh)
                clause.push_back(mkLit(var, rng.nextBool()));
        }
        solver.addClause(clause);
    }
    return vars;
}

/**
 * Pigeonhole principle PHP(holes+1, holes): UNSAT, conflict-rich.
 * `guard` is appended to every "somewhere" clause: with guard {~s}
 * the instance is UNSAT only under the assumption s.
 */
void
addPigeonhole(sat::Solver &solver, std::size_t holes,
              std::span<const sat::Lit> guard = {})
{
    const std::size_t pigeons = holes + 1;
    std::vector<std::vector<sat::Var>> in(pigeons);
    for (std::size_t p = 0; p < pigeons; ++p)
        for (std::size_t h = 0; h < holes; ++h)
            in[p].push_back(solver.newVar());
    for (std::size_t p = 0; p < pigeons; ++p) {
        std::vector<sat::Lit> somewhere;
        for (std::size_t h = 0; h < holes; ++h)
            somewhere.push_back(mkLit(in[p][h]));
        somewhere.insert(somewhere.end(), guard.begin(), guard.end());
        solver.addClause(somewhere);
    }
    for (std::size_t h = 0; h < holes; ++h)
        for (std::size_t p = 0; p < pigeons; ++p)
            for (std::size_t q = p + 1; q < pigeons; ++q)
                solver.addClause({mkLit(in[p][h], true),
                                  mkLit(in[q][h], true)});
}

} // namespace

TEST(VarHeap, PopsInActivityOrder)
{
    sat::VarHeap heap;
    for (int i = 0; i < 16; ++i)
        heap.grow();
    heap.boost(3, 5.0);
    heap.boost(11, 9.0);
    heap.boost(7, 7.0);
    ASSERT_EQ(heap.brokenSlot(), -1);

    EXPECT_EQ(heap.pop(), 11);
    EXPECT_EQ(heap.pop(), 7);
    EXPECT_EQ(heap.pop(), 3);
    ASSERT_EQ(heap.brokenSlot(), -1);
    EXPECT_FALSE(heap.contains(11));

    // Re-insertion (the backtracking path) restores membership and
    // keeps the order consistent.
    heap.insert(11);
    EXPECT_TRUE(heap.contains(11));
    ASSERT_EQ(heap.brokenSlot(), -1);
    EXPECT_EQ(heap.pop(), 11);
}

TEST(VarHeap, BumpAndDecayKeepConsistency)
{
    sat::VarHeap heap(0.8);
    for (int i = 0; i < 64; ++i)
        heap.grow();
    Rng rng(42);
    for (int round = 0; round < 2000; ++round) {
        const auto var =
            static_cast<sat::Var>(rng.nextBelow(64));
        heap.bump(var);
        if (round % 3 == 0)
            heap.decay();
        if (round % 7 == 0 && !heap.empty()) {
            const sat::Var popped = heap.pop();
            heap.insert(popped);
        }
        ASSERT_EQ(heap.brokenSlot(), -1) << "round " << round;
    }
    // Pop everything: activities must come out non-increasing.
    double last = 1e300;
    while (!heap.empty()) {
        const sat::Var var = heap.pop();
        EXPECT_LE(heap.activity(var), last);
        last = heap.activity(var);
    }
}

TEST(VarHeap, LazyRescalePreservesOrder)
{
    sat::VarHeap heap(0.5); // aggressive decay -> fast growth
    for (int i = 0; i < 8; ++i)
        heap.grow();
    // Drive the increment past the 1e100 rescale threshold; 0.5
    // decay doubles it per round, so ~400 rounds overflow safely.
    for (int round = 0; round < 400; ++round) {
        heap.bump(static_cast<sat::Var>(round % 3));
        heap.decay();
        ASSERT_EQ(heap.brokenSlot(), -1);
    }
    // Rescaling must have kept every score finite and the most
    // recently favoured variables on top.
    for (int v = 0; v < 8; ++v)
        EXPECT_LT(heap.activity(v), 1e101);
    const sat::Var top = heap.pop();
    EXPECT_LT(top, 3);
    ASSERT_EQ(heap.brokenSlot(), -1);
}

TEST(SolverCheck, LifecycleBoundaries)
{
    sat::Solver solver(checkedConfig());
    Rng rng(7);
    const auto vars = addRandom3Sat(solver, rng, 30, 110);
    solver.checkInvariants();

    EXPECT_NE(solver.solve(), sat::SolveStatus::Unknown);
    solver.checkInvariants();

    solver.clearLearnts();
    solver.checkInvariants();

    // Incremental growth plus assumption solves.
    addRandom3Sat(solver, rng, 10, 30);
    const std::vector<sat::Lit> assumptions = {
        mkLit(vars[0]), mkLit(vars[5], true)};
    EXPECT_NE(solver.solve(assumptions),
              sat::SolveStatus::Unknown);
    solver.checkInvariants();
}

TEST(SolverCheck, ConflictHeavyUnsatProof)
{
    // PHP(7,6) needs thousands of conflicts: analyze, backtracking,
    // restarts and learnt-DB reduction all run under the checks.
    sat::Solver solver(checkedConfig());
    addPigeonhole(solver, 6);
    EXPECT_EQ(solver.solve(), sat::SolveStatus::Unsat);
    EXPECT_GT(solver.stats().conflicts, 100u);
    solver.checkInvariants();
}

TEST(SolverCheck, GeometricRestartsAndRandomBranching)
{
    sat::SolverConfig config = checkedConfig();
    config.restartSchedule =
        sat::SolverConfig::Restarts::Geometric;
    config.randomBranchFreq = 0.1;
    config.randomizePhases = true;
    config.seed = 99;
    sat::Solver solver(config);
    addPigeonhole(solver, 5);
    EXPECT_EQ(solver.solve(), sat::SolveStatus::Unsat);
    solver.checkInvariants();
}

TEST(SolverCheck, GarbageCollectionReclaimsClearedLearnts)
{
    sat::Solver solver(checkedConfig());
    const sat::Var selector = solver.newVar();
    const sat::Lit on = mkLit(selector);
    const sat::Lit guard[] = {~on};
    addPigeonhole(solver, 6, guard);
    // Refuting PHP(7,6) under the selector learns far more clauses
    // than the instance holds: dropping them all crosses the
    // quarter-of-arena waste threshold and forces a collection.
    const sat::Lit assume[] = {on};
    EXPECT_EQ(solver.solve(assume), sat::SolveStatus::Unsat);
    solver.checkInvariants();

    const std::uint64_t collects = solver.stats().garbageCollects;
    const std::size_t before = solver.arenaWords();
    solver.clearLearnts();
    solver.checkInvariants();

    EXPECT_GT(solver.stats().garbageCollects, collects);
    EXPECT_GT(solver.stats().reclaimedWords, 0u);
    EXPECT_LT(solver.arenaWords(), before);

    EXPECT_EQ(solver.solve(assume), sat::SolveStatus::Unsat);
    solver.checkInvariants();
    EXPECT_EQ(solver.solve(), sat::SolveStatus::Sat);
    solver.checkInvariants();
}

TEST(SolverCheck, TotalizerDescentUnderChecks)
{
    // Mimic the descent loop: build a totalizer, then tighten the
    // bound one step at a time, all with invariant checks armed.
    sat::Solver solver(checkedConfig());
    std::vector<sat::Lit> inputs;
    for (int i = 0; i < 10; ++i)
        inputs.push_back(mkLit(solver.newVar()));
    sat::Totalizer totalizer(solver, inputs, 10);
    // Forcing three inputs true bounds the reachable minimum.
    solver.addClause({inputs[1]});
    solver.addClause({inputs[4]});
    solver.addClause({inputs[7]});

    std::size_t bound = totalizer.width() - 1;
    std::size_t sat_steps = 0;
    while (true) {
        totalizer.boundAtMost(bound);
        const sat::SolveStatus status = solver.solve();
        solver.checkInvariants();
        if (status != sat::SolveStatus::Sat)
            break;
        ++sat_steps;
        std::size_t count = 0;
        for (const sat::Lit lit : inputs)
            count += solver.modelValue(lit) == sat::LBool::True;
        EXPECT_LE(count, bound);
        if (bound == 0 || count == 0)
            break;
        bound = count - 1;
    }
    EXPECT_GE(sat_steps, 1u);
    // Three inputs are forced true, so the descent bottoms out
    // exactly there: at-most-2 must be refuted.
    EXPECT_TRUE(solver.inconsistent() ||
                solver.solve() == sat::SolveStatus::Unsat);
}
