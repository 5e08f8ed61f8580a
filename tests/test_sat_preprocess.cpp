/**
 * @file
 * Unit and property tests for the clause-database simplifier.
 *
 * The property suite runs random 3-SAT instances through unit
 * propagation / subsumption / self-subsuming resolution and checks
 * (a) the SAT/UNSAT verdict agrees with the unsimplified solver and
 * (b) a model of the simplified formula, as the solver returns it,
 * satisfies every original clause: the simplifier eliminates no
 * variable, so no model needs extending.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "sat/preprocess.h"
#include "sat/solver.h"

namespace fermihedral::sat {
namespace {

bool
modelSatisfies(const std::vector<std::vector<Lit>> &clauses,
               const std::vector<LBool> &model)
{
    for (const auto &clause : clauses) {
        bool satisfied = false;
        for (const Lit lit : clause) {
            const LBool v = model[litVar(lit)];
            if ((litSign(lit) ? -v : v) == LBool::True) {
                satisfied = true;
                break;
            }
        }
        if (!satisfied)
            return false;
    }
    return true;
}

TEST(Simplifier, SubsumedClauseIsRemoved)
{
    Simplifier simp(3);
    const Lit a = mkLit(0), b = mkLit(1), c = mkLit(2);
    simp.addClause({a, b});
    simp.addClause({a, b, c}); // subsumed by {a, b}
    simp.run();
    EXPECT_EQ(simp.stats().subsumedClauses, 1u);
    EXPECT_EQ(simp.simplifiedClauses().size(), 1u);
}

TEST(Simplifier, SelfSubsumingResolutionStrengthens)
{
    // {a, b} and {~a, b, c}: resolving on a gives {b, c} which
    // subsumes {~a, b, c}, i.e. ~a is removed from it.
    Simplifier simp(3);
    const Lit a = mkLit(0), b = mkLit(1), c = mkLit(2);
    simp.addClause({a, b});
    simp.addClause({~a, b, c});
    simp.run();
    EXPECT_EQ(simp.stats().strengthenedLiterals, 1u);
    const auto clauses = simp.simplifiedClauses();
    ASSERT_EQ(clauses.size(), 2u);
    for (const auto &clause : clauses)
        EXPECT_LE(clause.size(), 2u);
}

TEST(Simplifier, ComplementaryPairCollapsesToUnit)
{
    // {a, b} and {a, ~b}: self-subsuming resolution leaves the
    // unit {a}, fixing a at the top level (not eliminating it).
    Simplifier simp(2);
    const Lit a = mkLit(0), b = mkLit(1);
    simp.addClause({a, b});
    simp.addClause({a, ~b});
    simp.run();
    const auto clauses = simp.simplifiedClauses();
    ASSERT_EQ(clauses.size(), 1u);
    ASSERT_EQ(clauses[0].size(), 1u);
    EXPECT_EQ(clauses[0][0], a);
}

TEST(Simplifier, TopLevelUnitsFixAndReemit)
{
    Simplifier simp(3);
    const Lit a = mkLit(0), b = mkLit(1), c = mkLit(2);
    simp.addClause({a});
    simp.addClause({~a, b});
    simp.addClause({~b, c});
    simp.run();
    EXPECT_FALSE(simp.inconsistent());
    EXPECT_EQ(simp.stats().fixedVariables, 3u);
    // The whole chain propagates: three units survive.
    const auto clauses = simp.simplifiedClauses();
    ASSERT_EQ(clauses.size(), 3u);
    for (const auto &clause : clauses)
        EXPECT_EQ(clause.size(), 1u);
}

TEST(Simplifier, ContradictionIsDetected)
{
    Simplifier simp(2);
    const Lit a = mkLit(0), b = mkLit(1);
    simp.addClause({a});
    simp.addClause({~a, b});
    simp.addClause({~a, ~b});
    simp.run();
    EXPECT_TRUE(simp.inconsistent());
}

/** Random 3-SAT instances at mixed clause/variable ratios. */
struct PreprocessParam
{
    int numVars;
    int ratioTimes10;
};

class SimplifierProperty
    : public ::testing::TestWithParam<PreprocessParam>
{
};

TEST_P(SimplifierProperty, EquivalentToUnsimplifiedSolve)
{
    const auto param = GetParam();
    Rng rng(4200 + param.numVars * 100 + param.ratioTimes10);
    const int num_clauses =
        param.numVars * param.ratioTimes10 / 10;

    for (int instance = 0; instance < 25; ++instance) {
        std::vector<std::vector<Lit>> cnf;
        for (int c = 0; c < num_clauses; ++c) {
            std::vector<Lit> clause;
            for (int k = 0; k < 3; ++k) {
                const Var var = static_cast<Var>(
                    rng.nextBelow(param.numVars));
                clause.push_back(mkLit(var, rng.nextBool()));
            }
            cnf.push_back(clause);
        }

        // Reference verdict from the unsimplified solver.
        Solver reference;
        for (int v = 0; v < param.numVars; ++v)
            reference.newVar();
        for (const auto &clause : cnf)
            reference.addClause(clause);
        const SolveStatus expected = reference.solve();

        // Simplify, then solve the simplified formula.
        Simplifier simp(param.numVars);
        for (const auto &clause : cnf)
            simp.addClause(clause);
        simp.run();

        if (simp.inconsistent()) {
            EXPECT_EQ(expected, SolveStatus::Unsat)
                << "instance " << instance;
            continue;
        }
        Solver solver;
        for (int v = 0; v < param.numVars; ++v)
            solver.newVar();
        bool consistent = true;
        for (const auto &clause : simp.simplifiedClauses())
            consistent = solver.addClause(clause) && consistent;
        const SolveStatus simplified =
            consistent ? solver.solve() : SolveStatus::Unsat;
        EXPECT_EQ(simplified, expected)
            << "instance " << instance;

        if (simplified == SolveStatus::Sat) {
            std::vector<LBool> model(param.numVars);
            for (int v = 0; v < param.numVars; ++v)
                model[v] = solver.modelValue(v);
            EXPECT_TRUE(modelSatisfies(cnf, model))
                << "instance " << instance
                << ": the simplified formula's model violates the "
                   "original formula";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, SimplifierProperty,
    ::testing::Values(PreprocessParam{8, 30},
                      PreprocessParam{8, 43},
                      PreprocessParam{12, 40},
                      PreprocessParam{12, 45},
                      PreprocessParam{16, 43},
                      PreprocessParam{16, 50},
                      PreprocessParam{20, 42}));

} // namespace
} // namespace fermihedral::sat
