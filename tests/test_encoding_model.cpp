/**
 * @file
 * Tests for the SAT encoding model (Section 3 constraints).
 */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/encoding_model.h"
#include "sat/solver.h"
#include "encodings/linear.h"

namespace fermihedral::core {
namespace {

EncodingModelOptions
baseOptions(std::size_t modes, std::size_t cap)
{
    EncodingModelOptions options;
    options.modes = modes;
    options.costCap = cap;
    return options;
}

TEST(EncodingModel, DecodedSolutionSatisfiesConstraints)
{
    for (std::size_t modes : {1u, 2u, 3u}) {
        sat::Solver solver;
        EncodingModel model(solver,
                            baseOptions(modes, 4 * modes * modes));
        ASSERT_EQ(solver.solve(), sat::SolveStatus::Sat)
            << "modes=" << modes;
        const auto encoding = model.decode();
        const auto v = enc::validateEncoding(encoding);
        EXPECT_TRUE(v.anticommutativity) << v.detail;
        EXPECT_TRUE(v.algebraicIndependence) << v.detail;
        EXPECT_TRUE(v.xyPairing) << v.detail;
    }
}

TEST(EncodingModel, ModelsWithoutIndependenceFamilyAreIndependent)
{
    // Anticommutation alone forces independence (see the Validator
    // tests in test_encodings.cpp): distinct models of the model
    // without the family must still decode to valid encodings.
    for (std::size_t modes = 1; modes <= 7; ++modes) {
        sat::Solver solver;
        // No bound is asserted, so the narrowest counter will do.
        auto options = baseOptions(modes, 1);
        options.algebraicIndependence = false;
        EncodingModel model(solver, options);
        std::size_t drawn = 0;
        while (drawn < 10 &&
               solver.solve() == sat::SolveStatus::Sat) {
            const auto v = enc::validateEncoding(model.decode());
            EXPECT_TRUE(v.anticommutativity)
                << "modes=" << modes << ": " << v.detail;
            EXPECT_TRUE(v.algebraicIndependence)
                << "modes=" << modes << ": " << v.detail;
            model.blockCurrentSolution();
            ++drawn;
        }
        // One mode has a single vacuum-pairing model (X, Y).
        EXPECT_EQ(drawn, modes == 1 ? 1u : 10u) << "modes=" << modes;
    }
}

TEST(EncodingModel, MoreThanThirtyTwoModesIsAUserError)
{
    // A Hamiltonian subset is a 64-bit mask over the 2N strings:
    // 33 modes is a request the model cannot express, reported as
    // a fatal diagnostic rather than a library bug.
    sat::Solver solver;
    auto options = baseOptions(33, 1);
    options.algebraicIndependence = false;
    EXPECT_THROW(EncodingModel(solver, options), FatalError);
}

TEST(EncodingModel, BoundForbidsHeavySolutions)
{
    // One mode: two 1-qubit strings; minimum total weight is 2
    // (e.g. X and Y). Bounding at 1 must be UNSAT.
    sat::Solver solver;
    EncodingModel model(solver, baseOptions(1, 2));
    model.boundCostAtMost(2);
    ASSERT_EQ(solver.solve(), sat::SolveStatus::Sat);
    model.boundCostAtMost(1);
    EXPECT_EQ(solver.solve(), sat::SolveStatus::Unsat);
}

TEST(EncodingModel, SingleModeOptimumIsXyPair)
{
    sat::Solver solver;
    EncodingModel model(solver, baseOptions(1, 2));
    model.boundCostAtMost(2);
    ASSERT_EQ(solver.solve(), sat::SolveStatus::Sat);
    const auto encoding = model.decode();
    EXPECT_EQ(encoding.totalWeight(), 2u);
    // Vacuum pairing requires the even string X and odd string Y on
    // the shared qubit.
    EXPECT_EQ(encoding.majoranas[0].label(), "X");
    EXPECT_EQ(encoding.majoranas[1].label(), "Y");
}

TEST(EncodingModel, WarmStartedSolverReproducesBaseline)
{
    const std::size_t modes = 3;
    const auto bk = enc::bravyiKitaev(modes);
    sat::Solver solver;
    EncodingModel model(solver, baseOptions(modes, bk.totalWeight()));
    model.warmStart(bk);
    model.boundCostAtMost(bk.totalWeight());
    ASSERT_EQ(solver.solve(), sat::SolveStatus::Sat);
    // Not necessarily equal to BK, but certainly no heavier.
    EXPECT_LE(model.decode().totalWeight(), bk.totalWeight());
}

TEST(EncodingModel, CostOfMatchesTotalWeight)
{
    sat::Solver solver;
    EncodingModel model(solver, baseOptions(2, 16));
    const auto jw = enc::jordanWigner(2);
    EXPECT_EQ(model.costOf(jw), jw.totalWeight());
}

TEST(EncodingModel, HamiltonianCostCountsSubsets)
{
    // Cost structure: single subset {g0, g1} with multiplicity 2.
    EncodingModelOptions options = baseOptions(2, 16);
    options.hamiltonianStructure = {
        fermion::WeightedSubset{0b11, 2}};
    sat::Solver solver;
    EncodingModel model(solver, options);
    const auto jw = enc::jordanWigner(2);
    // JW: g0 g1 = IX * IY = iIZ, weight 1; multiplicity 2 -> 2.
    EXPECT_EQ(model.costOf(jw), 2u);
}

TEST(EncodingModel, HamiltonianCostBoundIsEnforced)
{
    // For 1 mode the only Hamiltonian subset is {g0, g1}; its
    // product is a non-identity 1-qubit operator, so the cost is
    // exactly 1 and bounding at 0 must fail.
    EncodingModelOptions options = baseOptions(1, 4);
    options.hamiltonianStructure = {
        fermion::WeightedSubset{0b11, 1}};
    sat::Solver solver;
    EncodingModel model(solver, options);
    model.boundCostAtMost(1);
    ASSERT_EQ(solver.solve(), sat::SolveStatus::Sat);
    model.boundCostAtMost(0);
    EXPECT_EQ(solver.solve(), sat::SolveStatus::Unsat);
}

TEST(EncodingModel, BlockCurrentSolutionExcludesModel)
{
    // Without the vacuum pairing there are several anticommuting
    // 1-qubit pairs (XY, XZ, YZ, ...), so blocking one solution
    // must still leave another.
    auto options = baseOptions(1, 2);
    options.vacuumPreservation = false;
    sat::Solver solver;
    EncodingModel model(solver, options);
    ASSERT_EQ(solver.solve(), sat::SolveStatus::Sat);
    const auto first = model.decode();
    model.blockCurrentSolution();
    ASSERT_EQ(solver.solve(), sat::SolveStatus::Sat);
    const auto second = model.decode();
    EXPECT_FALSE(first.majoranas[0] == second.majoranas[0] &&
                 first.majoranas[1] == second.majoranas[1]);
}

TEST(EncodingModel, EnumerationTerminates)
{
    // 1 mode, weight <= 2, vacuum pairing on: solutions are pairs
    // (X at some qubit with Y at same qubit): exactly (X, Y)? Both
    // strings are width-1: valid anticommuting pairs with X/Y
    // pairing: only (X, Y). Blocking it must yield UNSAT.
    sat::Solver solver;
    EncodingModel model(solver, baseOptions(1, 2));
    model.boundCostAtMost(2);
    std::size_t count = 0;
    while (solver.solve() == sat::SolveStatus::Sat && count < 10) {
        ++count;
        model.blockCurrentSolution();
    }
    EXPECT_EQ(count, 1u);
}

} // namespace
} // namespace fermihedral::core
