/**
 * @file
 * Tests for enc::totalWeightLowerBound, the Pauli-weight lower bound
 * at which the total-weight descent stops with a proof.
 *
 * The checks climb from the arithmetic to the solver: the closed
 * form against a brute-force minimum, the inequality it rests on
 * against every maximal anticommuting set on a few qubits, the
 * bound against the SAT model's own refutations, against the
 * closed-form baselines and the paired ternary tree that meets it,
 * and finally the descents that stop there.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/descent_solver.h"
#include "core/encoding_model.h"
#include "encodings/encoding.h"
#include "encodings/linear.h"
#include "encodings/ternary_tree.h"
#include "pauli/pauli_string.h"
#include "sat/solver.h"

namespace fermihedral {
namespace {

std::uint64_t
powerOfThree(std::size_t exponent)
{
    std::uint64_t power = 1;
    for (std::size_t i = 0; i < exponent; ++i)
        power *= 3;
    return power;
}

/**
 * Least sum of `strings` integer weights in [0, max_weight] with
 * sum 3^(-w) <= 1, by exhaustive search over non-decreasing weight
 * sequences. The inequality is kept in integers: a string of weight
 * w uses 3^(max_weight - w) of a budget of 3^max_weight.
 */
std::size_t
bruteForceMinimum(std::size_t strings, std::size_t max_weight)
{
    const std::uint64_t budget = powerOfThree(max_weight);
    std::size_t best = std::numeric_limits<std::size_t>::max();
    const auto search = [&](auto &self, std::size_t placed,
                            std::size_t min_weight,
                            std::uint64_t used,
                            std::size_t total) -> void {
        if (placed == strings) {
            best = std::min(best, total);
            return;
        }
        for (std::size_t w = min_weight; w <= max_weight; ++w) {
            const std::uint64_t share =
                powerOfThree(max_weight - w);
            if (used + share <= budget)
                self(self, placed + 1, w, used + share, total + w);
        }
    };
    search(search, 0, 0, 0, 0);
    return best;
}

TEST(TotalWeightLowerBound, ClosedFormMatchesBruteForce)
{
    // A string on N qubits weighs at most N.
    for (std::size_t modes = 1; modes <= 8; ++modes) {
        EXPECT_EQ(enc::totalWeightLowerBound(modes),
                  bruteForceMinimum(2 * modes, modes))
            << "N=" << modes;
    }
}

TEST(TotalWeightLowerBound, KnownValues)
{
    const std::vector<std::size_t> expected = {0,  2,  6,  11, 16,
                                               22, 29, 36, 43};
    for (std::size_t modes = 0; modes < expected.size(); ++modes)
        EXPECT_EQ(enc::totalWeightLowerBound(modes),
                  expected[modes])
            << "N=" << modes;
    EXPECT_EQ(enc::totalWeightLowerBound(13), 78u);
}

/**
 * Every maximal clique of the anticommutation graph on the
 * non-identity strings of `qubits` qubits (Bron-Kerbosch with
 * pivoting; vertex v is the string with x mask v's low bits and
 * z mask its high bits).
 */
std::vector<std::vector<pauli::PauliString>>
maximalAnticommutingSets(std::size_t qubits)
{
    std::vector<pauli::PauliString> strings;
    const std::uint64_t low = (std::uint64_t{1} << qubits) - 1;
    for (std::uint64_t v = 1; v < (std::uint64_t{1} << (2 * qubits));
         ++v) {
        strings.push_back(pauli::PauliString::fromMasks(
            qubits, v & low, v >> qubits));
    }
    const std::size_t count = strings.size();
    std::vector<std::uint64_t> neighbours(count, 0);
    for (std::size_t i = 0; i < count; ++i)
        for (std::size_t j = 0; j < count; ++j)
            if (strings[i].anticommutesWith(strings[j]))
                neighbours[i] |= std::uint64_t{1} << j;

    std::vector<std::vector<pauli::PauliString>> cliques;
    const auto expand = [&](auto &self, std::uint64_t clique,
                            std::uint64_t candidates,
                            std::uint64_t excluded) -> void {
        if (candidates == 0 && excluded == 0) {
            std::vector<pauli::PauliString> set;
            for (std::uint64_t rest = clique; rest; rest &= rest - 1)
                set.push_back(strings[std::countr_zero(rest)]);
            cliques.push_back(set);
            return;
        }
        const int pivot = std::countr_zero(candidates | excluded);
        std::uint64_t branch = candidates & ~neighbours[pivot];
        while (branch) {
            const int v = std::countr_zero(branch);
            const std::uint64_t bit = std::uint64_t{1} << v;
            branch &= branch - 1;
            self(self, clique | bit, candidates & neighbours[v],
                 excluded & neighbours[v]);
            candidates &= ~bit;
            excluded |= bit;
        }
    };
    const std::uint64_t all =
        count == 64 ? ~std::uint64_t{0}
                    : (std::uint64_t{1} << count) - 1;
    expand(expand, 0, all, 0);
    return cliques;
}

TEST(TotalWeightLowerBound, AnticommutingSetsObeyTheInequality)
{
    // sum 3^(-|P|) <= 1 on every maximal pairwise-anticommuting set
    // (subsets only lower the sum), with equality reached: the
    // inequality the bound rests on is tight on every width.
    for (std::size_t qubits = 1; qubits <= 3; ++qubits) {
        const auto sets = maximalAnticommutingSets(qubits);
        ASSERT_FALSE(sets.empty());
        const std::uint64_t budget = powerOfThree(qubits);
        std::uint64_t largest = 0;
        std::size_t widest = 0;
        for (const auto &set : sets) {
            std::uint64_t used = 0;
            for (const auto &string : set)
                used += powerOfThree(qubits - string.weight());
            EXPECT_LE(used, budget) << qubits << " qubits";
            largest = std::max(largest, used);
            widest = std::max(widest, set.size());
        }
        EXPECT_EQ(largest, budget) << qubits << " qubits";
        EXPECT_EQ(widest, 2 * qubits + 1) << qubits << " qubits";
    }
}

TEST(TotalWeightLowerBound, SolverRefutesOneBelowAndMeetsTheBound)
{
    // The bound is what the SAT model itself proves: UNSAT one
    // below it and SAT at it, with and without the algebraic
    // independence clauses (vacuum pairing on).
    for (std::size_t modes = 2; modes <= 4; ++modes) {
        const std::size_t bound = enc::totalWeightLowerBound(modes);
        for (const bool independence : {true, false}) {
            core::EncodingModelOptions options;
            options.modes = modes;
            options.algebraicIndependence = independence;
            options.costCap = bound;
            sat::Solver solver;
            core::EncodingModel model(solver, options);

            model.boundCostAtMost(bound);
            ASSERT_EQ(solver.solve(), sat::SolveStatus::Sat)
                << "N=" << modes << " alg=" << independence;
            EXPECT_EQ(model.decode().totalWeight(), bound);

            model.boundCostAtMost(bound - 1);
            EXPECT_EQ(solver.solve(), sat::SolveStatus::Unsat)
                << "N=" << modes << " alg=" << independence;
        }
    }
}

TEST(TotalWeightLowerBound, BaselinesNeverBeatTheBound)
{
    for (std::size_t modes = 1; modes <= 20; ++modes) {
        const std::size_t bound = enc::totalWeightLowerBound(modes);
        EXPECT_GE(enc::jordanWigner(modes).totalWeight(), bound);
        EXPECT_GE(enc::bravyiKitaev(modes).totalWeight(), bound);
        EXPECT_GE(enc::parity(modes).totalWeight(), bound);
        const std::size_t tree = enc::ternaryTree(modes).totalWeight();
        EXPECT_GE(tree, bound) << "N=" << modes;
        EXPECT_LE(tree, bound + 1) << "N=" << modes;
    }
    // A complete ternary tree (2N + 1 = 3^k leaves) meets it.
    for (const std::size_t modes : {1u, 4u, 13u}) {
        EXPECT_EQ(enc::ternaryTree(modes).totalWeight(),
                  enc::totalWeightLowerBound(modes))
            << "N=" << modes;
    }
}

TEST(TotalWeightLowerBound, PairedTernaryTreeMeetsTheBound)
{
    // The bound is tight at every N, vacuum pairing included.
    for (std::size_t modes = 1; modes <= pauli::PauliString::maxQubits;
         ++modes) {
        const auto tree = enc::pairedTernaryTree(modes);
        const auto v = enc::validateEncoding(tree);
        EXPECT_TRUE(v.valid()) << "N=" << modes << ": " << v.detail;
        EXPECT_TRUE(v.xyPairing) << "N=" << modes << ": " << v.detail;
        EXPECT_TRUE(v.vacuumPreserving)
            << "N=" << modes << ": " << v.detail;
        EXPECT_EQ(tree.totalWeight(), enc::totalWeightLowerBound(modes))
            << "N=" << modes;
    }
}

TEST(TotalWeightLowerBound, PairedTreeStartIsProvedWithoutAModel)
{
    // By default a total-weight descent starts at the paired tree,
    // which already sits at the bound: proved, with no SAT call and
    // no clause, whether or not vacuum pairing is required. The
    // default also asks for the independence family, which is
    // fatal past 8 modes had a model been built.
    for (std::size_t modes = 1; modes <= 32; ++modes) {
        for (const bool vacuum : {true, false}) {
            core::DescentOptions options;
            options.vacuumPreservation = vacuum;
            const auto result = core::DescentSolver(modes, options).solve();
            EXPECT_TRUE(result.provedOptimal)
                << "N=" << modes << " vacuum=" << vacuum;
            EXPECT_EQ(result.termination,
                      core::DescentTermination::Completed);
            EXPECT_EQ(result.satCalls, 0u)
                << "N=" << modes << " vacuum=" << vacuum;
            EXPECT_EQ(result.numClauses, 0u)
                << "N=" << modes << " vacuum=" << vacuum;
            EXPECT_EQ(result.cost, enc::totalWeightLowerBound(modes))
                << "N=" << modes << " vacuum=" << vacuum;
            EXPECT_EQ(result.encoding.totalWeight(), result.cost);
        }
    }
}

TEST(TotalWeightLowerBound, DescentProvesAtTheBoundWithoutUnsat)
{
    // Full SAT from Bravyi-Kitaev at N = 5 and 6 reaches the bound
    // on improving steps alone; refuting one below it would take
    // far longer than the whole descent (about 45 s at N = 5).
    for (const std::size_t modes : {5u, 6u}) {
        std::vector<core::DescentProgress> reports;
        core::DescentOptions options;
        options.pairedTreeStart = false;
        options.stepTimeoutSeconds = 10.0;
        options.totalTimeoutSeconds = 60.0;
        options.progress = [&](const core::DescentProgress &p) {
            reports.push_back(p);
        };
        const auto result = core::DescentSolver(modes, options).solve();
        EXPECT_EQ(result.cost, enc::totalWeightLowerBound(modes));
        EXPECT_EQ(result.cost, modes == 5 ? 22u : 29u);
        EXPECT_TRUE(result.provedOptimal) << "N=" << modes;
        EXPECT_EQ(result.termination,
                  core::DescentTermination::Completed);
        EXPECT_TRUE(enc::validateEncoding(result.encoding).valid());
        ASSERT_FALSE(reports.empty());
        for (const auto &report : reports)
            EXPECT_EQ(report.status, sat::SolveStatus::Sat)
                << "N=" << modes << " bound " << report.bound;
    }
}

} // namespace
} // namespace fermihedral
