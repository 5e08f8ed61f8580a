/**
 * @file
 * Tests for Algorithm 1 (the descent solver).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/descent_solver.h"
#include "encodings/linear.h"
#include "fermion/models.h"

namespace fermihedral::core {
namespace {

DescentOptions
fastOptions()
{
    DescentOptions options;
    options.stepTimeoutSeconds = 10.0;
    options.totalTimeoutSeconds = 30.0;
    return options;
}

/**
 * Algorithm 1 from Bravyi-Kitaev, for the tests of its SAT steps:
 * the default paired-tree start proves every total-weight descent
 * before the first step.
 */
DescentOptions
fromBravyiKitaev()
{
    DescentOptions options = fastOptions();
    options.pairedTreeStart = false;
    return options;
}

/**
 * Spinless t-V model on three sites, an open chain or a ring:
 * hopping plus nearest-neighbour density interaction. Under the
 * Eq. 14 objective, where the descent has no lower bound to stop
 * at, either takes one improving step and then proves optimality
 * with an UNSAT step, within seconds. The ring's UNSAT step is the
 * harder one, where carried-over learnt clauses save the most
 * conflicts.
 */
fermion::FermionHamiltonian
tvModel(bool ring)
{
    fermion::FermionHamiltonian h(3);
    for (std::uint32_t i = 0; i < (ring ? 3u : 2u); ++i) {
        const std::uint32_t j = (i + 1) % 3;
        h.addFermionTerm(-1.0, {fermion::create(i),
                                fermion::annihilate(j)});
        h.addFermionTerm(-1.0, {fermion::create(j),
                                fermion::annihilate(i)});
        h.addFermionTerm(2.0, {fermion::create(i),
                               fermion::annihilate(i),
                               fermion::create(j),
                               fermion::annihilate(j)});
    }
    return h;
}

TEST(DescentSolver, SingleModeOptimal)
{
    DescentSolver solver(1, fastOptions());
    const auto result = solver.solve();
    EXPECT_EQ(result.cost, 2u);
    EXPECT_TRUE(result.provedOptimal);
    const auto v = enc::validateEncoding(result.encoding);
    EXPECT_TRUE(v.valid()) << v.detail;
}

TEST(DescentSolver, TwoModesBeatsOrMatchesBravyiKitaev)
{
    DescentSolver solver(2, fastOptions());
    const auto result = solver.solve();
    EXPECT_LE(result.cost, result.baselineCost);
    EXPECT_TRUE(result.provedOptimal);
    const auto v = enc::validateEncoding(result.encoding);
    EXPECT_TRUE(v.valid()) << v.detail;
    EXPECT_TRUE(v.xyPairing) << v.detail;
    // Figure 6: optimal total weight at N=2 is below BK's 7.
    EXPECT_LE(result.cost, 6u);
}

TEST(DescentSolver, ThreeModesProducesValidOptimal)
{
    DescentSolver solver(3, fastOptions());
    const auto result = solver.solve();
    EXPECT_LE(result.cost, result.baselineCost);
    const auto v = enc::validateEncoding(result.encoding);
    EXPECT_TRUE(v.valid()) << v.detail;
    // Bravyi-Kitaev already sits at the lower bound (11), so the
    // proof needs no SAT step.
    EXPECT_TRUE(result.provedOptimal);
    EXPECT_EQ(result.cost, enc::totalWeightLowerBound(3));
    EXPECT_EQ(result.satCalls, 0u);
}

TEST(DescentSolver, WithoutAlgebraicIndependenceMatches)
{
    // Section 4.1: dropping the constraint rarely changes the
    // optimum; at N = 2 the optimal weight must agree.
    DescentOptions with = fromBravyiKitaev();
    DescentOptions without = fromBravyiKitaev();
    without.algebraicIndependence = false;

    const auto full = DescentSolver(2, with).solve();
    const auto reduced = DescentSolver(2, without).solve();
    EXPECT_EQ(full.cost, reduced.cost);
    // The reduced instance must be smaller.
    EXPECT_LT(reduced.numVars, full.numVars);
    EXPECT_LT(reduced.numClauses, full.numClauses);
}

TEST(DescentSolver, IndependenceFamilyBeyondEightModesIsFatal)
{
    // The family has 4^N clauses, about 1.6 GB of model at 9
    // modes: the paper's Full SAT configuration refuses it before
    // building it, and names the limit.
    DescentOptions options = fromBravyiKitaev();
    options.algebraicIndependence = true;
    DescentSolver solver(9, options);
    try {
        solver.solve();
        ADD_FAILURE() << "9 modes with the family did not fail";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what()).find("limited to 8 modes"),
                  std::string::npos)
            << error.what();
    }
}

TEST(DescentSolver, HamiltonianDependentTwoSiteHubbard)
{
    const auto h = fermion::fermiHubbard1D(2, 1.0, 4.0);
    DescentOptions options = fastOptions();
    options.totalTimeoutSeconds = 60.0;
    DescentSolver solver(h, options);
    const auto result = solver.solve();
    EXPECT_LE(result.cost, result.baselineCost);
    const auto v = enc::validateEncoding(result.encoding);
    EXPECT_TRUE(v.valid()) << v.detail;
    // The reported cost must equal the independent recomputation.
    EXPECT_EQ(result.cost,
              enc::hamiltonianPauliWeight(h, result.encoding));
}

TEST(DescentSolver, EquationFourteenDescentIgnoresIndependenceFamily)
{
    // The family applies to total-weight descents only: h2's Eq. 14
    // descent builds the same model with the flag on or off. The
    // 1 ms budget ends both runs right after the build.
    const auto h = fermion::h2Sto3gIntegrals().toHamiltonian();
    DescentOptions with = fastOptions();
    with.totalTimeoutSeconds = 1e-3;
    with.algebraicIndependence = true;
    DescentOptions without = with;
    without.algebraicIndependence = false;

    const auto family = DescentSolver(h, with).solve();
    const auto plain = DescentSolver(h, without).solve();
    EXPECT_GT(plain.numClauses, 0u);
    EXPECT_EQ(family.numVars, plain.numVars);
    EXPECT_EQ(family.numClauses, plain.numClauses);
}

TEST(DescentSolver, TotalBudgetCountsTheModelBuild)
{
    // h2's Eq. 14 model takes far longer than 1 ms to build, and
    // the total budget counts from solve() entry: it is spent before
    // the first SAT step, and the descent answers its start.
    const auto h = fermion::h2Sto3gIntegrals().toHamiltonian();
    DescentOptions options = fastOptions();
    options.totalTimeoutSeconds = 1e-3;
    const auto result = DescentSolver(h, options).solve();
    EXPECT_GT(result.numClauses, 0u);
    EXPECT_EQ(result.satCalls, 0u);
    EXPECT_EQ(result.termination, DescentTermination::BudgetExhausted);
    EXPECT_FALSE(result.provedOptimal);
    EXPECT_LE(result.cost, result.baselineCost);
    EXPECT_EQ(result.cost,
              enc::hamiltonianPauliWeight(h, result.encoding));
}

TEST(DescentSolver, TrajectoryIsMonotoneDecreasing)
{
    // N = 4 improves three times (20, 19, 16) on its way from
    // Bravyi-Kitaev's 21 to the lower bound.
    DescentSolver solver(4, fromBravyiKitaev());
    const auto result = solver.solve();
    EXPECT_GE(result.trajectory.size(), 2u);
    for (std::size_t i = 1; i < result.trajectory.size(); ++i) {
        EXPECT_LT(result.trajectory[i].first,
                  result.trajectory[i - 1].first);
    }
}

TEST(DescentSolver, TinyBudgetStillReturnsBaseline)
{
    DescentOptions options;
    options.stepTimeoutSeconds = 1e-6;
    options.totalTimeoutSeconds = 1e-6;
    DescentSolver solver(4, options);
    const auto result = solver.solve();
    // Whatever happens, the result is a valid encoding no worse
    // than BK (possibly BK itself).
    EXPECT_LE(result.cost, result.baselineCost);
    EXPECT_TRUE(enc::validateEncoding(result.encoding).valid());
}

TEST(DescentSolver, PortfolioDeterministicAcrossThreadCounts)
{
    // Deterministic mode is one solver instance, whatever threads
    // and portfolioInstances ask for: the descent result — cost,
    // optimality proof, SAT calls and the exact encoding — is the
    // default run's as long as no step times out.
    DescentOptions base = fromBravyiKitaev();
    base.deterministic = true;
    // Bit-identity requires budgets that never bind; the N=4 steps
    // take milliseconds, but sanitizer CI runs everything 10x
    // slower and in parallel, so leave a wide margin.
    base.stepTimeoutSeconds = 120.0;
    base.totalTimeoutSeconds = 600.0;
    const auto reference = DescentSolver(4, base).solve();
    EXPECT_GT(reference.satCalls, 0u);

    for (const auto &[threads, instances] :
         {std::pair<std::size_t, std::size_t>{2, 3}, {4, 4}}) {
        DescentOptions options = base;
        options.threads = threads;
        options.portfolioInstances = instances;
        const auto result = DescentSolver(4, options).solve();
        EXPECT_EQ(result.cost, reference.cost) << threads << " threads";
        EXPECT_EQ(result.provedOptimal, reference.provedOptimal)
            << threads << " threads";
        EXPECT_EQ(result.satCalls, reference.satCalls)
            << threads << " threads";
        EXPECT_TRUE(result.encoding.majoranas ==
                    reference.encoding.majoranas)
            << threads << " threads";
        // One instance ran: the winner's counters are the total.
        EXPECT_EQ(result.satStats.aggregate.conflicts,
                  result.satStats.winner.conflicts)
            << threads << " threads";
    }
}

TEST(DescentSolver, RacingPortfolioFindsSameOptimum)
{
    DescentOptions options = fromBravyiKitaev();
    options.portfolioInstances = 3;
    options.threads = 3;
    options.deterministic = false;

    const auto racing = DescentSolver(2, options).solve();
    const auto plain = DescentSolver(2, fromBravyiKitaev()).solve();
    // Arbitration may pick different optimal encodings, but the
    // optimum and its proof are unique.
    EXPECT_EQ(racing.cost, plain.cost);
    EXPECT_TRUE(racing.provedOptimal);
    EXPECT_TRUE(enc::validateEncoding(racing.encoding).valid());
}

TEST(DescentSolver, CarryOverKeepsCostAndSavesConflicts)
{
    // The learnt-clause carry-over across the descent's tightening
    // totalizer bounds is a pure engine optimisation: the workload
    // must descend to bit-identical costs with it on or off, and
    // keeping the clauses must save conflicts overall (every step
    // resumes from the previous step's inferences instead of
    // re-deriving them). The Eq. 14 objective keeps the final
    // UNSAT step, where most of the conflicts are.
    DescentOptions carry = fastOptions();
    carry.stepTimeoutSeconds = 120.0;
    carry.totalTimeoutSeconds = 600.0;
    DescentOptions fresh = carry;
    carry.carryLearnts = true;
    fresh.carryLearnts = false;

    const auto h = tvModel(/*ring=*/true);
    const auto kept = DescentSolver(h, carry).solve();
    const auto cleared = DescentSolver(h, fresh).solve();

    EXPECT_EQ(kept.cost, cleared.cost);
    EXPECT_EQ(kept.baselineCost, cleared.baselineCost);
    EXPECT_EQ(kept.provedOptimal, cleared.provedOptimal);
    EXPECT_TRUE(enc::validateEncoding(kept.encoding).valid());

    // The off-run must actually have dropped learnt clauses, and
    // the on-run must win the conflict count.
    EXPECT_GT(cleared.satStats.aggregate.clearedLearnts, 0u);
    EXPECT_EQ(kept.satStats.aggregate.clearedLearnts, 0u);
    EXPECT_LT(kept.satStats.aggregate.conflicts,
              cleared.satStats.aggregate.conflicts);
}

TEST(DescentSolver, ProgressCallbackIsMonotone)
{
    // The observer contract: one report per SAT step, bounds
    // strictly decreasing (each step asks below the best cost so
    // far), elapsed time non-decreasing, and exactly one SAT call
    // per report. The Eq. 14 instance reports both an improving
    // step and the final UNSAT one.
    std::vector<DescentProgress> reports;
    DescentOptions options = fastOptions();
    options.progress = [&](const DescentProgress &p) {
        reports.push_back(p);
    };
    const auto h = tvModel(/*ring=*/false);
    DescentSolver solver(h, options);
    const auto result = solver.solve();

    ASSERT_FALSE(reports.empty());
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const DescentProgress &report = reports[i];
        if (report.status == sat::SolveStatus::Sat) {
            // A SAT step improves to at most the bound it asked.
            EXPECT_LE(report.bestCost, report.bound);
        } else {
            // UNSAT/timeout leaves the previous best (= bound + 1).
            EXPECT_EQ(report.bestCost, report.bound + 1);
        }
        EXPECT_EQ(report.satCalls, i + 1);
        if (i == 0)
            continue;
        EXPECT_LT(report.bound, reports[i - 1].bound);
        EXPECT_GE(report.elapsedSeconds,
                  reports[i - 1].elapsedSeconds);
        EXPECT_LE(report.bestCost, reports[i - 1].bestCost);
        EXPECT_GE(report.conflicts, reports[i - 1].conflicts);
    }
    // The final report's best cost is the result the caller gets.
    EXPECT_EQ(reports.back().bestCost, result.cost);
    // Observer-only: attaching the callback must not change the
    // outcome of the search.
    const auto plain = DescentSolver(h, fastOptions()).solve();
    EXPECT_EQ(result.cost, plain.cost);
    EXPECT_EQ(result.satCalls, plain.satCalls);
}

TEST(DescentSolver, EnumerateOptimalBeforeSolveIsFatal)
{
    // The documented precondition (solve() first) must be a fatal
    // diagnostic, consistent with FlagSet::assign on malformed
    // values — not silent misbehaviour.
    DescentSolver solver(2, fastOptions());
    EXPECT_THROW(solver.enumerateOptimal(1, 1.0), FatalError);
    // After solve() the same call succeeds.
    solver.solve();
    EXPECT_FALSE(solver.enumerateOptimal(1, 10.0).empty());
}

TEST(DescentSolver, EnumerateOptimalYieldsDistinctValidEncodings)
{
    DescentSolver solver(2, fastOptions());
    const auto result = solver.solve();
    const auto samples = solver.enumerateOptimal(5, 20.0);
    EXPECT_GE(samples.size(), 2u);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_TRUE(enc::validateEncoding(samples[i]).valid());
        EXPECT_LE(samples[i].totalWeight(), result.cost);
        for (std::size_t j = i + 1; j < samples.size(); ++j) {
            EXPECT_FALSE(samples[i].majoranas ==
                         samples[j].majoranas);
        }
    }
}

TEST(DescentSolver, EnumerateOptimalAfterAZeroStepDescent)
{
    // At N = 3 the descent proves Bravyi-Kitaev optimal without a
    // SAT step; the sampler must still find optimal encodings
    // (Figure 4 silently drops a mode count whose sample is empty).
    DescentSolver solver(3, fastOptions());
    const auto result = solver.solve();
    ASSERT_EQ(result.satCalls, 0u);
    const auto samples = solver.enumerateOptimal(3, 20.0);
    EXPECT_EQ(samples.size(), 3u);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        EXPECT_TRUE(enc::validateEncoding(samples[i]).valid());
        EXPECT_EQ(samples[i].totalWeight(), result.cost);
        for (std::size_t j = i + 1; j < samples.size(); ++j) {
            EXPECT_FALSE(samples[i].majoranas ==
                         samples[j].majoranas);
        }
    }
}

} // namespace
} // namespace fermihedral::core
