/**
 * @file
 * Differential fuzz harness for the CDCL core.
 *
 * Races the production Solver against a tiny reference DPLL solver
 * (unit propagation + chronological backtracking — slow but simple
 * enough to audit by eye) over seeded random instances: random
 * 3-SAT near the phase transition, mixed-width k-SAT, totalizer
 * cardinality instances, and assumption-based incremental solves
 * that interleave clearLearnts() calls. Verdicts must agree on
 * every instance; every Sat answer is validated clause by clause
 * against the reported model; instances also round-trip through
 * the DIMACS writer/parser.
 *
 * Environment knobs (the CI fuzz-smoke job uses both):
 *  - FERMIHEDRAL_FUZZ_ITERATIONS: total instance budget across the
 *    families (default 520, floor 8).
 *  - FERMIHEDRAL_FUZZ_ARTIFACT_DIR: when set, every failing
 *    instance is written there as a DIMACS file named after its
 *    family and seed, for offline reproduction.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sat/dimacs.h"
#include "sat/solver.h"
#include "sat/totalizer.h"
#include "sat/types.h"

namespace sat = fermihedral::sat;
using fermihedral::Rng;
using sat::litSign;
using sat::litToString;
using sat::litVar;
using sat::mkLit;

namespace {

/** A generated instance: clause list over dense variables. */
struct Instance
{
    std::size_t numVars = 0;
    std::vector<std::vector<sat::Lit>> clauses;
};

// --------------------------------------------------------------------
// Reference solver: DPLL with unit propagation, no heuristics.
// --------------------------------------------------------------------

class ReferenceSolver
{
  public:
    explicit ReferenceSolver(const Instance &instance)
        : clauses(instance.clauses),
          values(instance.numVars, sat::LBool::Undef)
    {
    }

    bool
    solve(const std::vector<sat::Lit> &assumptions = {})
    {
        std::fill(values.begin(), values.end(),
                  sat::LBool::Undef);
        for (const sat::Lit lit : assumptions) {
            if (value(lit) == sat::LBool::False)
                return false;
            assign(lit);
        }
        return dpll();
    }

    sat::LBool
    modelValue(sat::Var var) const
    {
        return values[static_cast<std::size_t>(var)];
    }

  private:
    sat::LBool
    value(sat::Lit lit) const
    {
        const sat::LBool v =
            values[static_cast<std::size_t>(litVar(lit))];
        return litSign(lit) ? -v : v;
    }

    void
    assign(sat::Lit lit)
    {
        values[static_cast<std::size_t>(litVar(lit))] =
            litSign(lit) ? sat::LBool::False : sat::LBool::True;
    }

    /** Propagate to fixpoint; false on an empty clause. */
    bool
    propagate(std::vector<sat::Lit> &trail)
    {
        bool changed = true;
        while (changed) {
            changed = false;
            for (const auto &clause : clauses) {
                sat::Lit unassigned = sat::litUndef;
                std::size_t open = 0;
                bool satisfied = false;
                for (const sat::Lit lit : clause) {
                    const sat::LBool v = value(lit);
                    if (v == sat::LBool::True) {
                        satisfied = true;
                        break;
                    }
                    if (v == sat::LBool::Undef) {
                        unassigned = lit;
                        ++open;
                    }
                }
                if (satisfied)
                    continue;
                if (open == 0)
                    return false;
                if (open == 1) {
                    assign(unassigned);
                    trail.push_back(unassigned);
                    changed = true;
                }
            }
        }
        return true;
    }

    bool
    dpll()
    {
        std::vector<sat::Lit> trail;
        if (!propagate(trail)) {
            for (const sat::Lit lit : trail)
                values[static_cast<std::size_t>(litVar(lit))] =
                    sat::LBool::Undef;
            return false;
        }
        sat::Var branch = sat::varUndef;
        for (std::size_t v = 0; v < values.size(); ++v) {
            if (values[v] == sat::LBool::Undef) {
                branch = static_cast<sat::Var>(v);
                break;
            }
        }
        if (branch == sat::varUndef)
            return true; // complete assignment, all clauses open->sat
        for (const bool negated : {false, true}) {
            assign(mkLit(branch, negated));
            if (dpll())
                return true;
            values[static_cast<std::size_t>(branch)] =
                sat::LBool::Undef;
        }
        for (const sat::Lit lit : trail)
            values[static_cast<std::size_t>(litVar(lit))] =
                sat::LBool::Undef;
        return false;
    }

    const std::vector<std::vector<sat::Lit>> &clauses;
    std::vector<sat::LBool> values;
};

// --------------------------------------------------------------------
// Clause-recording SolverBase (drives the totalizer generator).
// --------------------------------------------------------------------

class CnfBuilder final : public sat::SolverBase
{
  public:
    sat::Var
    newVar() override
    {
        return static_cast<sat::Var>(vars++);
    }
    std::size_t numVars() const override { return vars; }
    std::size_t numClauses() const override
    {
        return clauses.size();
    }
    using sat::SolverBase::addClause;
    bool
    addClause(std::span<const sat::Lit> literals) override
    {
        clauses.emplace_back(literals.begin(), literals.end());
        return true;
    }
    sat::SolveStatus
    solve(std::span<const sat::Lit>, const sat::Budget &) override
    {
        return sat::SolveStatus::Unknown;
    }
    sat::LBool modelValue(sat::Var) const override
    {
        return sat::LBool::Undef;
    }
    void setPolarity(sat::Var, bool) override {}
    void boostActivity(sat::Var, double) override {}
    bool inconsistent() const override { return false; }
    const sat::SolverStats &stats() const override
    {
        return statistics;
    }

    Instance
    toInstance() const
    {
        return Instance{vars, clauses};
    }

  private:
    std::size_t vars = 0;
    std::vector<std::vector<sat::Lit>> clauses;
    sat::SolverStats statistics;
};

// --------------------------------------------------------------------
// Generators
// --------------------------------------------------------------------

std::vector<sat::Lit>
randomClause(Rng &rng, std::size_t num_vars, std::size_t width)
{
    std::vector<sat::Var> vars;
    while (vars.size() < width) {
        const auto var = static_cast<sat::Var>(
            rng.nextBelow(num_vars));
        if (std::find(vars.begin(), vars.end(), var) ==
            vars.end()) {
            vars.push_back(var);
        }
    }
    std::vector<sat::Lit> clause;
    clause.reserve(width);
    for (const sat::Var var : vars)
        clause.push_back(mkLit(var, rng.nextBool()));
    return clause;
}

/** Random 3-SAT around the ~4.26 clause/variable transition. */
Instance
random3Sat(Rng &rng)
{
    Instance instance;
    instance.numVars = 8 + rng.nextBelow(13); // 8..20
    const auto num_clauses = static_cast<std::size_t>(
        3.8 * static_cast<double>(instance.numVars) +
        static_cast<double>(rng.nextBelow(instance.numVars)));
    for (std::size_t c = 0; c < num_clauses; ++c)
        instance.clauses.push_back(
            randomClause(rng, instance.numVars, 3));
    return instance;
}

/** Mixed widths 1..5: units and binaries stress the special paths. */
Instance
randomMixedSat(Rng &rng)
{
    Instance instance;
    instance.numVars = 6 + rng.nextBelow(15); // 6..20
    const std::size_t num_clauses =
        2 * instance.numVars + rng.nextBelow(3 * instance.numVars);
    for (std::size_t c = 0; c < num_clauses; ++c) {
        const std::size_t roll = rng.nextBelow(10);
        const std::size_t width =
            roll == 0 ? 1 : roll < 5 ? 2 : roll < 8 ? 3 : 4;
        instance.clauses.push_back(randomClause(
            rng, instance.numVars,
            std::min(width, instance.numVars)));
    }
    return instance;
}

/** A totalizer counter plus random side constraints and a bound. */
Instance
randomTotalizer(Rng &rng)
{
    CnfBuilder builder;
    const std::size_t num_inputs = 4 + rng.nextBelow(7); // 4..10
    std::vector<sat::Lit> inputs;
    for (std::size_t i = 0; i < num_inputs; ++i)
        inputs.push_back(
            mkLit(builder.newVar(), rng.nextBool()));
    const std::size_t cap = 1 + rng.nextBelow(num_inputs);
    sat::Totalizer totalizer(builder, inputs, cap);

    // Side constraints over the inputs push the count around; a
    // few forced inputs make the bound genuinely refutable.
    const std::size_t extra = 2 + rng.nextBelow(2 * num_inputs);
    for (std::size_t c = 0; c < extra; ++c)
        builder.addClause(randomClause(
            rng, num_inputs, std::min<std::size_t>(
                                 2 + rng.nextBelow(2), num_inputs)));
    const std::size_t forced = rng.nextBelow(num_inputs / 2 + 1);
    for (std::size_t i = 0; i < forced; ++i)
        builder.addClause(
            {inputs[rng.nextBelow(inputs.size())]});

    totalizer.boundAtMost(rng.nextBelow(totalizer.width()));
    return builder.toInstance();
}

// --------------------------------------------------------------------
// Checking
// --------------------------------------------------------------------

sat::Cnf
toCnf(const Instance &instance)
{
    sat::Cnf cnf;
    cnf.numVars = instance.numVars;
    for (const auto &clause : instance.clauses)
        cnf.addClause(clause);
    cnf.numVars = std::max(cnf.numVars, instance.numVars);
    return cnf;
}

void
writeArtifact(const Instance &instance, const char *family,
              std::uint64_t seed)
{
    const char *dir =
        std::getenv("FERMIHEDRAL_FUZZ_ARTIFACT_DIR");
    if (dir == nullptr || *dir == '\0')
        return;
    const std::string path = std::string(dir) + "/" + family +
                             "-" + std::to_string(seed) + ".cnf";
    std::ofstream file(path);
    file << sat::toDimacs(toCnf(instance));
}

testing::AssertionResult
modelSatisfies(const sat::Solver &solver, const Instance &instance,
               const std::vector<sat::Lit> &assumptions)
{
    for (std::size_t c = 0; c < instance.clauses.size(); ++c) {
        bool satisfied = false;
        for (const sat::Lit lit : instance.clauses[c])
            satisfied |=
                solver.modelValue(lit) == sat::LBool::True;
        if (!satisfied) {
            return testing::AssertionFailure()
                   << "model falsifies clause " << c;
        }
    }
    for (const sat::Lit lit : assumptions) {
        if (solver.modelValue(lit) != sat::LBool::True) {
            return testing::AssertionFailure()
                   << "model violates assumption "
                   << litToString(lit);
        }
    }
    return testing::AssertionSuccess();
}

/**
 * One differential episode: load the instance once, then solve it
 * under each assumption set in order (reference vs production),
 * optionally calling clearLearnts() after every other incremental
 * call.
 */
testing::AssertionResult
checkInstance(const Instance &instance,
              const std::vector<std::vector<sat::Lit>> &episodes,
              bool self_check, bool maintain)
{
    ReferenceSolver reference(instance);

    sat::SolverConfig config;
    config.selfCheck = self_check;
    sat::Solver solver(config);
    for (std::size_t v = 0; v < instance.numVars; ++v)
        solver.newVar();
    bool load_conflict = false;
    for (const auto &clause : instance.clauses)
        load_conflict |= !solver.addClause(clause);

    for (std::size_t e = 0; e < episodes.size(); ++e) {
        const auto &assumptions = episodes[e];
        const bool ref_sat = reference.solve(assumptions);
        const sat::SolveStatus status =
            solver.solve(assumptions);
        if (status == sat::SolveStatus::Unknown) {
            return testing::AssertionFailure()
                   << "episode " << e
                   << ": Unknown without a budget";
        }
        const bool got_sat = status == sat::SolveStatus::Sat;
        if (got_sat != ref_sat) {
            return testing::AssertionFailure()
                   << "episode " << e << ": solver says "
                   << (got_sat ? "SAT" : "UNSAT")
                   << ", reference says "
                   << (ref_sat ? "SAT" : "UNSAT");
        }
        if (got_sat) {
            const auto valid =
                modelSatisfies(solver, instance, assumptions);
            if (!valid) {
                return testing::AssertionFailure()
                       << "episode " << e << ": "
                       << valid.message();
            }
        }
        if (maintain && !solver.inconsistent() && e % 2 == 1)
            solver.clearLearnts();
    }
    (void)load_conflict; // covered by the Unsat verdict agreement
    return testing::AssertionSuccess();
}

/** Total instance budget (FERMIHEDRAL_FUZZ_ITERATIONS override). */
std::size_t
totalBudget()
{
    const char *env =
        std::getenv("FERMIHEDRAL_FUZZ_ITERATIONS");
    if (env != nullptr && *env != '\0') {
        const long value = std::atol(env);
        if (value > 0) {
            return std::max<std::size_t>(
                8, static_cast<std::size_t>(value));
        }
    }
    return 520;
}

std::vector<sat::Lit>
randomAssumptions(Rng &rng, std::size_t num_vars)
{
    std::vector<sat::Lit> lits;
    const std::size_t count = 1 + rng.nextBelow(4);
    for (std::size_t i = 0; i < count; ++i)
        lits.push_back(mkLit(
            static_cast<sat::Var>(rng.nextBelow(num_vars)),
            rng.nextBool()));
    return lits;
}

} // namespace

TEST(Differential, Random3Sat)
{
    const std::size_t count = totalBudget() / 2;
    for (std::uint64_t seed = 0; seed < count; ++seed) {
        Rng rng(0x35a7u ^ (seed * 0x9e3779b97f4a7c15ull));
        const Instance instance = random3Sat(rng);
        const auto result = checkInstance(
            instance, {{}}, /*self_check=*/seed % 8 == 0,
            /*maintain=*/false);
        EXPECT_TRUE(result) << "seed " << seed;
        if (!result)
            writeArtifact(instance, "random3sat", seed);
    }
}

TEST(Differential, MixedKSat)
{
    const std::size_t count = totalBudget() / 4;
    for (std::uint64_t seed = 0; seed < count; ++seed) {
        Rng rng(0x77131u ^ (seed * 0x9e3779b97f4a7c15ull));
        const Instance instance = randomMixedSat(rng);
        const auto result = checkInstance(
            instance, {{}}, /*self_check=*/seed % 8 == 0,
            /*maintain=*/false);
        EXPECT_TRUE(result) << "seed " << seed;
        if (!result)
            writeArtifact(instance, "mixedksat", seed);
    }
}

TEST(Differential, TotalizerCardinality)
{
    const std::size_t count =
        std::max<std::size_t>(totalBudget() / 8, 4);
    for (std::uint64_t seed = 0; seed < count; ++seed) {
        Rng rng(0xb0717u ^ (seed * 0x9e3779b97f4a7c15ull));
        const Instance instance = randomTotalizer(rng);
        const auto result = checkInstance(
            instance, {{}}, /*self_check=*/seed % 4 == 0,
            /*maintain=*/false);
        EXPECT_TRUE(result) << "seed " << seed;
        if (!result)
            writeArtifact(instance, "totalizer", seed);
    }
}

TEST(Differential, IncrementalAssumptions)
{
    // Several solves of one instance under changing assumptions,
    // with carry-over resets interleaved: the production solver
    // must stay equivalent to a fresh reference solve at every
    // step.
    const std::size_t count =
        std::max<std::size_t>(totalBudget() / 8, 4);
    for (std::uint64_t seed = 0; seed < count; ++seed) {
        Rng rng(0x1ec5du ^ (seed * 0x9e3779b97f4a7c15ull));
        Instance instance = random3Sat(rng);
        std::vector<std::vector<sat::Lit>> episodes;
        episodes.push_back({}); // assumption-free baseline first
        const std::size_t extra = 2 + rng.nextBelow(3);
        for (std::size_t e = 0; e < extra; ++e)
            episodes.push_back(
                randomAssumptions(rng, instance.numVars));
        const auto result =
            checkInstance(instance, episodes,
                          /*self_check=*/seed % 4 == 0,
                          /*maintain=*/true);
        EXPECT_TRUE(result) << "seed " << seed;
        if (!result)
            writeArtifact(instance, "incremental", seed);
    }
}

TEST(Differential, DimacsRoundTrip)
{
    // The instance must survive text round-trips: generator ->
    // DIMACS -> parser -> solver gives the reference verdict, and
    // the solver's own snapshot re-parses to an equisatisfiable
    // instance.
    const std::size_t count =
        std::max<std::size_t>(totalBudget() / 8, 4);
    for (std::uint64_t seed = 0; seed < count; ++seed) {
        Rng rng(0xd17acu ^ (seed * 0x9e3779b97f4a7c15ull));
        const Instance instance = randomMixedSat(rng);
        ReferenceSolver reference(instance);
        const bool ref_sat = reference.solve();

        const sat::Cnf parsed =
            sat::parseDimacs(sat::toDimacs(toCnf(instance)));
        sat::Solver solver;
        parsed.loadInto(solver);
        const bool got_sat =
            solver.solve() == sat::SolveStatus::Sat;
        EXPECT_EQ(got_sat, ref_sat) << "seed " << seed;

        // Snapshot of the solved instance: equisatisfiable after
        // another round-trip (learnt clauses must not leak in).
        const sat::Cnf snapshot = sat::parseDimacs(
            sat::toDimacs(sat::snapshotCnf(solver)));
        sat::Solver replay;
        snapshot.loadInto(replay);
        const bool replay_sat =
            replay.solve() == sat::SolveStatus::Sat;
        EXPECT_EQ(replay_sat, ref_sat) << "seed " << seed;
        if (got_sat != ref_sat || replay_sat != ref_sat)
            writeArtifact(instance, "roundtrip", seed);
    }
}
