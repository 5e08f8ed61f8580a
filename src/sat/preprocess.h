/**
 * @file
 * Clause-database simplification for inprocessing.
 *
 * Solver::inprocess() runs this over its problem clauses between
 * solve() calls. It applies, over a plain clause list and an
 * occurrence index:
 *
 *  - top-level unit propagation (satisfied clauses removed, false
 *    literals stripped),
 *  - backward subsumption: a clause C removes every clause D ⊇ C,
 *  - self-subsuming resolution (strengthening): when
 *    D ⊇ (C \ {l}) ∪ {~l}, the literal ~l is removed from D.
 *
 * Key invariants:
 *  - The simplified formula is equivalent to the input over every
 *    variable: no variable is eliminated, so any model of the
 *    simplified clauses satisfies every clause ever added, and a
 *    caller may keep mentioning any variable in later clauses or
 *    assumptions. UNSAT is preserved exactly.
 *  - A variable forced at top level is re-emitted as a unit
 *    clause, so a solver loading the result agrees with it.
 *  - run() may be called once per Simplifier; addClause() must
 *    happen before it.
 */

#ifndef FERMIHEDRAL_SAT_PREPROCESS_H
#define FERMIHEDRAL_SAT_PREPROCESS_H

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "sat/types.h"

namespace fermihedral::sat {

/** Counters of one simplification run. */
struct SimplifierStats
{
    std::size_t originalClauses = 0;
    std::size_t simplifiedClauses = 0;
    std::size_t subsumedClauses = 0;
    std::size_t strengthenedLiterals = 0;
    std::size_t fixedVariables = 0;
    std::size_t rounds = 0;
};

/** One-shot clause-database simplifier (see file docs). */
class Simplifier
{
  public:
    explicit Simplifier(std::size_t num_vars);

    /** Add an input clause (before run()). */
    void addClause(std::span<const Lit> literals);
    void addClause(std::initializer_list<Lit> literals)
    {
        addClause(std::span<const Lit>(literals.begin(),
                                       literals.size()));
    }

    /** Run the simplification pipeline once. */
    void run();

    /** True when the input was refuted at the top level. */
    bool inconsistent() const { return contradiction; }

    /**
     * The simplified clause list: all surviving clauses plus one
     * unit per fixed variable (so a solver loading the result
     * agrees with the top-level assignment). Empty and meaningless
     * when inconsistent().
     */
    std::vector<std::vector<Lit>> simplifiedClauses() const;

    const SimplifierStats &stats() const { return statistics; }

  private:
    struct Clause
    {
        std::vector<Lit> lits;
        std::uint64_t signature = 0;
        bool removed = false;
    };

    std::vector<Clause> clauses;
    /** occurrences[lit.code]: indices of clauses containing lit. */
    std::vector<std::vector<std::size_t>> occurrences;
    std::vector<LBool> values;
    std::vector<Var> unitQueue;
    std::vector<std::size_t> subsumptionQueue;
    std::vector<char> queued;
    bool contradiction = false;
    bool ran = false;
    SimplifierStats statistics;

    static std::uint64_t signatureOf(std::span<const Lit> literals);
    LBool valueOf(Lit lit) const;
    void enqueueUnit(Lit lit);
    void enqueueSubsumption(std::size_t index);
    void removeClauseAt(std::size_t index);
    void detachLiteral(std::size_t index, Lit lit);
    bool insertClause(std::vector<Lit> lits);
    bool propagateUnits();
    bool subsumptionPass();
    bool strengthenClause(std::size_t index, Lit lit);
};

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_PREPROCESS_H
