/**
 * @file
 * DIMACS CNF export/import.
 *
 * Lets the generated encoding instances run on external solvers
 * (Kissat, CaDiCaL) for cross-checking, and lets regression CNFs be
 * loaded back into this solver.
 *
 * Key invariants:
 *  - toDimacs(parseDimacs(text)) preserves the clause list exactly
 *    (same clauses, same literal order); only comments and
 *    whitespace are normalised.
 *  - Internal 0-based variables map to DIMACS 1-based integers as
 *    var + 1, negative for negated literals.
 *  - parseDimacs() rejects clauses containing a duplicate or
 *    contradictory (x and NOT x) literal outright: such clauses
 *    are invariably generator bugs, and catching them at the
 *    parser keeps them out of the solver.
 *  - snapshotCnf() exports only problem clauses and top-level
 *    facts, never learnt clauses: the result is logically
 *    equivalent to the solver's addClause() stream (duplicate,
 *    tautological and satisfied clauses and false literals may be
 *    dropped) and is stable across learnt-DB reduction,
 *    clearLearnts() and arena garbage collection.
 */

#ifndef FERMIHEDRAL_SAT_DIMACS_H
#define FERMIHEDRAL_SAT_DIMACS_H

#include <iosfwd>
#include <string>
#include <vector>

#include "sat/solver.h"
#include "sat/types.h"

namespace fermihedral::sat {

/** A plain CNF: clause list over 1-based DIMACS variables. */
struct Cnf
{
    std::size_t numVars = 0;
    std::vector<std::vector<Lit>> clauses;

    /** Append a clause (variables are created on demand). */
    void addClause(std::span<const Lit> literals);

    /**
     * Load every clause into a solver. Returns false when the
     * solver detects a conflict at load time. Solver and
     * PortfolioSolver unit-propagate each clause as it arrives,
     * so they report every level-0 conflict here; a solver that
     * detects less still never loses UNSAT — solve() says so.
     */
    bool loadInto(SolverBase &solver) const;
};

/** Render a CNF in DIMACS format. */
std::string toDimacs(const Cnf &cnf);

/**
 * Parse DIMACS text (comments and the problem line are accepted and
 * validated loosely). Throws FatalError on malformed input.
 */
Cnf parseDimacs(const std::string &text);

/**
 * Snapshot of a solver's live problem clauses as a Cnf (see
 * Solver::problemClausesSnapshot): top-level facts as units plus the
 * current problem clauses, never learnt clauses. The variable count
 * is the solver's.
 */
Cnf snapshotCnf(const Solver &solver);

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_DIMACS_H
