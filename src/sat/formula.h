/**
 * @file
 * Boolean circuit construction with Tseitin CNF conversion.
 *
 * This layer plays the role Z3 plays in the original artifact: the
 * encoding constraints of Section 3 are written as and/or/xor gates
 * over literals, and each gate is converted to CNF by introducing one
 * auxiliary variable (the Tseitin transformation), keeping the clause
 * count linear in the formula size.
 *
 * Key invariants:
 *  - Every mk*() gate is a full equivalence (y <-> gate(inputs)),
 *    so formulas stay equisatisfiable with the circuit they encode
 *    regardless of input polarity.
 *  - All variables and clauses go into the solver passed at
 *    construction (any SolverBase: the plain CDCL engine or the
 *    portfolio); Formula itself holds no clause state beyond the
 *    shared true-literal, and several Formulas may target one
 *    solver.
 *  - Gate clause counts are fixed: and/or cost |inputs| + 1
 *    clauses, a binary xor costs 4; mkXorChain is linear in the
 *    input count.
 */

#ifndef FERMIHEDRAL_SAT_FORMULA_H
#define FERMIHEDRAL_SAT_FORMULA_H

#include <span>
#include <vector>

#include "sat/solver_base.h"
#include "sat/types.h"

namespace fermihedral::sat {

/** Gate-level formula builder writing CNF into a SolverBase. */
class Formula
{
  public:
    /** All clauses and variables are created in the given solver. */
    explicit Formula(SolverBase &solver);

    SolverBase &solver() { return sat; }

    /** Fresh free literal. */
    Lit newLit();

    /** A literal constrained to be true (shared constant). */
    Lit trueLit();

    /** A literal constrained to be false (shared constant). */
    Lit falseLit();

    /** Assert a literal at the top level. */
    void assertTrue(Lit lit);

    /** Assert the negation of a literal at the top level. */
    void assertFalse(Lit lit);

    /** Add a raw CNF clause. */
    void addClause(std::span<const Lit> literals);
    void addClause(std::initializer_list<Lit> literals);

    /**
     * y <-> AND(inputs). Returns y. Empty input yields trueLit().
     */
    Lit mkAnd(std::span<const Lit> inputs);
    Lit mkAnd(std::initializer_list<Lit> inputs);

    /**
     * y <-> OR(inputs). Returns y. Empty input yields falseLit().
     */
    Lit mkOr(std::span<const Lit> inputs);
    Lit mkOr(std::initializer_list<Lit> inputs);

    /** y <-> a XOR b. */
    Lit mkXor(Lit a, Lit b);

    /**
     * y <-> XOR(inputs), built as a balanced chain of binary xors
     * (each adds one auxiliary variable and four clauses).
     * Empty input yields falseLit().
     */
    Lit mkXorChain(std::span<const Lit> inputs);

    /** Assert XOR(inputs) = parity without naming the output. */
    void assertXorEquals(std::span<const Lit> inputs, bool parity);

  private:
    SolverBase &sat;
    Lit constTrue = litUndef;
};

} // namespace fermihedral::sat

#endif // FERMIHEDRAL_SAT_FORMULA_H
