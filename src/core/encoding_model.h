/**
 * @file
 * The SAT model of the Fermion-to-qubit encoding problem (Sec. 3).
 *
 * Boolean variables follow the paper's Eq. 7: each Pauli operator of
 * each Majorana string is a (bit1, bit2) pair with
 *   I = (0,0),  X = (0,1),  Y = (1,0),  Z = (1,1).
 *
 * Constraints generated:
 *  - Anticommutativity (Sec. 3.3): for every string pair an odd
 *    number of per-qubit anticommuting positions, via the symplectic
 *    identity acomm = (x1 & z2) xor (z1 & x2) with x = b1 xor b2 and
 *    z = b1, asserted as one parity chain per pair.
 *  - Algebraic independence (Sec. 3.4): for every non-empty subset
 *    of strings, the xor of their bit sequences is non-zero. Subset
 *    xors are built by dynamic programming over the power set so
 *    each subset costs one fresh variable per bit position.
 *  - Vacuum-state preservation (Sec. 3.5): each Majorana pair
 *    (2j, 2j+1) has an (X, Y) column on some qubit.
 *  - Pauli-weight objective (Secs. 3.6/3.7): per-operator weight
 *    bits (Hamiltonian-independent) or per-expanded-product weight
 *    bits (Hamiltonian-dependent) feed a capped totalizer, so the
 *    descent of Algorithm 1 tightens the bound by unit clauses.
 *
 * Key invariants:
 *  - The model supports 1..fermion::FermionHamiltonian::maxModes
 *    (32) modes: a Hamiltonian subset is a 64-bit mask over the 2N
 *    strings. More is a fatal diagnostic.
 *  - All constraints are built into the solver by the constructor;
 *    afterwards the model only reads literals, asserts bounds and
 *    decodes. The solver must outlive the model. Any SolverBase
 *    works: the plain CDCL engine or the portfolio.
 *  - decode() requires the solver to hold a satisfying model; the
 *    decoded encoding then satisfies every enabled constraint and
 *    costOf(decode()) is the exact objective the totalizer counted.
 *  - boundCostAtMost()/costAtMostAssumption() require
 *    bound <= options.costCap (the unary counter's width).
 *  - Bounds only ever tighten: boundCostAtMost(k) adds a permanent
 *    unit clause, so a later looser bound cannot be expressed on
 *    the same model instance.
 */

#ifndef FERMIHEDRAL_CORE_ENCODING_MODEL_H
#define FERMIHEDRAL_CORE_ENCODING_MODEL_H

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "encodings/encoding.h"
#include "fermion/operators.h"
#include "sat/formula.h"
#include "sat/solver_base.h"
#include "sat/totalizer.h"

namespace fermihedral::core {

/** Configuration of the SAT model. */
struct EncodingModelOptions
{
    /** Number of Fermionic modes N (and qubits). */
    std::size_t modes = 0;

    /**
     * Emit the power-set algebraic independence clauses: 4^N of
     * them, so the model is fatal beyond 8 modes with this on.
     * Anticommutation already implies them; they stay for the
     * paper's figures that measure their cost.
     */
    bool algebraicIndependence = true;

    /** Emit the X/Y-pair vacuum preservation clauses. */
    bool vacuumPreservation = true;

    /**
     * When non-empty, optimize the Hamiltonian-dependent weight of
     * these Majorana-product subsets (Sec. 3.7); otherwise the
     * Hamiltonian-independent total operator weight (Sec. 3.6).
     */
    std::vector<fermion::WeightedSubset> hamiltonianStructure;

    /**
     * Cap for the totalizer counter: the largest cost bound the
     * model will ever need to express (Algorithm 1 starts here).
     */
    std::size_t costCap = 0;
};

/** The constraint system for one encoding search. */
class EncodingModel
{
  public:
    /** Build all constraints into the given solver. */
    EncodingModel(sat::SolverBase &solver,
                  const EncodingModelOptions &options);

    /** bit1 literal of string s, qubit q (paper's E(sigma).1). */
    sat::Lit bit1(std::size_t s, std::size_t q) const;

    /** bit2 literal of string s, qubit q (paper's E(sigma).2). */
    sat::Lit bit2(std::size_t s, std::size_t q) const;

    /** Add a permanent clause enforcing cost <= bound. */
    void boundCostAtMost(std::size_t bound);

    /** Assumption literal for one solve with cost <= bound. */
    sat::Lit costAtMostAssumption(std::size_t bound) const;

    /** Decode the solver's current model into an encoding. */
    enc::FermionEncoding decode() const;

    /** Cost of a decoded encoding under this model's objective. */
    std::size_t costOf(const enc::FermionEncoding &encoding) const;

    /**
     * Initialise the solver's saved phases from a known-feasible
     * encoding (e.g.\ Bravyi-Kitaev) so search starts near it.
     */
    void warmStart(const enc::FermionEncoding &encoding);

    /**
     * Forbid the exact operator assignment of the current model
     * (used to enumerate distinct optimal encodings for Fig. 4).
     */
    void blockCurrentSolution();

    std::size_t numCostInputs() const { return costInputs.size(); }

  private:
    sat::SolverBase &solver;
    sat::Formula formula;
    EncodingModelOptions options;

    /** vars[s][q] = (bit1 var, bit2 var). */
    std::vector<std::vector<std::pair<sat::Var, sat::Var>>> vars;

    /** Per-(s, q) shared x = bit1 xor bit2 literal. */
    std::vector<std::vector<sat::Lit>> xLit;

    /** Per-(s, q) shared non-identity (= weight) literal. */
    std::vector<std::vector<sat::Lit>> weightLit;

    std::vector<sat::Lit> costInputs;
    std::unique_ptr<sat::Totalizer> totalizer;

    void buildVariables();
    void buildAnticommutativity();
    void buildAlgebraicIndependence();
    void buildVacuumPreservation();
    void buildIndependentCost();
    void buildHamiltonianCost();

    pauli::PauliOp decodeOp(std::size_t s, std::size_t q) const;
};

} // namespace fermihedral::core

#endif // FERMIHEDRAL_CORE_ENCODING_MODEL_H
