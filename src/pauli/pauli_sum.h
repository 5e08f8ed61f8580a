/**
 * @file
 * Linear combinations of Pauli strings (qubit Hamiltonians).
 *
 * A PauliSum stores terms as (complex coefficient, phaseless string)
 * pairs; the string's tracked phase is folded into the coefficient on
 * insertion, so equal tensors always combine. Encoded Fermionic
 * Hamiltonians are PauliSums with (numerically) real coefficients.
 *
 * Key invariants:
 *  - Stored PauliTerm strings always have phase exponent 0 — the
 *    phase lives entirely in the coefficient.
 *  - All terms share the sum's qubit count; add() rejects width
 *    mismatches.
 *  - add() is lazy (duplicates accumulate); only simplify()
 *    combines equal tensors, drops near-zero terms and sorts into
 *    canonical order, after which equal sums compare term-by-term.
 */

#ifndef FERMIHEDRAL_PAULI_PAULI_SUM_H
#define FERMIHEDRAL_PAULI_PAULI_SUM_H

#include <complex>
#include <string>
#include <vector>

#include "pauli/pauli_string.h"

namespace fermihedral::pauli {

/** A single weighted Pauli string. The string carries no phase. */
struct PauliTerm
{
    std::complex<double> coefficient;
    PauliString string;
};

/** A sum of weighted Pauli strings on a fixed qubit count. */
class PauliSum
{
  public:
    PauliSum() = default;

    /** Empty sum over num_qubits qubits. */
    explicit PauliSum(std::size_t num_qubits);

    std::size_t numQubits() const { return n; }

    /**
     * Add coefficient * string. The string's phase is folded into
     * the coefficient. Terms are not combined until simplify().
     */
    void add(std::complex<double> coefficient,
             const PauliString &string);

    /**
     * Add a phaseless term as is: its coefficient is stored bit for
     * bit (no phase folding, so a -0.0 part stays -0.0).
     */
    void add(const PauliTerm &term);

    /** Add every term of another sum. */
    void add(const PauliSum &other);

    /** Multiply every coefficient by a scalar. */
    void scale(std::complex<double> factor);

    /**
     * Combine equal tensors and drop terms with |coeff| <= epsilon.
     * Terms end up sorted in canonical string order.
     */
    void simplify(double epsilon = 1e-12);

    const std::vector<PauliTerm> &terms() const { return termList; }

    /** Number of stored terms. */
    std::size_t size() const { return termList.size(); }

    /**
     * Total Hamiltonian Pauli weight: the sum of the Pauli weights
     * of all non-identity terms (the paper's cost metric).
     */
    std::size_t totalWeight() const;

    /** Largest |imaginary part| over all coefficients. */
    double maxImaginaryMagnitude() const;

    /** True when all coefficients are real within epsilon. */
    bool isHermitian(double epsilon = 1e-9) const;

    /** Multi-line human-readable rendering. */
    std::string toString(int precision = 6) const;

  private:
    std::size_t n = 0;
    std::vector<PauliTerm> termList;
};

} // namespace fermihedral::pauli

#endif // FERMIHEDRAL_PAULI_PAULI_SUM_H
