/**
 * @file
 * The Fermion-to-qubit encoding value type, the Hamiltonian mapper,
 * and the exact validator for the paper's four constraints
 * (Section 3.1).
 *
 * Key invariants:
 *  - A well-formed FermionEncoding has majoranas.size() == 2 * modes
 *    and every string on the same qubit count; majoranas[2j] and
 *    majoranas[2j+1] realise mode j under the fixed pairing
 *    convention below.
 *  - validateEncoding() checks the constraints exactly (no
 *    sampling): anticommutativity pairwise, algebraic independence
 *    as a GF(2) rank condition, vacuum preservation by applying
 *    a_j to |0...0>.
 *  - mapToQubits() of a Hermitian Hamiltonian through a valid
 *    encoding yields numerically real coefficients, and its
 *    spectrum matches the Fock-space ground truth (fermion/fock.h).
 */

#ifndef FERMIHEDRAL_ENCODINGS_ENCODING_H
#define FERMIHEDRAL_ENCODINGS_ENCODING_H

#include <string>
#include <vector>

#include "fermion/operators.h"
#include "pauli/pauli_string.h"
#include "pauli/pauli_sum.h"

namespace fermihedral::enc {

/**
 * A Fermion-to-qubit encoding: 2N phase-carrying Pauli strings for
 * the Majorana operators of N modes, with the pairing convention
 *
 *   a_j      = (majoranas[2j] + i majoranas[2j+1]) / 2
 *   a^dag_j  = (majoranas[2j] - i majoranas[2j+1]) / 2
 */
struct FermionEncoding
{
    std::size_t modes = 0;
    std::vector<pauli::PauliString> majoranas;

    /** Number of qubits the Majorana strings act on. */
    std::size_t numQubits() const
    {
        return majoranas.empty() ? 0 : majoranas[0].numQubits();
    }

    /** Sum of the Pauli weights of all 2N Majorana strings. */
    std::size_t totalWeight() const;

    /** totalWeight() / (2N): the per-operator metric of Figs. 6/7. */
    double weightPerOperator() const;
};

/**
 * Pauli string of the ordered product of the Majorana operators
 * selected by `mask` (ascending index order, phases tracked).
 */
pauli::PauliString majoranaProduct(const FermionEncoding &encoding,
                                   std::uint64_t mask);

/**
 * Encode a Fermionic Hamiltonian into a qubit PauliSum through the
 * given encoding. The result is simplified; for a valid encoding of
 * a Hermitian Hamiltonian all coefficients are real.
 */
pauli::PauliSum mapToQubits(
    const fermion::FermionHamiltonian &hamiltonian,
    const FermionEncoding &encoding);

/**
 * The Hamiltonian-dependent total Pauli weight of an encoding:
 * Eq. 14's sum of the weights of every expanded Majorana product.
 * This is the metric reported in Tables 4 and 5 and the annealing
 * energy of Algorithm 2.
 */
std::size_t hamiltonianPauliWeight(
    const fermion::FermionHamiltonian &hamiltonian,
    const FermionEncoding &encoding);

/** Outcome of validateEncoding. */
struct EncodingValidation
{
    /** Every pair of distinct Majorana strings anticommutes. */
    bool anticommutativity = false;
    /** No subset of strings multiplies to the identity (GF(2)). */
    bool algebraicIndependence = false;
    /** a_j |0...0> = 0 exactly, for every mode j. */
    bool vacuumPreserving = false;
    /** The paper's relaxed Sec. 3.5 check: an X/Y pair exists. */
    bool xyPairing = false;
    /** First failure found, for diagnostics. */
    std::string detail;

    /** All of the mandatory constraints hold. */
    bool
    valid() const
    {
        return anticommutativity && algebraicIndependence;
    }
};

/** Exactly check the Section 3.1 constraints on an encoding. */
EncodingValidation validateEncoding(const FermionEncoding &encoding);

/**
 * Least total Pauli weight any encoding of `modes` modes can have:
 * the least integer sum of 2N weights w_i with
 * sum_i 3^(-w_i) <= 1, which is
 *
 *   2N (k + 1) - floor((3^(k+1) - 2N) / 2),   k = floor(log3 2N).
 *
 * Proof that every encoding obeys the inequality:
 *  - Draw a product basis b uniformly from {X,Y,Z}^N. A string P
 *    agrees with b on its whole support with probability 3^(-|P|).
 *  - Two strings that both agree with the same b commute (on each
 *    qubit each is the identity or b_q). So for pairwise
 *    anticommuting strings these events are disjoint, and their
 *    probabilities sum to at most 1.
 *  - 3^(-w) is convex, so moving two weights one step toward each
 *    other keeps their total and never raises the sum. Every
 *    feasible weight vector thus balances, at the same total, to
 *    one whose weights all lie in {t, t+1}. With a of them at t it
 *    is feasible iff 2N + 2a <= 3^(t+1), so the least total takes
 *    t = k and the largest such a.
 *
 * Only anticommutativity is used, so the bound holds with or
 * without algebraic independence and vacuum pairing. It is tight
 * at every N, with vacuum pairing too: pairedTernaryTree()
 * (ternary_tree.h) meets it, because a heap-shaped ternary tree
 * that drops a deepest leaf is a ternary Huffman tree over 2N equal
 * weights plus one dummy leaf, and its two strings per mode differ
 * only in X vs Y at that mode's node and in Z-only tails. The plain
 * ternaryTree() meets it only at N = 1, 4 and 13.
 */
std::size_t totalWeightLowerBound(std::size_t modes);

} // namespace fermihedral::enc

#endif // FERMIHEDRAL_ENCODINGS_ENCODING_H
