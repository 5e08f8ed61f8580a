/**
 * @file
 * Second-quantized Fermionic operators and Hamiltonians.
 *
 * A FermionHamiltonian is a sum of products of creation/annihilation
 * operators ("ac" terms) and/or direct Majorana-operator products
 * ("mj" terms, used by the SYK model) — mirroring the two input
 * formats of the original artifact.
 *
 * Majorana convention (0-indexed version of the paper's Eq. 12):
 *   gamma[2j]   = a_j + a^dag_j
 *   gamma[2j+1] = i (a^dag_j - a_j)
 * so a_j = (gamma[2j] + i gamma[2j+1]) / 2.
 *
 * Key invariants:
 *  - FermionHamiltonian is an inert container: terms are stored as
 *    given (no normal ordering, no merging); all algebra happens in
 *    the free functions below.
 *  - reduceMajoranaSequence() is canonical: the returned mask lists
 *    each surviving index once, the sign accounts exactly for the
 *    anticommutation swaps and gamma^2 = I eliminations.
 *  - expandFermionTerm() of a k-operator term yields exactly 2^k
 *    monomials before reduction, each with |coefficient| =
 *    |term.coefficient| / 2^k.
 *  - majoranaStructure() merges equal subsets, never emits the
 *    empty mask, and its multiplicities count every expanded
 *    product of the Hamiltonian — it is the exact Eq. 14 cost
 *    structure shared by the SAT objective and the annealer.
 */

#ifndef FERMIHEDRAL_FERMION_OPERATORS_H
#define FERMIHEDRAL_FERMION_OPERATORS_H

#include <complex>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace fermihedral::fermion {

/** One creation or annihilation operator on a Fermionic mode. */
struct FermionOp
{
    std::uint32_t mode;
    bool creation;
};

/** Shorthand for a creation operator a^dag_mode. */
constexpr FermionOp
create(std::uint32_t mode)
{
    return FermionOp{mode, true};
}

/** Shorthand for an annihilation operator a_mode. */
constexpr FermionOp
annihilate(std::uint32_t mode)
{
    return FermionOp{mode, false};
}

/** A weighted product of creation/annihilation operators. */
struct FermionTerm
{
    double coefficient;
    /** Applied right-to-left: ops[0] acts last (leftmost factor). */
    std::vector<FermionOp> ops;
};

/** A weighted product of Majorana operators (SYK-style term). */
struct MajoranaTerm
{
    double coefficient;
    /** Majorana indices, leftmost factor first. */
    std::vector<std::uint32_t> indices;
};

/**
 * A reduced Majorana monomial: a subset of the 2N Majorana
 * operators (bit i set means gamma_i participates, in increasing
 * index order) with a complex prefactor.
 */
struct MajoranaMonomial
{
    std::uint64_t mask;
    std::complex<double> coefficient;
};

/** A Majorana-operator subset with its occurrence count (Eq. 14). */
struct WeightedSubset
{
    std::uint64_t mask;
    std::uint32_t multiplicity;
};

/** A second-quantized Hamiltonian on a fixed number of modes. */
class FermionHamiltonian
{
  public:
    /**
     * Most modes a Hamiltonian may have: a Majorana subset is a
     * 64-bit mask over the 2N operators.
     */
    static constexpr std::size_t maxModes = 32;

    /** Empty Hamiltonian on 1..maxModes Fermionic modes. */
    explicit FermionHamiltonian(std::size_t modes);

    std::size_t modes() const { return numModes; }

    /** Number of Majorana operators (2 * modes). */
    std::size_t majoranaCount() const { return 2 * numModes; }

    /** Append coefficient * ops[0] * ops[1] * ... */
    void addFermionTerm(double coefficient,
                        std::vector<FermionOp> ops);

    /** Append coefficient * gamma_{i0} * gamma_{i1} * ... */
    void addMajoranaTerm(double coefficient,
                         std::vector<std::uint32_t> indices);

    const std::vector<FermionTerm> &fermionTerms() const
    {
        return acTerms;
    }
    const std::vector<MajoranaTerm> &majoranaTerms() const
    {
        return mjTerms;
    }

    /** Total number of stored terms of both kinds. */
    std::size_t termCount() const
    {
        return acTerms.size() + mjTerms.size();
    }

  private:
    std::size_t numModes;
    std::vector<FermionTerm> acTerms;
    std::vector<MajoranaTerm> mjTerms;
};

/**
 * Reduce an ordered Majorana index sequence to canonical form using
 * gamma_a gamma_b = -gamma_b gamma_a (a != b) and gamma_a^2 = I.
 *
 * @return The index subset mask and the sign (+1 or -1).
 */
std::pair<std::uint64_t, int>
reduceMajoranaSequence(std::span<const std::uint32_t> indices);

/**
 * Expand one fermionic term into its 2^k reduced Majorana monomials
 * by substituting a_j and a^dag_j with their Majorana combinations.
 */
std::vector<MajoranaMonomial> expandFermionTerm(
    const FermionTerm &term);

/**
 * The Majorana-product index structure of the whole Hamiltonian:
 * every expanded product contributes its (reduced) index subset,
 * and equal subsets are merged with a multiplicity count. This is
 * the cost structure consumed by the Hamiltonian-dependent weight
 * constraint (Section 3.7) and the annealing energy (Algorithm 2).
 *
 * The empty subset (identity products) is omitted: it never
 * contributes Pauli weight.
 */
std::vector<WeightedSubset> majoranaStructure(
    const FermionHamiltonian &hamiltonian);

} // namespace fermihedral::fermion

#endif // FERMIHEDRAL_FERMION_OPERATORS_H
