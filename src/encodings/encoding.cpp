#include "encodings/encoding.h"

#include <bit>
#include <complex>
#include <sstream>

#include "common/gf2.h"
#include "common/logging.h"

namespace fermihedral::enc {

std::size_t
FermionEncoding::totalWeight() const
{
    std::size_t total = 0;
    for (const auto &majorana : majoranas)
        total += majorana.weight();
    return total;
}

double
FermionEncoding::weightPerOperator() const
{
    require(!majoranas.empty(), "weightPerOperator of empty encoding");
    return static_cast<double>(totalWeight()) /
           static_cast<double>(majoranas.size());
}

pauli::PauliString
majoranaProduct(const FermionEncoding &encoding, std::uint64_t mask)
{
    pauli::PauliString product(encoding.numQubits());
    std::uint64_t remaining = mask;
    while (remaining) {
        const int index = std::countr_zero(remaining);
        remaining &= remaining - 1;
        require(static_cast<std::size_t>(index) <
                    encoding.majoranas.size(),
                "majoranaProduct mask exceeds operator count");
        product = product * encoding.majoranas[index];
    }
    return product;
}

pauli::PauliSum
mapToQubits(const fermion::FermionHamiltonian &hamiltonian,
            const FermionEncoding &encoding)
{
    require(encoding.modes == hamiltonian.modes(),
            "encoding is for ", encoding.modes,
            " modes but Hamiltonian has ", hamiltonian.modes());
    pauli::PauliSum sum(encoding.numQubits());

    for (const auto &term : hamiltonian.fermionTerms()) {
        for (const auto &mono : fermion::expandFermionTerm(term)) {
            const auto product = majoranaProduct(encoding, mono.mask);
            sum.add(mono.coefficient, product);
        }
    }
    for (const auto &term : hamiltonian.majoranaTerms()) {
        const auto [mask, sign] =
            fermion::reduceMajoranaSequence(term.indices);
        const auto product = majoranaProduct(encoding, mask);
        sum.add(term.coefficient * double(sign), product);
    }
    sum.simplify();
    return sum;
}

std::size_t
hamiltonianPauliWeight(
    const fermion::FermionHamiltonian &hamiltonian,
    const FermionEncoding &encoding)
{
    std::size_t total = 0;
    for (const auto &subset : fermion::majoranaStructure(hamiltonian))
        total += subset.multiplicity *
                 majoranaProduct(encoding, subset.mask).weight();
    return total;
}

EncodingValidation
validateEncoding(const FermionEncoding &encoding)
{
    EncodingValidation result;
    const auto &majoranas = encoding.majoranas;
    const std::size_t count = majoranas.size();
    std::ostringstream detail;

    if (count != 2 * encoding.modes || count == 0) {
        result.detail = "wrong number of Majorana strings";
        return result;
    }

    // Anticommutativity: every distinct pair must anticommute.
    result.anticommutativity = true;
    for (std::size_t i = 0; i < count && result.anticommutativity;
         ++i) {
        for (std::size_t j = i + 1; j < count; ++j) {
            if (!majoranas[i].anticommutesWith(majoranas[j])) {
                result.anticommutativity = false;
                detail << "strings " << i << " and " << j
                       << " commute; ";
                break;
            }
        }
    }

    // Algebraic independence: a subset multiplies to the identity
    // (up to phase) exactly when the symplectic vectors xor to zero,
    // so independence is a GF(2) rank condition.
    const std::size_t qubits = encoding.numQubits();
    BitMatrix symplectic(count, 2 * qubits);
    for (std::size_t i = 0; i < count; ++i) {
        for (std::size_t q = 0; q < qubits; ++q) {
            symplectic.set(i, 2 * q,
                           (majoranas[i].xMask() >> q) & 1);
            symplectic.set(i, 2 * q + 1,
                           (majoranas[i].zMask() >> q) & 1);
        }
    }
    result.algebraicIndependence = symplectic.rank() == count;
    if (!result.algebraicIndependence)
        detail << "strings are algebraically dependent; ";

    // Vacuum preservation, exact: a_j |0> = 0 requires the images of
    // gamma_{2j} and i gamma_{2j+1} on |0...0> to cancel.
    result.vacuumPreserving = true;
    for (std::size_t j = 0; j < encoding.modes; ++j) {
        const auto even = majoranas[2 * j].applyToBasis(0);
        const auto odd = majoranas[2 * j + 1].applyToBasis(0);
        const std::complex<double> sum =
            even.amplitude() +
            std::complex<double>(0.0, 1.0) * odd.amplitude();
        if (even.bits != odd.bits || std::abs(sum) > 1e-12) {
            result.vacuumPreserving = false;
            detail << "a_" << j << " |vac> != 0; ";
            break;
        }
    }

    // The paper's relaxed pairing condition: some qubit holds an
    // (X, Y) pair across each (even, odd) Majorana pair.
    result.xyPairing = true;
    for (std::size_t j = 0; j < encoding.modes; ++j) {
        bool found = false;
        for (std::size_t q = 0; q < qubits && !found; ++q) {
            found = majoranas[2 * j].op(q) == pauli::PauliOp::X &&
                    majoranas[2 * j + 1].op(q) == pauli::PauliOp::Y;
        }
        if (!found) {
            result.xyPairing = false;
            detail << "pair " << j << " lacks an X/Y column; ";
            break;
        }
    }

    result.detail = detail.str();
    return result;
}

std::size_t
totalWeightLowerBound(std::size_t modes)
{
    if (modes == 0)
        return 0;
    const std::size_t strings = 2 * modes;
    // power = 3^k with k = floor(log3 strings).
    std::size_t k = 0;
    std::size_t power = 1;
    while (power * 3 <= strings) {
        power *= 3;
        ++k;
    }
    // All strings at weight k + 1, less one for each string that
    // fits at weight k: 3 a + (strings - a) <= 3^(k+1).
    return strings * (k + 1) - (3 * power - strings) / 2;
}

} // namespace fermihedral::enc
