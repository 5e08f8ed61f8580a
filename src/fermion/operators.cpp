#include "fermion/operators.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace fermihedral::fermion {

FermionHamiltonian::FermionHamiltonian(std::size_t modes)
    : numModes(modes)
{
    require(modes >= 1 && modes <= maxModes,
            "FermionHamiltonian supports 1..", maxModes,
            " modes, got ", modes);
}

void
FermionHamiltonian::addFermionTerm(double coefficient,
                                   std::vector<FermionOp> ops)
{
    for (const FermionOp &op : ops) {
        require(op.mode < numModes, "fermion term references mode ",
                op.mode, " outside 0..", numModes - 1);
    }
    acTerms.push_back(FermionTerm{coefficient, std::move(ops)});
}

void
FermionHamiltonian::addMajoranaTerm(double coefficient,
                                    std::vector<std::uint32_t> indices)
{
    for (const std::uint32_t index : indices) {
        require(index < majoranaCount(),
                "majorana term references operator ", index,
                " outside 0..", majoranaCount() - 1);
    }
    mjTerms.push_back(MajoranaTerm{coefficient, std::move(indices)});
}

std::pair<std::uint64_t, int>
reduceMajoranaSequence(std::span<const std::uint32_t> indices)
{
    // Sign = (-1)^inversions; equal elements commute through each
    // other with no extra inversions and then cancel pairwise.
    static thread_local std::vector<std::uint32_t> work;
    work.assign(indices.begin(), indices.end());
    std::size_t inversions = 0;
    for (std::size_t i = 1; i < work.size(); ++i) {
        const std::uint32_t key = work[i];
        std::size_t j = i;
        while (j > 0 && work[j - 1] > key) {
            work[j] = work[j - 1];
            --j;
            ++inversions;
        }
        work[j] = key;
    }
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < work.size();) {
        if (i + 1 < work.size() && work[i] == work[i + 1]) {
            i += 2; // gamma^2 = I
        } else {
            mask |= std::uint64_t{1} << work[i];
            ++i;
        }
    }
    return {mask, (inversions % 2 == 0) ? 1 : -1};
}

std::vector<MajoranaMonomial>
expandFermionTerm(const FermionTerm &term)
{
    const std::size_t k = term.ops.size();
    require(k <= 16, "fermion term with more than 16 operators");
    std::vector<MajoranaMonomial> monomials;
    monomials.reserve(std::size_t{1} << k);

    std::vector<std::uint32_t> sequence(k);
    for (std::uint64_t choice = 0; choice < (std::uint64_t{1} << k);
         ++choice) {
        // Bit c of `choice` selects gamma[2j] (0) or gamma[2j+1] (1)
        // for the c-th operator in the product.
        std::complex<double> factor(term.coefficient, 0.0);
        for (std::size_t c = 0; c < k; ++c) {
            const FermionOp &op = term.ops[c];
            const bool odd = (choice >> c) & 1;
            sequence[c] = 2 * op.mode + (odd ? 1 : 0);
            factor *= 0.5;
            if (odd) {
                // a_j:     + i/2 * gamma[2j+1]
                // a^dag_j: - i/2 * gamma[2j+1]
                factor *= std::complex<double>(
                    0.0, op.creation ? -1.0 : 1.0);
            }
        }
        const auto [mask, sign] = reduceMajoranaSequence(sequence);
        monomials.push_back(
            MajoranaMonomial{mask, factor * double(sign)});
    }
    return monomials;
}

std::vector<WeightedSubset>
majoranaStructure(const FermionHamiltonian &hamiltonian)
{
    std::map<std::uint64_t, std::uint32_t> counts;
    for (const FermionTerm &term : hamiltonian.fermionTerms()) {
        for (const MajoranaMonomial &mono : expandFermionTerm(term)) {
            if (mono.mask != 0)
                ++counts[mono.mask];
        }
    }
    for (const MajoranaTerm &term : hamiltonian.majoranaTerms()) {
        const auto [mask, sign] =
            reduceMajoranaSequence(term.indices);
        (void)sign;
        if (mask != 0)
            ++counts[mask];
    }
    std::vector<WeightedSubset> result;
    result.reserve(counts.size());
    for (const auto &[mask, multiplicity] : counts)
        result.push_back(WeightedSubset{mask, multiplicity});
    return result;
}

} // namespace fermihedral::fermion
