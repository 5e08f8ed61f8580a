#include "pauli/pauli_sum.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "common/logging.h"

namespace fermihedral::pauli {

PauliSum::PauliSum(std::size_t num_qubits) : n(num_qubits)
{
}

void
PauliSum::add(std::complex<double> coefficient,
              const PauliString &string)
{
    require(string.numQubits() == n,
            "PauliSum::add: string width ", string.numQubits(),
            " != sum width ", n);
    const std::complex<double> folded =
        coefficient * string.phaseFactor();
    termList.push_back(PauliTerm{
        folded,
        PauliString::fromMasks(n, string.xMask(), string.zMask())});
}

void
PauliSum::add(const PauliTerm &term)
{
    require(term.string.numQubits() == n,
            "PauliSum::add: string width ", term.string.numQubits(),
            " != sum width ", n);
    require(term.string.phaseExp() == 0,
            "PauliSum::add: a stored term carries no phase");
    termList.push_back(term);
}

void
PauliSum::add(const PauliSum &other)
{
    require(other.n == n, "PauliSum::add: width mismatch");
    for (const auto &term : other.termList)
        termList.push_back(term);
}

void
PauliSum::scale(std::complex<double> factor)
{
    for (auto &term : termList)
        term.coefficient *= factor;
}

void
PauliSum::simplify(double epsilon)
{
    std::sort(termList.begin(), termList.end(),
              [](const PauliTerm &a, const PauliTerm &b) {
                  return a.string < b.string;
              });
    std::vector<PauliTerm> combined;
    for (const auto &term : termList) {
        if (!combined.empty() &&
            combined.back().string == term.string) {
            combined.back().coefficient += term.coefficient;
        } else {
            combined.push_back(term);
        }
    }
    std::erase_if(combined, [epsilon](const PauliTerm &term) {
        return std::abs(term.coefficient) <= epsilon;
    });
    termList = std::move(combined);
}

std::size_t
PauliSum::totalWeight() const
{
    std::size_t total = 0;
    for (const auto &term : termList)
        total += term.string.weight();
    return total;
}

double
PauliSum::maxImaginaryMagnitude() const
{
    double max_imag = 0.0;
    for (const auto &term : termList)
        max_imag = std::max(max_imag,
                            std::abs(term.coefficient.imag()));
    return max_imag;
}

bool
PauliSum::isHermitian(double epsilon) const
{
    return maxImaginaryMagnitude() <= epsilon;
}

std::string
PauliSum::toString(int precision) const
{
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(precision);
    for (const auto &term : termList) {
        oss << std::showpos << term.coefficient.real();
        if (std::abs(term.coefficient.imag()) > 1e-12)
            oss << term.coefficient.imag() << 'i';
        oss << std::noshowpos << " * " << term.string.label() << '\n';
    }
    return oss.str();
}

} // namespace fermihedral::pauli
