#include "core/encoding_model.h"

#include <bit>

#include "common/logging.h"

namespace fermihedral::core {

using sat::Lit;
using sat::mkLit;

EncodingModel::EncodingModel(sat::SolverBase &solver,
                             const EncodingModelOptions &options)
    : solver(solver), formula(solver), options(options)
{
    require(options.modes >= 1, "EncodingModel needs a mode");
    if (options.modes > 32) {
        fatal("SAT search supports at most 32 modes (got ",
              options.modes, "): a Hamiltonian subset is a 64-bit "
              "mask over the 2N Majorana strings");
    }
    require(options.costCap >= 1, "costCap must be positive");
    buildVariables();
    buildAnticommutativity();
    if (options.algebraicIndependence)
        buildAlgebraicIndependence();
    if (options.vacuumPreservation)
        buildVacuumPreservation();
    if (options.hamiltonianStructure.empty())
        buildIndependentCost();
    else
        buildHamiltonianCost();
    totalizer = std::make_unique<sat::Totalizer>(
        solver, costInputs, options.costCap);
}

void
EncodingModel::buildVariables()
{
    const std::size_t strings = 2 * options.modes;
    const std::size_t qubits = options.modes;
    vars.resize(strings);
    xLit.resize(strings);
    weightLit.resize(strings);
    for (std::size_t s = 0; s < strings; ++s) {
        vars[s].resize(qubits);
        xLit[s].resize(qubits);
        weightLit[s].resize(qubits);
        for (std::size_t q = 0; q < qubits; ++q) {
            const sat::Var b1 = solver.newVar();
            const sat::Var b2 = solver.newVar();
            vars[s][q] = {b1, b2};
            // Symplectic x bit: set for X=(0,1) and Y=(1,0).
            xLit[s][q] = formula.mkXor(mkLit(b1), mkLit(b2));
            // Weight / non-identity bit: b1 or b2.
            weightLit[s][q] = formula.mkOr({mkLit(b1), mkLit(b2)});
        }
    }
}

Lit
EncodingModel::bit1(std::size_t s, std::size_t q) const
{
    return mkLit(vars[s][q].first);
}

Lit
EncodingModel::bit2(std::size_t s, std::size_t q) const
{
    return mkLit(vars[s][q].second);
}

void
EncodingModel::buildAnticommutativity()
{
    // Two operators anticommute iff (x1 & z2) xor (z1 & x2) with
    // z = bit1 in the paper's encoding. Two strings anticommute iff
    // the xor over all qubits of those per-qubit bits is odd, so
    // each pair contributes one parity chain over 2N and-terms.
    const std::size_t strings = 2 * options.modes;
    const std::size_t qubits = options.modes;
    std::vector<Lit> parity_inputs;
    parity_inputs.reserve(2 * qubits);
    for (std::size_t s = 0; s < strings; ++s) {
        for (std::size_t t = s + 1; t < strings; ++t) {
            parity_inputs.clear();
            for (std::size_t q = 0; q < qubits; ++q) {
                const Lit z_s = bit1(s, q);
                const Lit z_t = bit1(t, q);
                parity_inputs.push_back(
                    formula.mkAnd({xLit[s][q], z_t}));
                parity_inputs.push_back(
                    formula.mkAnd({z_s, xLit[t][q]}));
            }
            formula.assertXorEquals(parity_inputs, true);
        }
    }
}

void
EncodingModel::buildAlgebraicIndependence()
{
    // Bit-sequence form: 2N bits per string (bit1, bit2 per qubit).
    // For every non-empty subset of the 2N strings, the xor of the
    // member bit sequences must be non-zero. Subset xors are formed
    // by dynamic programming: xor(S) = xor(S minus lowest) xor
    // bits(lowest), costing one variable per (subset, position).
    // The family has 4^N clauses: about 1.6 GB of model at N = 9,
    // and construction never polls a deadline. Anticommuting
    // strings are independent anyway, so no strategy builds it;
    // only the paper's Full SAT figures do.
    if (options.modes > 8) {
        fatal("algebraic independence clauses are exponential; "
              "limited to 8 modes (got ", options.modes,
              ") - leave the constraint off: anticommutation "
              "already implies it");
    }
    const std::size_t strings = 2 * options.modes;
    const std::size_t positions = 2 * options.modes;

    auto bit_at = [this](std::size_t s, std::size_t p) {
        return p % 2 == 0 ? bit1(s, p / 2) : bit2(s, p / 2);
    };

    const std::size_t subset_count = std::size_t{1} << strings;
    // xorBits[mask] holds the per-position xor literals of `mask`.
    std::vector<std::vector<Lit>> xor_bits(subset_count);
    std::vector<Lit> clause(positions);
    for (std::size_t mask = 1; mask < subset_count; ++mask) {
        const auto low =
            static_cast<std::size_t>(std::countr_zero(mask));
        const std::size_t rest = mask & (mask - 1);
        auto &bits = xor_bits[mask];
        bits.resize(positions);
        for (std::size_t p = 0; p < positions; ++p) {
            bits[p] = rest == 0
                          ? bit_at(low, p)
                          : formula.mkXor(xor_bits[rest][p],
                                          bit_at(low, p));
        }
        // Not all positions may be zero: at least one xor bit set.
        for (std::size_t p = 0; p < positions; ++p)
            clause[p] = bits[p];
        formula.addClause(clause);
        // Free memory of masks that can no longer be extended from:
        // DP only ever reads mask & (mask - 1), i.e. prefixes, so
        // nothing can be freed safely mid-stream; rely on scope.
    }
}

void
EncodingModel::buildVacuumPreservation()
{
    // For each pair (2j, 2j+1), some qubit holds X on the even
    // string and Y on the odd string: pair = !b1 & b2 on the even
    // and b1 & !b2 on the odd (paper's Sec. 3.5).
    const std::size_t qubits = options.modes;
    std::vector<Lit> any_pair(qubits);
    for (std::size_t j = 0; j < options.modes; ++j) {
        const std::size_t even = 2 * j, odd = 2 * j + 1;
        for (std::size_t q = 0; q < qubits; ++q) {
            any_pair[q] = formula.mkAnd(
                {~bit1(even, q), bit2(even, q), bit1(odd, q),
                 ~bit2(odd, q)});
        }
        formula.addClause(any_pair);
    }
}

void
EncodingModel::buildIndependentCost()
{
    for (const auto &per_string : weightLit) {
        for (const Lit lit : per_string)
            costInputs.push_back(lit);
    }
}

void
EncodingModel::buildHamiltonianCost()
{
    // For every expanded Majorana product (Eq. 14): per qubit, the
    // product's operator bits are the xors of the member strings'
    // bits; the product contributes weight on a qubit when either
    // xor is set. Each distinct subset is encoded once and its
    // weight literal replicated `multiplicity` times.
    const std::size_t qubits = options.modes;
    std::vector<Lit> b1_inputs, b2_inputs;
    for (const auto &subset : options.hamiltonianStructure) {
        require(subset.mask != 0, "empty Hamiltonian subset");
        for (std::size_t q = 0; q < qubits; ++q) {
            b1_inputs.clear();
            b2_inputs.clear();
            std::uint64_t remaining = subset.mask;
            while (remaining) {
                const int s = std::countr_zero(remaining);
                remaining &= remaining - 1;
                b1_inputs.push_back(bit1(s, q));
                b2_inputs.push_back(bit2(s, q));
            }
            const Lit pb1 = formula.mkXorChain(b1_inputs);
            const Lit pb2 = formula.mkXorChain(b2_inputs);
            const Lit weight = formula.mkOr({pb1, pb2});
            for (std::uint32_t m = 0; m < subset.multiplicity; ++m)
                costInputs.push_back(weight);
        }
    }
    require(!costInputs.empty(),
            "Hamiltonian structure produced no cost bits");
}

void
EncodingModel::boundCostAtMost(std::size_t bound)
{
    totalizer->boundAtMost(bound);
}

Lit
EncodingModel::costAtMostAssumption(std::size_t bound) const
{
    require(bound + 1 <= totalizer->width() ||
                bound >= costInputs.size(),
            "cost bound ", bound, " not expressible (cap ",
            options.costCap, ")");
    if (bound >= costInputs.size())
        return sat::litUndef;
    return ~totalizer->atLeast(bound + 1);
}

pauli::PauliOp
EncodingModel::decodeOp(std::size_t s, std::size_t q) const
{
    const bool b1 = solver.modelValue(bit1(s, q)) == sat::LBool::True;
    const bool b2 = solver.modelValue(bit2(s, q)) == sat::LBool::True;
    // Paper's Eq. 7: I=(0,0), X=(0,1), Y=(1,0), Z=(1,1).
    if (!b1 && !b2)
        return pauli::PauliOp::I;
    if (!b1 && b2)
        return pauli::PauliOp::X;
    if (b1 && !b2)
        return pauli::PauliOp::Y;
    return pauli::PauliOp::Z;
}

enc::FermionEncoding
EncodingModel::decode() const
{
    enc::FermionEncoding encoding;
    encoding.modes = options.modes;
    encoding.majoranas.reserve(2 * options.modes);
    for (std::size_t s = 0; s < 2 * options.modes; ++s) {
        pauli::PauliString string(options.modes);
        for (std::size_t q = 0; q < options.modes; ++q)
            string.setOp(q, decodeOp(s, q));
        encoding.majoranas.push_back(string);
    }
    return encoding;
}

std::size_t
EncodingModel::costOf(const enc::FermionEncoding &encoding) const
{
    if (options.hamiltonianStructure.empty())
        return encoding.totalWeight();
    std::size_t total = 0;
    for (const auto &subset : options.hamiltonianStructure) {
        total += subset.multiplicity *
                 enc::majoranaProduct(encoding, subset.mask).weight();
    }
    return total;
}

void
EncodingModel::warmStart(const enc::FermionEncoding &encoding)
{
    require(encoding.modes == options.modes,
            "warmStart encoding has wrong mode count");
    for (std::size_t s = 0; s < 2 * options.modes; ++s) {
        for (std::size_t q = 0; q < options.modes; ++q) {
            const pauli::PauliOp op = encoding.majoranas[s].op(q);
            // Invert Eq. 7.
            const bool b1 = op == pauli::PauliOp::Y ||
                            op == pauli::PauliOp::Z;
            const bool b2 = op == pauli::PauliOp::X ||
                            op == pauli::PauliOp::Z;
            solver.setPolarity(vars[s][q].first, b1);
            solver.setPolarity(vars[s][q].second, b2);
            // Prefer deciding operator bits over Tseitin
            // auxiliaries: every auxiliary is then fixed by unit
            // propagation, so the first descent step essentially
            // walks the warm-start assignment.
            solver.boostActivity(vars[s][q].first, 1.0);
            solver.boostActivity(vars[s][q].second, 1.0);
        }
    }
}

void
EncodingModel::blockCurrentSolution()
{
    std::vector<Lit> clause;
    clause.reserve(4 * options.modes * options.modes);
    for (std::size_t s = 0; s < 2 * options.modes; ++s) {
        for (std::size_t q = 0; q < options.modes; ++q) {
            for (const sat::Var var :
                 {vars[s][q].first, vars[s][q].second}) {
                const bool value =
                    solver.modelValue(var) == sat::LBool::True;
                clause.push_back(mkLit(var, value));
            }
        }
    }
    formula.addClause(clause);
}

} // namespace fermihedral::core
