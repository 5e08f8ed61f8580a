/**
 * @file
 * hw/router.h fuzz tests: routed circuits must implement the same
 * unitary as their logical input up to the reported final wire
 * permutation (checked against the dense statevector simulator),
 * place every CNOT on a topology edge, obey the
 * twoQubitGates == CNOTs + 3 * swaps accounting, and be
 * deterministic for equal (circuit, topology, options).
 */

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "common/logging.h"
#include "common/rng.h"
#include "hw/router.h"
#include "sim/statevector.h"

namespace fermihedral::hw {
namespace {

/** Random connected topology: spanning tree plus extra edges. */
Topology
randomConnected(std::size_t n, Rng &rng)
{
    std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
    for (std::uint32_t q = 1; q < n; ++q)
        edges.push_back(
            {static_cast<std::uint32_t>(rng.nextBelow(q)), q});
    const std::size_t extra = rng.nextBelow(n);
    for (std::size_t i = 0; i < extra; ++i) {
        const auto a =
            static_cast<std::uint32_t>(rng.nextBelow(n));
        const auto b =
            static_cast<std::uint32_t>(rng.nextBelow(n));
        if (a != b)
            edges.push_back({std::min(a, b), std::max(a, b)});
    }
    return Topology::fromEdges(n, std::move(edges));
}

/** Random circuit over the compiler's gate set. */
circuit::Circuit
randomCircuit(std::size_t wires, std::size_t gates, Rng &rng)
{
    circuit::Circuit c(wires);
    for (std::size_t i = 0; i < gates; ++i) {
        const auto q =
            static_cast<std::uint32_t>(rng.nextBelow(wires));
        switch (rng.nextBelow(wires >= 2 ? 5 : 4)) {
        case 0:
            c.add(circuit::GateKind::H, q);
            break;
        case 1:
            c.add(circuit::GateKind::S, q);
            break;
        case 2:
            c.add(circuit::GateKind::Rz, q,
                  0.1 + 0.2 * static_cast<double>(
                                  rng.nextBelow(7)));
            break;
        case 3:
            c.add(circuit::GateKind::X, q);
            break;
        default: {
            auto t = static_cast<std::uint32_t>(
                rng.nextBelow(wires - 1));
            if (t >= q)
                ++t;
            c.addCnot(q, t);
            break;
        }
        }
    }
    return c;
}

/**
 * ||routed - logical|| up to the final permutation: the routed
 * state's amplitude at the index with wire w's bit moved to
 * physical qubit finalLayout[w] must match the (width-extended)
 * logical state's amplitude for wire index l.
 */
void
expectPermutationEquivalent(const circuit::Circuit &logical,
                            const Topology &topology,
                            const RoutedCircuit &routed,
                            std::uint64_t initial_bits)
{
    const std::size_t n = topology.numQubits();
    // The logical reference: same gates on an n-wide register
    // (extra wires idle), starting from the same basis state.
    circuit::Circuit widened(n);
    for (const auto &gate : logical.gates()) {
        if (circuit::isTwoQubit(gate.kind))
            widened.addCnot(gate.qubit0, gate.qubit1);
        else
            widened.add(gate.kind, gate.qubit0, gate.angle);
    }
    sim::StateVector reference(n);
    reference.setBasisState(initial_bits);
    reference.applyCircuit(widened);

    sim::StateVector physical(n);
    physical.setBasisState(initial_bits);
    physical.applyCircuit(routed.physical);

    ASSERT_EQ(routed.finalLayout.size(), n);
    for (std::uint64_t l = 0; l < reference.dimension(); ++l) {
        std::uint64_t p = 0;
        for (std::size_t w = 0; w < n; ++w)
            if ((l >> w) & 1)
                p |= std::uint64_t(1) << routed.finalLayout[w];
        const auto want = reference.amplitudes()[l];
        const auto got = physical.amplitudes()[p];
        ASSERT_NEAR(want.real(), got.real(), 1e-9);
        ASSERT_NEAR(want.imag(), got.imag(), 1e-9);
    }
}

TEST(Router, FuzzedCircuitsRoutePermutationEquivalent)
{
    Rng rng(20260807);
    for (int iteration = 0; iteration < 60; ++iteration) {
        const std::size_t n = 2 + rng.nextBelow(7);
        const auto topology = randomConnected(n, rng);
        if (!topology.connected())
            continue;
        const std::size_t wires = 1 + rng.nextBelow(n);
        const auto logical = randomCircuit(
            wires, 5 + rng.nextBelow(26), rng);

        RouterOptions options;
        options.lookahead = rng.nextBelow(10);
        options.seed = rng.nextBelow(1000);
        const auto routed =
            routeCircuit(logical, topology, options);

        // Edge legality: every routed CNOT acts on an edge.
        for (const auto &gate : routed.physical.gates()) {
            if (circuit::isTwoQubit(gate.kind)) {
                ASSERT_TRUE(
                    topology.hasEdge(gate.qubit0, gate.qubit1))
                    << "CNOT " << gate.qubit0 << "," << gate.qubit1;
            }
        }

        // Accounting: 3 extra CNOTs per SWAP, nothing else.
        EXPECT_EQ(routed.stats.twoQubitGates,
                  logical.costs().cnotGates +
                      3 * routed.stats.swaps);
        EXPECT_EQ(routed.stats.twoQubitGates,
                  routed.physical.costs().cnotGates);
        EXPECT_EQ(routed.stats.depth,
                  routed.physical.costs().depth);

        // The initial layout is the identity.
        for (std::uint32_t w = 0; w < n; ++w)
            ASSERT_EQ(routed.initialLayout[w], w);

        // Unitary equivalence from |0..0> and a random basis state.
        expectPermutationEquivalent(logical, topology, routed, 0);
        expectPermutationEquivalent(
            logical, topology, routed,
            rng.nextBelow(std::uint64_t(1) << n));
    }
}

TEST(Router, EqualInputsRouteIdentically)
{
    Rng rng(7);
    for (int iteration = 0; iteration < 10; ++iteration) {
        const std::size_t n = 3 + rng.nextBelow(5);
        const auto topology = randomConnected(n, rng);
        const auto logical = randomCircuit(n, 25, rng);
        RouterOptions options;
        options.seed = iteration;

        const auto first = routeCircuit(logical, topology, options);
        const auto second =
            routeCircuit(logical, topology, options);
        ASSERT_EQ(first.physical.size(), second.physical.size());
        for (std::size_t i = 0; i < first.physical.size(); ++i) {
            const auto &a = first.physical.gates()[i];
            const auto &b = second.physical.gates()[i];
            EXPECT_EQ(a.kind, b.kind);
            EXPECT_EQ(a.qubit0, b.qubit0);
            EXPECT_EQ(a.qubit1, b.qubit1);
            EXPECT_EQ(a.angle, b.angle);
        }
        EXPECT_EQ(first.finalLayout, second.finalLayout);
    }
}

TEST(Router, DistanceTwoCnotCostsOneSwap)
{
    circuit::Circuit logical(3);
    logical.addCnot(0, 2);
    const auto routed =
        routeCircuit(logical, Topology::linear(3), {});
    EXPECT_EQ(routed.stats.swaps, 1u);
    EXPECT_EQ(routed.stats.twoQubitGates, 4u);
    expectPermutationEquivalent(logical, Topology::linear(3),
                                routed, 0);
    expectPermutationEquivalent(logical, Topology::linear(3),
                                routed, 0b101);
}

TEST(Router, AdjacentCircuitsRouteSwapFree)
{
    // Everything already nearest-neighbour: the router must not
    // insert a single SWAP and the gate list is the input's.
    circuit::Circuit logical(4);
    logical.add(circuit::GateKind::H, 0);
    logical.addCnot(0, 1);
    logical.addCnot(2, 3);
    logical.addCnot(1, 2);
    const auto routed =
        routeCircuit(logical, Topology::linear(4), {});
    EXPECT_EQ(routed.stats.swaps, 0u);
    EXPECT_EQ(routed.physical.size(), logical.size());
    EXPECT_EQ(routed.finalLayout, routed.initialLayout);
}

TEST(Router, InvalidInputsAreFatal)
{
    circuit::Circuit wide(5);
    wide.addCnot(0, 4);
    EXPECT_THROW(routeCircuit(wide, Topology::linear(3), {}),
                 PanicError);

    const auto disconnected =
        Topology::fromEdges(4, {{0, 1}, {2, 3}});
    circuit::Circuit c(4);
    c.addCnot(0, 3);
    EXPECT_THROW(routeCircuit(c, disconnected, {}), PanicError);
}

} // namespace
} // namespace fermihedral::hw
