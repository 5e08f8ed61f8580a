/**
 * @file
 * google-benchmark micro-kernels for the performance-critical
 * primitives: Pauli algebra, SAT solving, state-vector gates,
 * Hamiltonian mapping and annealing sweeps.
 */

#include <benchmark/benchmark.h>

#include "circuit/passes.h"
#include "circuit/pauli_compiler.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/annealing.h"
#include "core/descent_solver.h"
#include "encodings/encoding.h"
#include "encodings/linear.h"
#include "fermion/models.h"
#include "sat/portfolio.h"
#include "sat/solver.h"
#include "sat/totalizer.h"
#include "sim/exact.h"
#include "sim/noise.h"
#include "sim/statevector.h"

using namespace fermihedral;

namespace {

pauli::PauliString
randomString(std::size_t qubits, Rng &rng)
{
    pauli::PauliString p(qubits);
    for (std::size_t q = 0; q < qubits; ++q)
        p.setOp(q, static_cast<pauli::PauliOp>(rng.nextBelow(4)));
    return p;
}

void
BM_PauliProduct(benchmark::State &state)
{
    Rng rng(1);
    const auto a = randomString(32, rng);
    const auto b = randomString(32, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(a * b);
}
BENCHMARK(BM_PauliProduct);

void
BM_PauliProductWeight(benchmark::State &state)
{
    Rng rng(2);
    const auto a = randomString(32, rng);
    const auto b = randomString(32, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(pauli::productWeight(a, b));
}
BENCHMARK(BM_PauliProductWeight);

void
BM_StateVectorHadamard(benchmark::State &state)
{
    sim::StateVector psi(
        static_cast<std::size_t>(state.range(0)));
    const circuit::Gate gate{circuit::GateKind::H, 0, 0, 0.0};
    for (auto _ : state) {
        psi.applyGate(gate);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StateVectorHadamard)->Arg(10)->Arg(14)->Arg(18);

void
BM_StateVectorCnot(benchmark::State &state)
{
    sim::StateVector psi(
        static_cast<std::size_t>(state.range(0)));
    psi.applyGate({circuit::GateKind::H, 0, 0, 0.0});
    for (auto _ : state) {
        psi.applyGate({circuit::GateKind::Cnot, 0,
                       static_cast<std::uint32_t>(state.range(0)) -
                           1,
                       0.0});
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StateVectorCnot)->Arg(10)->Arg(14)->Arg(18);

void
BM_StateVectorRz(benchmark::State &state)
{
    sim::StateVector psi(
        static_cast<std::size_t>(state.range(0)));
    const circuit::Gate gate{circuit::GateKind::Rz, 0, 0, 0.37};
    for (auto _ : state) {
        psi.applyGate(gate);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StateVectorRz)->Arg(10)->Arg(14)->Arg(18);

void
BM_StateVectorPauliX(benchmark::State &state)
{
    sim::StateVector psi(
        static_cast<std::size_t>(state.range(0)));
    const circuit::Gate gate{circuit::GateKind::X, 0, 0, 0.0};
    for (auto _ : state) {
        psi.applyGate(gate);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_StateVectorPauliX)->Arg(10)->Arg(14)->Arg(18);

/** Shared fixture for the trajectory-engine kernels: H2 under BK. */
struct H2Fixture
{
    pauli::PauliSum hamiltonian;
    circuit::Circuit circuit;
    circuit::FusedCircuit lowered;
    circuit::FusedCircuit fused;
    sim::StateVector initial;
    sim::StateVector evolved;

    H2Fixture()
        : hamiltonian(enc::mapToQubits(
              fermion::h2Sto3gIntegrals().toHamiltonian(),
              enc::bravyiKitaev(4))),
          circuit(circuit::compileTrotter(hamiltonian, 1.0)),
          lowered(circuit::lowerToMatrices(circuit)),
          fused(circuit::fuseSingleQubitGates(circuit)),
          initial(sim::eigendecompose(hamiltonian).state(0)),
          evolved(initial)
    {
        evolved.applyCircuit(circuit);
    }

    static const H2Fixture &
    instance()
    {
        static const H2Fixture fixture;
        return fixture;
    }
};

void
BM_ApplyCircuitTrotterH2(benchmark::State &state)
{
    const auto &fixture = H2Fixture::instance();
    sim::StateVector psi = fixture.initial;
    for (auto _ : state) {
        psi.applyCircuit(fixture.circuit);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_ApplyCircuitTrotterH2);

void
BM_ApplyFusedTrotterH2(benchmark::State &state)
{
    const auto &fixture = H2Fixture::instance();
    sim::StateVector psi = fixture.initial;
    for (auto _ : state) {
        psi.applyFused(fixture.fused);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_ApplyFusedTrotterH2);

void
BM_NoisyTrajectoryH2(benchmark::State &state)
{
    const auto &fixture = H2Fixture::instance();
    sim::NoiseModel noise;
    noise.singleQubitError = 1e-4;
    noise.twoQubitError = 1e-3;
    Rng rng(11);
    sim::StateVector scratch(1);
    for (auto _ : state) {
        sim::runNoisyTrajectoryInto(fixture.lowered,
                                    fixture.initial, noise, rng,
                                    scratch);
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_NoisyTrajectoryH2);

void
BM_SampleEnergyUngroupedH2(benchmark::State &state)
{
    const auto &fixture = H2Fixture::instance();
    sim::NoiseModel noise;
    noise.readoutError = 1e-3;
    Rng rng(12);
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::sampleEnergy(
            fixture.evolved, fixture.hamiltonian, noise, rng));
    }
}
BENCHMARK(BM_SampleEnergyUngroupedH2);

void
BM_SampleEnergyGroupedH2(benchmark::State &state)
{
    const auto &fixture = H2Fixture::instance();
    const sim::MeasurementPlan plan(fixture.hamiltonian);
    sim::NoiseModel noise;
    noise.readoutError = 1e-3;
    Rng rng(13);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim::sampleEnergy(fixture.evolved, plan, noise, rng));
    }
}
BENCHMARK(BM_SampleEnergyGroupedH2);

void
BM_MeasureEnergyH2(benchmark::State &state)
{
    const auto &fixture = H2Fixture::instance();
    sim::NoiseModel noise;
    noise.singleQubitError = 1e-4;
    noise.twoQubitError = 1e-3;
    noise.readoutError = 1e-3;
    ThreadPool pool(static_cast<std::size_t>(state.range(0)));
    Rng rng(14);
    const std::size_t shots = 512;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim::measureEnergy(
            fixture.circuit, fixture.initial, fixture.hamiltonian,
            noise, shots, rng, pool));
    }
    state.counters["shots/s"] = benchmark::Counter(
        static_cast<double>(shots * state.iterations()),
        benchmark::Counter::kIsRate);
}
// Wall-clock timing: with worker threads, main-thread CPU time
// would misreport the rate.
BENCHMARK(BM_MeasureEnergyH2)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

void
BM_SampleBasisLinear(benchmark::State &state)
{
    Rng init(15);
    sim::StateVector psi(14);
    for (std::uint32_t q = 0; q < 14; ++q) {
        psi.applyGate({circuit::GateKind::H, q, 0, 0.0});
        psi.applyGate({circuit::GateKind::Rz, q, 0,
                       init.nextDouble(0, 6)});
    }
    Rng rng(16);
    for (auto _ : state)
        benchmark::DoNotOptimize(psi.sampleBasisState(rng));
}
BENCHMARK(BM_SampleBasisLinear);

void
BM_SampleBasisTable(benchmark::State &state)
{
    Rng init(15);
    sim::StateVector psi(14);
    for (std::uint32_t q = 0; q < 14; ++q) {
        psi.applyGate({circuit::GateKind::H, q, 0, 0.0});
        psi.applyGate({circuit::GateKind::Rz, q, 0,
                       init.nextDouble(0, 6)});
    }
    const sim::SampleTable table(psi);
    Rng rng(16);
    for (auto _ : state)
        benchmark::DoNotOptimize(table.sample(rng));
}
BENCHMARK(BM_SampleBasisTable);

void
BM_PauliExpectation(benchmark::State &state)
{
    Rng rng(3);
    const std::size_t qubits = 10;
    sim::StateVector psi(qubits);
    for (std::uint32_t q = 0; q < qubits; ++q)
        psi.applyGate({circuit::GateKind::H, q, 0, 0.0});
    pauli::PauliSum h(qubits);
    for (int t = 0; t < 50; ++t)
        h.add(rng.nextGaussian(), randomString(qubits, rng));
    h.simplify();
    for (auto _ : state)
        benchmark::DoNotOptimize(psi.expectation(h));
}
BENCHMARK(BM_PauliExpectation);

void
BM_SatSolveRandom3Sat(benchmark::State &state)
{
    const int num_vars = static_cast<int>(state.range(0));
    const int clauses = num_vars * 4;
    for (auto _ : state) {
        state.PauseTiming();
        Rng rng(77);
        sat::Solver solver;
        for (int v = 0; v < num_vars; ++v)
            solver.newVar();
        for (int c = 0; c < clauses; ++c) {
            const auto v1 = static_cast<sat::Var>(
                rng.nextBelow(num_vars));
            const auto v2 = static_cast<sat::Var>(
                rng.nextBelow(num_vars));
            const auto v3 = static_cast<sat::Var>(
                rng.nextBelow(num_vars));
            solver.addTernary(sat::mkLit(v1, rng.nextBool()),
                              sat::mkLit(v2, rng.nextBool()),
                              sat::mkLit(v3, rng.nextBool()));
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_SatSolveRandom3Sat)->Arg(50)->Arg(100);

void
BM_PortfolioSolveRandom3Sat(benchmark::State &state)
{
    // A racing portfolio of `instances` on the same instances as
    // BM_SatSolveRandom3Sat's 100-variable arg.
    const std::size_t instances =
        static_cast<std::size_t>(state.range(0));
    const int num_vars = 100, clauses = 400;
    for (auto _ : state) {
        state.PauseTiming();
        Rng rng(77);
        sat::PortfolioOptions options;
        options.instances = instances;
        options.threads = instances;
        sat::PortfolioSolver solver(options);
        for (int v = 0; v < num_vars; ++v)
            solver.newVar();
        for (int c = 0; c < clauses; ++c) {
            const auto v1 = static_cast<sat::Var>(
                rng.nextBelow(num_vars));
            const auto v2 = static_cast<sat::Var>(
                rng.nextBelow(num_vars));
            const auto v3 = static_cast<sat::Var>(
                rng.nextBelow(num_vars));
            solver.addTernary(sat::mkLit(v1, rng.nextBool()),
                              sat::mkLit(v2, rng.nextBool()),
                              sat::mkLit(v3, rng.nextBool()));
        }
        state.ResumeTiming();
        benchmark::DoNotOptimize(solver.solve());
    }
}
BENCHMARK(BM_PortfolioSolveRandom3Sat)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime();

void
BM_DescentSolve(benchmark::State &state)
{
    // Wall-clock of a full Algorithm 1 descent (N=3, full SAT,
    // deterministic, from Bravyi-Kitaev).
    core::DescentOptions options;
    options.pairedTreeStart = false;
    options.stepTimeoutSeconds = 30.0;
    options.totalTimeoutSeconds = 60.0;
    std::size_t cost = 0;
    for (auto _ : state) {
        core::DescentSolver solver(3, options);
        const auto result = solver.solve();
        cost = result.cost;
        benchmark::DoNotOptimize(cost);
    }
    state.counters["cost"] = static_cast<double>(cost);
}
BENCHMARK(BM_DescentSolve)->UseRealTime();

void
BM_TotalizerConstruction(benchmark::State &state)
{
    const int inputs = static_cast<int>(state.range(0));
    for (auto _ : state) {
        sat::Solver solver;
        std::vector<sat::Lit> in;
        for (int i = 0; i < inputs; ++i)
            in.push_back(sat::mkLit(solver.newVar()));
        sat::Totalizer totalizer(solver, in, inputs / 4);
        benchmark::DoNotOptimize(totalizer.width());
    }
}
BENCHMARK(BM_TotalizerConstruction)->Arg(128)->Arg(512);

void
BM_MapToQubits(benchmark::State &state)
{
    const auto h = fermion::fermiHubbard1D(4, 1.0, 4.0);
    const auto bk = enc::bravyiKitaev(h.modes());
    for (auto _ : state)
        benchmark::DoNotOptimize(enc::mapToQubits(h, bk));
}
BENCHMARK(BM_MapToQubits);

void
BM_HamiltonianPauliWeight(benchmark::State &state)
{
    Rng rng(5);
    const auto h = fermion::sykModel(6, rng);
    const auto bk = enc::bravyiKitaev(h.modes());
    for (auto _ : state)
        benchmark::DoNotOptimize(
            enc::hamiltonianPauliWeight(h, bk));
}
BENCHMARK(BM_HamiltonianPauliWeight);

void
BM_AnnealingRun(benchmark::State &state)
{
    const auto h = fermion::fermiHubbard1D(4, 1.0, 4.0);
    const auto bk = enc::bravyiKitaev(h.modes());
    core::AnnealingOptions options;
    options.iterationsPerTemperature = 50;
    options.initialTemperature = 10.0;
    options.temperatureStep = 1.0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            core::annealPairing(bk, h, options));
}
BENCHMARK(BM_AnnealingRun);

void
BM_CompileTrotter(benchmark::State &state)
{
    const auto h = fermion::fermiHubbard1D(3, 1.0, 4.0);
    const auto qubit_h =
        enc::mapToQubits(h, enc::bravyiKitaev(h.modes()));
    for (auto _ : state)
        benchmark::DoNotOptimize(
            circuit::compileTrotter(qubit_h, 1.0));
}
BENCHMARK(BM_CompileTrotter);

void
BM_Eigendecompose(benchmark::State &state)
{
    const auto h = fermion::fermiHubbard1D(3, 1.0, 4.0);
    const auto qubit_h =
        enc::mapToQubits(h, enc::jordanWigner(h.modes()));
    for (auto _ : state)
        benchmark::DoNotOptimize(sim::eigendecompose(qubit_h));
}
BENCHMARK(BM_Eigendecompose);

} // namespace

BENCHMARK_MAIN();
