/**
 * @file
 * Compile a Fermi-Hubbard time-evolution circuit under different
 * encoding strategies and compare the circuit costs — the workload
 * the paper's introduction motivates for condensed-matter
 * simulation. All encodings come from the Compiler facade; with
 * --cache-dir repeated runs reuse the solved encodings.
 *
 * Usage: hubbard_compile [--sites=3] [--t=1] [--u=4]
 *                        [--timeout=45] [--time=1.0]
 *                        [--cache-dir=PATH]
 *                        [--cache-stats-json=FILE]
 */

#include <cstdio>
#include <fstream>

#include "api/service.h"
#include "circuit/pauli_compiler.h"
#include "common/flags.h"
#include "common/telemetry_flags.h"
#include "common/table.h"
#include "fermion/models.h"

using namespace fermihedral;

namespace {

void
addRow(Table &table, const char *name,
       const api::CompilationResult &result, double time)
{
    const auto costs =
        circuit::compileTrotter(result.qubitHamiltonian, time)
            .costs();
    table.addRow(
        {name, Table::num(std::int64_t(result.cost)),
         Table::num(std::int64_t(result.qubitHamiltonian.size())),
         Table::num(std::int64_t(costs.singleQubitGates)),
         Table::num(std::int64_t(costs.cnotGates)),
         Table::num(std::int64_t(costs.totalGates)),
         Table::num(std::int64_t(costs.depth))});
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("Compile Fermi-Hubbard circuits per encoding.");
    const auto *sites = flags.addInt("sites", 3, "ring sites");
    const auto *t = flags.addDouble("t", 1.0, "hopping amplitude");
    const auto *u = flags.addDouble("u", 4.0, "on-site repulsion");
    const auto *timeout =
        flags.addDouble("timeout", 45.0, "SAT budget (s)");
    const auto *time =
        flags.addDouble("time", 1.0, "evolution time");
    const auto *cache_dir = flags.addString(
        "cache-dir", "", "on-disk encoding cache directory");
    const auto *stats_json = flags.addString(
        "cache-stats-json", "",
        "write cache statistics to this JSON file");
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    const auto h = fermion::fermiHubbard1D(
        static_cast<std::size_t>(*sites), *t, *u);
    std::printf("1-D Fermi-Hubbard ring: %lld sites, %zu modes, "
                "%zu terms\n",
                static_cast<long long>(*sites), h.modes(),
                h.termCount());

    api::ServiceOptions service_options;
    service_options.diskCachePath = *cache_dir;
    api::CompilerService service(service_options);

    api::CompilationRequest request;
    request.hamiltonian = h;
    request.stepTimeoutSeconds = *timeout / 3.0;
    request.totalTimeoutSeconds = *timeout;

    Table table({"Encoding", "Ham. weight", "Pauli terms", "Single",
                 "CNOT", "Total", "Depth"});
    struct Entry
    {
        const char *label;
        const char *strategy;
    };
    const Entry entries[] = {
        {"Jordan-Wigner", "jordan-wigner"},
        {"Bravyi-Kitaev", "bravyi-kitaev"},
        {"SAT+Anl.", "sat+annealing"},
        {"SAT", "sat"},
    };
    api::CompilationResult annealed;
    for (const auto &entry : entries) {
        request.strategy = entry.strategy;
        auto result = service.compile(request);
        addRow(table, entry.label, result, *time);
        if (request.strategy == std::string("sat+annealing"))
            annealed = std::move(result);
    }
    std::printf("\n%s", table.render().c_str());
    std::printf("sat+annealing: Hamiltonian Pauli weight %zu "
                "(BK baseline %zu)\n",
                annealed.annealedCost, annealed.baselineCost);

    const auto stats = service.cacheStats();
    std::printf("cache: %zu hits (%zu from disk), %zu misses, "
                "%zu computes\n",
                stats.hits, stats.diskHits, stats.misses,
                stats.computes);
    if (!stats_json->empty()) {
        std::ofstream out(*stats_json);
        out << service.cacheStatsJson() << '\n';
    }
    tflags.report();
    return 0;
}
