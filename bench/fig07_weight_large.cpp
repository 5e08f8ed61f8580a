/**
 * @file
 * Figure 7: average Pauli weight per Majorana operator at larger
 * scale — SAT w/o algebraic independence (Sec. 4.1) vs
 * Bravyi-Kitaev, with the per-mode improvement percentage.
 *
 * The vacuum X/Y-pairing clauses are relaxed here (the paper marks
 * them optional and this experiment only scores weight), which lets
 * the solver warm-start from the ternary-tree encoding, at most one
 * above the Bound column (enc::totalWeightLowerBound per operator).
 * A descent that reaches the bound is proved optimal without an
 * UNSAT step. Defaults cover N = 9..13; raise --max-modes/--timeout
 * for the paper's 9..19.
 */

#include <cstdio>

#include "bench_util.h"
#include "common/flags.h"
#include "common/table.h"

using namespace fermihedral;

int
main(int argc, char **argv)
{
    FlagSet flags("Figure 7: per-operator weight, SAT w/o Alg.");
    const auto *min_modes =
        flags.addInt("min-modes", 9, "smallest mode count");
    const auto *max_modes =
        flags.addInt("max-modes", 13, "largest mode count");
    const auto *timeout =
        flags.addDouble("timeout", 45.0, "budget per mode count (s)");
    bench::EngineFlags::add(flags);
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    bench::banner("per-operator Pauli weight, larger scale",
                  "Figure 7");
    Table table({"Modes", "BK weight/op", "Bound weight/op",
                 "SAT w/o Alg. weight/op", "Improvement", "SAT calls",
                 "Proved"});

    for (std::int64_t n = *min_modes; n <= *max_modes; ++n) {
        const auto bk = enc::bravyiKitaev(
            static_cast<std::size_t>(n));
        const auto options = bench::descentOptions(
            bench::Config::NoAlg, *timeout / 2.0, *timeout,
            /*vacuum=*/false);
        core::DescentSolver solver(static_cast<std::size_t>(n),
                                   options);
        const auto result = solver.solve();

        const double bk_per_op = bk.weightPerOperator();
        const double bound_per_op =
            static_cast<double>(enc::totalWeightLowerBound(
                static_cast<std::size_t>(n))) /
            static_cast<double>(2 * n);
        const double sat_per_op =
            static_cast<double>(result.cost) /
            static_cast<double>(2 * n);
        table.addRow(
            {Table::num(n), Table::num(bk_per_op, 3),
             Table::num(bound_per_op, 3), Table::num(sat_per_op, 3),
             Table::percent(1.0 - sat_per_op / bk_per_op),
             Table::num(std::int64_t(result.satCalls)),
             result.provedOptimal ? "yes" : "no"});
    }
    std::printf("%s", table.render().c_str());
    std::printf("Paper reports a 17.36%% mean reduction over "
                "N = 9..19 (larger budgets improve the match).\n");
    tflags.report();
    return 0;
}
