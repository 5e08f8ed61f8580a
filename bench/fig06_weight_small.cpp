/**
 * @file
 * Figure 6: average Pauli weight per Majorana operator, small scale
 * (Full SAT vs Bravyi-Kitaev), plus the log2 regressions the paper
 * plots (BK ~ 0.73 log2 N + 0.94, optimal ~ 0.56 log2 N + 0.95).
 * The Bound column is enc::totalWeightLowerBound per operator: a
 * descent that reaches it is proved optimal without an UNSAT step.
 *
 * Defaults cover N = 1..5 in a couple of minutes; raise
 * --max-modes/--timeout to reproduce the paper's 1..8.
 */

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/table.h"

using namespace fermihedral;

int
main(int argc, char **argv)
{
    FlagSet flags("Figure 6: per-operator Pauli weight, Full SAT.");
    const auto *max_modes =
        flags.addInt("max-modes", 5, "largest mode count");
    const auto *timeout =
        flags.addDouble("timeout", 60.0, "budget per mode count (s)");
    bench::EngineFlags::add(flags);
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    bench::banner("per-operator Pauli weight, small scale",
                  "Figure 6");
    Table table({"Modes", "BK weight/op", "Bound weight/op",
                 "Full SAT weight/op", "Reduction",
                 "Proved optimal"});
    std::vector<std::pair<double, double>> bk_points, sat_points;

    for (std::int64_t n = 1; n <= *max_modes; ++n) {
        const auto bk = enc::bravyiKitaev(
            static_cast<std::size_t>(n));
        const auto options = bench::descentOptions(
            bench::Config::FullSat, *timeout / 2.0, *timeout);
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
        table.addRow({Table::num(n), Table::num(bk_per_op, 3),
                      Table::num(bound_per_op, 3),
                      Table::num(sat_per_op, 3),
                      Table::percent(1.0 - sat_per_op / bk_per_op),
                      result.provedOptimal ? "yes" : "no"});
        if (n >= 2) {
            bk_points.emplace_back(double(n), bk_per_op);
            sat_points.emplace_back(double(n), sat_per_op);
        }
    }
    std::printf("%s", table.render().c_str());

    const auto bk_fit = bench::fitLog2(bk_points);
    const auto sat_fit = bench::fitLog2(sat_points);
    std::printf("regression   BK: %.2f log2(N) + %.2f   (paper: "
                "0.73 log2(N) + 0.94)\n",
                bk_fit.a, bk_fit.b);
    std::printf("regression  SAT: %.2f log2(N) + %.2f   (paper: "
                "0.56 log2(N) + 0.95)\n",
                sat_fit.a, sat_fit.b);
    tflags.report();
    return 0;
}
