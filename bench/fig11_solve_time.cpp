/**
 * @file
 * Figure 11: time to construct and to solve the encoding problem
 * with vs without the algebraic independence clauses, and the
 * resulting speedups. As in the paper, the time the solver spends
 * proving that no cheaper encoding exists is excluded: "solving"
 * is the time until the best model was found.
 *
 * On top of the paper's figure this binary exposes the SAT engine:
 * --threads/--instances/--racing select the portfolio
 * configuration, a second table reports per-run solver statistics
 * (propagations, conflicts, learnt literals, collections), and
 * --json dumps everything as a machine-readable artifact for CI
 * trend tracking.
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "common/flags.h"
#include "common/json_writer.h"
#include "common/parallel.h"
#include "common/table.h"

using namespace fermihedral;

namespace {

struct Measurement
{
    double construct = 0.0;
    double solve = 0.0;
    double totalSolve = 0.0;
    core::DescentResult result;
};

Measurement
run(std::size_t modes, bench::Config config, double timeout)
{
    // Same paper configuration the other benches use, with the
    // registered EngineFlags overlay applied by descentOptions().
    const core::DescentOptions options =
        bench::descentOptions(config, timeout / 2.0, timeout);
    core::DescentSolver solver(modes, options);
    Measurement m;
    m.result = solver.solve();
    m.construct = m.result.constructSeconds;
    // Exclude the final UNSAT/timeout round: take the time of the
    // last improving model (the paper's convention).
    m.solve = m.result.trajectory.empty()
                  ? m.result.solveSeconds
                  : m.result.trajectory.back().second;
    m.totalSolve = m.result.solveSeconds;
    return m;
}

std::string
trajectoryString(const core::DescentResult &result)
{
    std::string out;
    for (const auto &[cost, seconds] : result.trajectory) {
        if (!out.empty())
            out += ' ';
        out += std::to_string(cost);
        out += '@';
        out += Table::num(seconds, 3);
        out += 's';
    }
    return out.empty() ? std::string("(baseline only)") : out;
}

void
appendRunJson(std::string &json, const char *label,
              std::int64_t modes, const Measurement &m)
{
    const auto &r = m.result;
    const auto &s = r.satStats;
    JsonWriter w;
    w.beginObject()
        .member("label", label)
        .member("modes", modes)
        .member("cost", r.cost)
        .member("baseline_cost", r.baselineCost)
        .member("proved_optimal", r.provedOptimal)
        .member("sat_calls", r.satCalls)
        .member("construct_s", m.construct)
        .member("time_to_best_s", m.solve)
        .member("solve_s", m.totalSolve)
        .member("vars", r.numVars)
        .member("clauses", r.numClauses)
        .member("propagations", s.aggregate.propagations)
        .member("conflicts", s.aggregate.conflicts)
        .member("learnt_literals", s.aggregate.learntLiterals)
        .member("shared_out", s.aggregate.sharedOut)
        .member("gc_runs", s.aggregate.garbageCollects)
        .member("reclaimed_words", s.aggregate.reclaimedWords)
        .member("cleared_learnts", s.aggregate.clearedLearnts)
        .member("last_winner", s.lastWinner)
        .endObject();
    if (json.back() != '[')
        json += ',';
    json += "\n  ";
    json += w.take();
}

} // namespace

int
main(int argc, char **argv)
{
    FlagSet flags("Figure 11: construct/solve time w/ and w/o "
                  "algebraic independence, with SAT-engine "
                  "statistics.");
    const auto *max_modes =
        flags.addInt("max-modes", 5, "largest mode count");
    const auto *timeout =
        flags.addDouble("timeout", 60.0, "budget per run (s)");
    const auto engine = bench::EngineFlags::add(flags);
    const auto *json_path = flags.addString(
        "json", "", "write run statistics to this JSON file");
    const auto tflags = telemetry::TelemetryFlags::add(flags);
    if (!flags.parse(argc, argv))
        return 0;
    tflags.arm();

    std::string json = "[";

    bench::banner("time to construct and solve", "Figure 11");
    Table table({"Modes", "Construct w/ (s)", "Construct w/o (s)",
                 "Speedup", "Solve w/ (s)", "Solve w/o (s)",
                 "Speedup", "Same cost?"});
    Table stats({"Modes", "Config", "Props", "Conflicts",
                 "Learnt lits", "GCs", "SAT calls",
                 "Cost@walltime"});

    // Discarded warmup: the first descent of the process pays the
    // allocator and page-fault costs, which at N=2/3 are the same
    // order as the measured solve itself.
    (void)run(2, bench::Config::NoAlg, *timeout);

    for (std::int64_t n = 2; n <= *max_modes; ++n) {
        const auto with = run(static_cast<std::size_t>(n),
                              bench::Config::FullSat, *timeout);
        const auto without = run(static_cast<std::size_t>(n),
                                 bench::Config::NoAlg, *timeout);
        auto speedup = [](double a, double b) {
            return b > 1e-9 ? Table::num(a / b, 1) + "x"
                            : std::string("-");
        };
        table.addRow(
            {Table::num(n), Table::num(with.construct, 4),
             Table::num(without.construct, 4),
             speedup(with.construct, without.construct),
             Table::num(with.solve, 4),
             Table::num(without.solve, 4),
             speedup(with.solve, without.solve),
             with.result.cost == without.result.cost ? "yes"
                                                     : "no"});
        for (const auto *m : {&with, &without}) {
            const auto &s = m->result.satStats;
            stats.addRow(
                {Table::num(n), m == &with ? "w/ alg" : "w/o alg",
                 Table::num(std::int64_t(
                     s.aggregate.propagations)),
                 Table::num(std::int64_t(s.aggregate.conflicts)),
                 Table::num(std::int64_t(
                     s.aggregate.learntLiterals)),
                 Table::num(std::int64_t(
                     s.aggregate.garbageCollects)),
                 Table::num(std::int64_t(m->result.satCalls)),
                 trajectoryString(m->result)});
        }
        appendRunJson(json, "full_sat", n, with);
        appendRunJson(json, "no_alg", n, without);
    }
    std::printf("%s", table.render().c_str());
    std::printf("Dropping the 4^N independence clauses should give "
                "growing construct and solve speedups while the "
                "optimal cost stays identical (Sec. 4.1).\n\n");
    std::printf("%s", stats.render().c_str());
    // Without --racing one instance runs, whatever --threads and
    // --instances say; the portfolio never uses more threads than
    // it has instances.
    const std::size_t resolved_threads =
        ThreadPool::resolveThreadCount(*engine.threads);
    const std::size_t resolved_instances =
        !*engine.racing ? 1
        : *engine.instances > 0
            ? static_cast<std::size_t>(*engine.instances)
            : resolved_threads;
    std::printf("Engine: %zu instance(s) on %zu thread(s), %s, "
                "carry-over %s.\n",
                resolved_instances,
                std::min(resolved_threads, resolved_instances),
                *engine.racing ? "racing" : "deterministic",
                *engine.carry ? "on" : "off");

    json += "\n]\n";
    if (!json_path->empty()) {
        std::FILE *f = std::fopen(json_path->c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         json_path->c_str());
            tflags.report();
            return 1;
        }
        std::fputs(json.c_str(), f);
        std::fclose(f);
        std::fprintf(stderr, "wrote %s\n", json_path->c_str());
    }
    tflags.report();
    return 0;
}
