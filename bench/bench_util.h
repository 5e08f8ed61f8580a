/**
 * @file
 * Shared helpers for the per-table / per-figure bench binaries.
 *
 * Every binary prints the same rows/series the paper reports; the
 * helpers here standardise the solve configurations the paper calls
 * Full SAT, SAT w/o Alg. and SAT + Anl., with CLI-adjustable
 * budgets so the full paper ranges can be reproduced when more time
 * is available.
 */

#ifndef FERMIHEDRAL_BENCH_BENCH_UTIL_H
#define FERMIHEDRAL_BENCH_BENCH_UTIL_H

#include <cstdio>

#include "api/compiler.h"
#include "common/flags.h"
#include "common/telemetry_flags.h"
#include "core/annealing.h"
#include "core/descent_solver.h"
#include "encodings/linear.h"
#include "fermion/models.h"
#include "hw/topology_flags.h"

namespace fermihedral::bench {

/**
 * The shared SAT-engine flags: every descent-running binary
 * registers the same portfolio and descent knobs with one
 * EngineFlags::add(flags) call. Registration also arms an active
 * overlay that descentOptions() and compilationRequest() apply, so
 * the knobs reach every descent in the binary without threading
 * them through each call site.
 */
struct EngineFlags
{
    const std::int64_t *threads = nullptr;
    const std::int64_t *instances = nullptr;
    const bool *racing = nullptr;
    const bool *carry = nullptr;
    const double *deadlineSeconds = nullptr;
    hw::TopologyFlags topology;

    static EngineFlags
    add(FlagSet &flags)
    {
        EngineFlags engine;
        engine.threads = flags.addInt(
            "threads", 1,
            "solver threads per SAT step with --racing "
            "(0 = hardware)");
        engine.instances = flags.addInt(
            "instances", 0,
            "portfolio instances with --racing "
            "(0 = one per thread)");
        engine.racing = flags.addBool(
            "racing", false,
            "race diversified instances with clause sharing, first "
            "finisher wins (faster, but winner may vary run to run; "
            "without it one instance runs)");
        engine.carry = flags.addBool(
            "carry", true,
            "keep learnt clauses across descent steps "
            "(=false clears them after every SAT call)");
        engine.deadlineSeconds = flags.addDouble(
            "deadline-seconds", 0.0,
            "wall-clock deadline per compilation (<= 0 = none); "
            "past it the pipeline degrades to its best-so-far "
            "encoding with status deadline-exceeded");
        engine.topology = hw::TopologyFlags::add(flags);
        storage() = engine;
        return engine;
    }

    /** The engine knobs the flags select. */
    core::EngineOptions
    engine() const
    {
        core::EngineOptions options;
        options.threads = static_cast<std::size_t>(
            *threads < 0 ? 0 : *threads);
        options.portfolioInstances = static_cast<std::size_t>(
            *instances < 0 ? 0 : *instances);
        options.deterministic = !*racing;
        options.carryLearnts = *carry;
        return options;
    }

    void
    apply(core::DescentOptions &options) const
    {
        static_cast<core::EngineOptions &>(options) = engine();
    }

    void
    apply(api::CompilationRequest &request) const
    {
        static_cast<core::EngineOptions &>(request) = engine();
        // Deadlines are a facade/service-level contract; the raw
        // DescentOptions overload deliberately has no equivalent.
        request.deadlineSeconds = *deadlineSeconds;
        // A --topology/--topology-file flag makes every request in
        // the binary hardware-aware: an Auto objective resolves to
        // routed-cost and costs become routed estimates.
        if (auto resolved = topology.resolve())
            request.topology = *std::move(resolved);
    }

    /** The overlay armed by add(), if any (one per binary). */
    static const EngineFlags *
    active()
    {
        return storage().threads ? &storage() : nullptr;
    }

  private:
    static EngineFlags &
    storage()
    {
        static EngineFlags registered;
        return registered;
    }
};

/** Paper configuration names (Sec. 5.1). */
enum class Config
{
    FullSat,  // all constraints in SAT
    NoAlg,    // algebraic independence dropped (Sec. 4.1)
};

/**
 * The --progress observer: one stderr line per descent bound.
 * Diagnostics stay off stdout, which the benches reserve for the
 * tables and series they print.
 */
inline std::function<void(const core::DescentProgress &)>
progressPrinter()
{
    return [](const core::DescentProgress &p) {
        const char *status =
            p.status == sat::SolveStatus::Sat
                ? "sat"
                : p.status == sat::SolveStatus::Unsat ? "unsat"
                                                      : "unknown";
        std::fprintf(stderr,
                     "progress: bound=%zu best=%zu calls=%zu "
                     "conflicts=%llu t=%.2fs %s\n",
                     p.bound, p.bestCost, p.satCalls,
                     static_cast<unsigned long long>(p.conflicts),
                     p.elapsedSeconds, status);
    };
}

/** Attach the --progress observer when the flag asked for one. */
template <typename OptionsOrRequest>
inline void
applyProgressFlag(OptionsOrRequest &target)
{
    const auto *flags = telemetry::TelemetryFlags::active();
    if (flags && flags->progressRequested())
        target.progress = progressPrinter();
}

/**
 * Descent options for one of the paper's configurations: Algorithm
 * 1 from Bravyi-Kitaev (the paper's w0), without the paired-tree
 * start that would prove every total-weight row before its first
 * SAT step.
 */
inline core::DescentOptions
descentOptions(Config config, double step_timeout,
               double total_timeout, bool vacuum = true)
{
    core::DescentOptions options;
    options.algebraicIndependence = config == Config::FullSat;
    options.pairedTreeStart = false;
    options.vacuumPreservation = vacuum;
    options.stepTimeoutSeconds = step_timeout;
    options.totalTimeoutSeconds = total_timeout;
    if (const EngineFlags *engine = EngineFlags::active())
        engine->apply(options);
    applyProgressFlag(options);
    return options;
}

/**
 * A facade request for one of the paper's configurations. The
 * pipeline the old per-binary glue duplicated (independent descent
 * -> Algorithm 2 annealing -> seeded dependent descent) now lives
 * behind the "sat"/"sat-noalg" strategies; attach a Hamiltonian to
 * run it, leave `hamiltonian` empty for the independent search.
 * Both names run one search without the independence clauses, so
 * the two configurations differ only in their labels here; the
 * DescentOptions overload above keeps Full SAT's family.
 */
inline api::CompilationRequest
compilationRequest(Config config, double step_timeout,
                   double total_timeout, bool vacuum = true)
{
    api::CompilationRequest request;
    request.strategy =
        config == Config::FullSat ? "sat" : "sat-noalg";
    request.algebraicIndependence = config == Config::FullSat;
    request.vacuumPreservation = vacuum;
    request.stepTimeoutSeconds = step_timeout;
    request.totalTimeoutSeconds = total_timeout;
    if (const EngineFlags *engine = EngineFlags::active())
        engine->apply(request);
    applyProgressFlag(request);
    return request;
}

/** Least-squares fit y = a * log2(x) + b over positive samples. */
struct LogFit
{
    double a = 0.0;
    double b = 0.0;
};

inline LogFit
fitLog2(const std::vector<std::pair<double, double>> &points)
{
    double sx = 0, sy = 0, sxx = 0, sxy = 0;
    for (const auto &[x, y] : points) {
        const double lx = std::log2(x);
        sx += lx;
        sy += y;
        sxx += lx * lx;
        sxy += lx * y;
    }
    const double n = static_cast<double>(points.size());
    LogFit fit;
    const double denom = n * sxx - sx * sx;
    if (std::abs(denom) > 1e-12) {
        fit.a = (n * sxy - sx * sy) / denom;
        fit.b = (sy - fit.a * sx) / n;
    }
    return fit;
}

/** Print a standard bench banner. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("=== Fermihedral repro bench: %s (%s) ===\n", what,
                paper_ref);
}

} // namespace fermihedral::bench

#endif // FERMIHEDRAL_BENCH_BENCH_UTIL_H
