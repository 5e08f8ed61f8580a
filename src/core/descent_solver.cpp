#include "core/descent_solver.h"

#include "common/logging.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "encodings/linear.h"
#include "encodings/ternary_tree.h"

namespace fermihedral::core {

DescentSolver::DescentSolver(std::size_t modes,
                             const DescentOptions &options)
    : modes(modes), options(options)
{
}

DescentSolver::DescentSolver(
    const fermion::FermionHamiltonian &hamiltonian,
    const DescentOptions &options)
    : modes(hamiltonian.modes()), options(options),
      structure(fermion::majoranaStructure(hamiltonian))
{
}

std::unique_ptr<sat::PortfolioSolver>
DescentSolver::makeSolver() const
{
    sat::PortfolioOptions portfolio;
    portfolio.threads = options.threads;
    portfolio.instances =
        options.deterministic ? 1 : options.portfolioInstances;
    return std::make_unique<sat::PortfolioSolver>(portfolio);
}

std::size_t
DescentSolver::baselineCost(const enc::FermionEncoding &bk) const
{
    if (structure.empty())
        return bk.totalWeight();
    std::size_t total = 0;
    for (const auto &subset : structure) {
        total += subset.multiplicity *
                 enc::majoranaProduct(bk, subset.mask).weight();
    }
    return total;
}

DescentResult
DescentSolver::solve()
{
    Timer total_timer;
    telemetry::TraceSpan run_span("descent.run");
    if (run_span.active())
        run_span.arg("modes", modes);
    DescentResult result;

    const enc::FermionEncoding bk = enc::bravyiKitaev(modes);
    result.baselineCost = baselineCost(bk);

    // Start from the cheapest encoding that satisfies the active
    // constraints. BK always does; the ternary tree lacks the X/Y
    // vacuum pairing, so it only qualifies when that (optional,
    // Sec. 3.1) constraint is relaxed.
    enc::FermionEncoding start = bk;
    std::size_t start_cost = result.baselineCost;
    if (!options.vacuumPreservation) {
        const enc::FermionEncoding tt = enc::ternaryTree(modes);
        const std::size_t tt_cost = baselineCost(tt);
        if (tt_cost < start_cost) {
            start = tt;
            start_cost = tt_cost;
        }
    }
    if (options.seedEncoding &&
        options.seedEncoding->modes == modes) {
        const auto &seed = *options.seedEncoding;
        const auto validation = enc::validateEncoding(seed);
        const bool feasible =
            validation.valid() &&
            (!options.vacuumPreservation || validation.xyPairing);
        const std::size_t seed_cost = baselineCost(seed);
        if (feasible && seed_cost < start_cost) {
            start = seed;
            start_cost = seed_cost;
        }
    }
    // The starting encoding is itself feasible at start_cost, so
    // the descent can begin by asking for strictly less.
    result.encoding = start;
    result.cost = start_cost;

    // Degenerate-budget / pre-cancelled fast path: the start
    // encoding is already the answer, so skip solver and model
    // construction entirely. This keeps a zero-deadline request
    // deterministic (and cheap) instead of racing the construction
    // against the clock.
    const auto stop_requested = [this] {
        return options.stopFlag &&
               options.stopFlag->load(std::memory_order_relaxed);
    };
    if (start_cost > 0 &&
        (stop_requested() || options.totalTimeoutSeconds <= 0.0)) {
        result.termination = stop_requested()
                                 ? DescentTermination::Cancelled
                                 : DescentTermination::BudgetExhausted;
        if (run_span.active()) {
            run_span.arg("cost", result.cost);
            run_span.arg("sat_calls", result.satCalls);
            run_span.arg("proved_optimal", result.provedOptimal);
        }
        lastResult = result;
        return result;
    }

    // Building the model loads it into the solver clause by clause,
    // so the loop's first stop check runs right after the load.
    Timer construct_timer;
    solver = makeSolver();
    EncodingModelOptions model_options;
    model_options.modes = modes;
    model_options.algebraicIndependence =
        options.algebraicIndependence;
    model_options.vacuumPreservation = options.vacuumPreservation;
    model_options.hamiltonianStructure = structure;
    model_options.costCap = std::max<std::size_t>(start_cost, 1);
    model = std::make_unique<EncodingModel>(*solver, model_options);
    if (options.warmStart)
        model->warmStart(start);
    result.constructSeconds = construct_timer.seconds();
    result.numVars = solver->numVars();
    result.numClauses = solver->numClauses();

    // Descent loop (Algorithm 1): each round permanently bounds the
    // cost one below the best known solution. A total-weight search
    // also ends at the Pauli-weight lower bound, where a cheaper
    // encoding cannot exist; no sound bound is known for Eq. 14.
    const std::size_t floor =
        structure.empty() ? enc::totalWeightLowerBound(modes) : 0;
    std::size_t best = start_cost;
    auto &step_seconds = telemetry::MetricsRegistry::global()
                             .histogram("descent.step_seconds");
    Timer solve_timer;
    while (best > floor) {
        if (stop_requested()) {
            result.termination = DescentTermination::Cancelled;
            break;
        }
        const double elapsed = solve_timer.seconds();
        const double remaining =
            options.totalTimeoutSeconds - elapsed;
        if (remaining <= 0) {
            result.termination =
                DescentTermination::BudgetExhausted;
            break;
        }
        const std::size_t asked = best - 1;
        telemetry::TraceSpan span("descent.bound");
        if (span.active())
            span.arg("bound", asked);
        model->boundCostAtMost(asked);

        sat::Budget budget;
        budget.maxSeconds =
            std::min(options.stepTimeoutSeconds, remaining);
        budget.stopFlag = options.stopFlag;
        const Timer step_timer;
        const sat::SolveStatus status = solver->solve({}, budget);
        ++result.satCalls;
        step_seconds.record(step_timer.seconds());

        bool stop = false;
        if (status == sat::SolveStatus::Sat) {
            const enc::FermionEncoding candidate = model->decode();
            const std::size_t cost = model->costOf(candidate);
            require(cost < best, "SAT model violated cost bound: ",
                    cost, " >= ", best);
            result.encoding = candidate;
            result.cost = cost;
            best = cost;
            result.trajectory.emplace_back(cost,
                                           total_timer.seconds());
            // Carry-over is the default: the bound only tightens, so
            // every learnt clause stays sound. Dropping them here
            // isolates each step (the measurement baseline, and a
            // debugging aid).
            if (!options.carryLearnts)
                solver->clearLearnts();
        } else if (status == sat::SolveStatus::Unsat) {
            result.provedOptimal = true;
            stop = true;
        } else {
            // Budget expired without an answer — distinguish the
            // caller's stop flag from a plain timeout so the
            // serving layer can report Cancelled vs best-so-far.
            result.termination =
                stop_requested()
                    ? DescentTermination::Cancelled
                    : DescentTermination::BudgetExhausted;
            stop = true;
        }

        if (span.active()) {
            span.arg("status",
                     status == sat::SolveStatus::Sat
                         ? "sat"
                         : status == sat::SolveStatus::Unsat
                               ? "unsat"
                               : "unknown");
            span.arg("best_cost", best);
            span.arg(
                "conflicts",
                solver->portfolioStats().aggregate.conflicts);
        }
        if (options.progress) {
            DescentProgress report;
            report.bound = asked;
            report.bestCost = result.cost;
            report.satCalls = result.satCalls;
            report.elapsedSeconds = solve_timer.seconds();
            report.status = status;
            report.conflicts =
                solver->portfolioStats().aggregate.conflicts;
            options.progress(report);
        }
        if (stop)
            break;
    }
    if (best <= floor)
        result.provedOptimal = true;
    result.solveSeconds = solve_timer.seconds();
    result.satStats = solver->portfolioStats();
    if (run_span.active()) {
        run_span.arg("cost", result.cost);
        run_span.arg("sat_calls", result.satCalls);
        run_span.arg("proved_optimal", result.provedOptimal);
    }
    lastResult = result;
    return result;
}

std::vector<enc::FermionEncoding>
DescentSolver::enumerateOptimal(std::size_t count,
                                double timeout_seconds)
{
    // Calling out of order is a user error (the caller skipped a
    // documented step), not a library bug: report it as a fatal
    // diagnostic like FlagSet does for malformed flag values.
    if (!lastResult.has_value())
        fatal("DescentSolver::enumerateOptimal() requires a "
              "completed solve() first (documented precondition)");
    std::vector<enc::FermionEncoding> encodings;
    if (lastResult->cost == 0 || !model)
        return encodings;

    // Relax the bound back to the optimum (the descent left a bound
    // of best - 1 asserted, so re-solve at exactly `cost` using the
    // assumption-free model with a fresh solver would be costly;
    // instead rebuild once at the optimal bound).
    Timer timer;
    solver = makeSolver();
    EncodingModelOptions model_options;
    model_options.modes = modes;
    model_options.algebraicIndependence =
        options.algebraicIndependence;
    model_options.vacuumPreservation = options.vacuumPreservation;
    model_options.hamiltonianStructure = structure;
    model_options.costCap =
        std::max<std::size_t>(lastResult->cost, 1);
    model = std::make_unique<EncodingModel>(*solver, model_options);
    model->boundCostAtMost(lastResult->cost);
    if (options.warmStart)
        model->warmStart(lastResult->encoding);

    while (encodings.size() < count) {
        const double remaining = timeout_seconds - timer.seconds();
        if (remaining <= 0)
            break;
        sat::Budget budget;
        budget.maxSeconds = remaining;
        if (solver->solve({}, budget) != sat::SolveStatus::Sat)
            break;
        encodings.push_back(model->decode());
        model->blockCurrentSolution();
    }
    return encodings;
}

} // namespace fermihedral::core
