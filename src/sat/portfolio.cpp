#include "sat/portfolio.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <thread>

#include "common/logging.h"
#include "common/telemetry.h"
#include "common/timer.h"

namespace fermihedral::sat {

namespace {

/** LBD ceiling for clauses racing instances share. */
constexpr std::uint32_t shareMaxLbd = 2;

/** Length ceiling for clauses racing instances share. */
constexpr std::size_t shareMaxSize = 8;

} // namespace

// --------------------------------------------------------------------
// ClauseExchange
// --------------------------------------------------------------------

ClauseExchange::ClauseExchange(std::size_t instances,
                               std::uint32_t max_lbd,
                               std::size_t max_size)
    : lbdLimit(max_lbd), sizeLimit(max_size), cursors(instances, 0)
{
}

void
ClauseExchange::publish(std::size_t from,
                        std::span<const Lit> literals,
                        std::uint32_t lbd)
{
    // The ceilings are enforced here, not just at the call site:
    // a flood of long or high-LBD clauses would bloat every other
    // instance's database at each restart.
    if (literals.empty() || literals.size() > sizeLimit ||
        (literals.size() > 1 && lbd > lbdLimit)) {
        return;
    }
    const std::lock_guard<std::mutex> guard(mutex);
    // Bound the log even when an instance stalls between restarts
    // (late geometric intervals can span most of a solve, freezing
    // its cursor). Sharing is best-effort: dropping the oldest
    // half only costs stragglers clauses they were slowest to
    // fetch.
    constexpr std::size_t maxLogEntries = 1 << 14;
    if (log.size() >= maxLogEntries) {
        const std::size_t drop = log.size() / 2;
        log.erase(log.begin(),
                  log.begin() + static_cast<std::ptrdiff_t>(drop));
        totalPruned += drop;
        for (std::size_t &cursor : cursors)
            cursor = cursor > drop ? cursor - drop : 0;
    }
    log.push_back(Entry{
        from,
        SharedClause{
            std::vector<Lit>(literals.begin(), literals.end()),
            lbd}});
}

void
ClauseExchange::collect(std::size_t instance,
                        std::vector<SharedClause> &out)
{
    const std::lock_guard<std::mutex> guard(mutex);
    std::size_t &cursor = cursors[instance];
    for (; cursor < log.size(); ++cursor) {
        if (log[cursor].from != instance)
            out.push_back(log[cursor].clause);
    }
    // Prune the prefix every cursor has passed: without this the
    // append-only log grows for the lifetime of an incremental
    // descent. Cursors are offsets into `log`, so shift them too.
    const std::size_t consumed =
        *std::min_element(cursors.begin(), cursors.end());
    if (consumed > 0) {
        log.erase(log.begin(),
                  log.begin() +
                      static_cast<std::ptrdiff_t>(consumed));
        totalPruned += consumed;
        for (std::size_t &c : cursors)
            c -= consumed;
    }
}

std::uint64_t
ClauseExchange::published() const
{
    const std::lock_guard<std::mutex> guard(mutex);
    return totalPruned + log.size();
}

// --------------------------------------------------------------------
// Diversification
// --------------------------------------------------------------------

SolverConfig
PortfolioSolver::instanceConfig(std::size_t index)
{
    SolverConfig config;
    if (index == 0)
        return config; // the stock solver: plain-Solver-identical
    config.seed = 0x9e3779b97f4a7c15ull * (index + 1);
    switch (index % 4) {
    case 1:
        // Opposite default phase, geometric restarts.
        config.initialPhase = true;
        config.restartSchedule = SolverConfig::Restarts::Geometric;
        config.restartBase = 100;
        config.restartGrowth = 1.5;
        break;
    case 2:
        // Randomized phases with occasional random decisions and
        // rapid Luby restarts.
        config.randomizePhases = true;
        config.randomBranchFreq = 0.02;
        config.restartBase = 50;
        break;
    case 3:
        // Slow activity decay (more breadth), long restarts.
        config.varDecay = 0.99;
        config.restartSchedule = SolverConfig::Restarts::Geometric;
        config.restartBase = 300;
        config.restartGrowth = 2.0;
        break;
    default:
        // Stock heuristics at a different seed and restart pace.
        config.randomBranchFreq = 0.01;
        config.restartBase = 150;
        break;
    }
    return config;
}

// --------------------------------------------------------------------
// PortfolioSolver
// --------------------------------------------------------------------

PortfolioSolver::PortfolioSolver(const PortfolioOptions &options)
    : instanceCount(0),
      threadCount(ThreadPool::resolveThreadCount(
          static_cast<std::int64_t>(options.threads)))
{
    instanceCount = options.instances > 0 ? options.instances
                                          : threadCount;
    require(instanceCount >= 1, "portfolio needs an instance");
    instances.push_back(std::make_unique<Solver>(instanceConfig(0)));
}

PortfolioSolver::~PortfolioSolver() = default;

Var
PortfolioSolver::newVar()
{
    const Var var = instances.front()->newVar();
    for (std::size_t i = 1; i < instances.size(); ++i)
        instances[i]->newVar();
    return var;
}

void
PortfolioSolver::checkIncrementalLits(
    std::span<const Lit> literals) const
{
    for (const Lit lit : literals) {
        const Var var = litVar(lit);
        require(var >= 0 &&
                    static_cast<std::size_t>(var) < numVars(),
                "literal references unknown variable");
    }
}

bool
PortfolioSolver::addClause(std::span<const Lit> literals)
{
    ++clausesAdded;
    // Instances hold the same problem clauses but may have adopted
    // different shared units, so level-0 unsatisfiability can
    // surface in any one of them first.
    bool result = true;
    for (auto &instance : instances)
        result = instance->addClause(literals) && result;
    return result;
}

void
PortfolioSolver::setPolarity(Var var, bool value)
{
    for (auto &instance : instances)
        instance->setPolarity(var, value);
    if (!built())
        pendingPolarity.emplace_back(var, value);
}

void
PortfolioSolver::boostActivity(Var var, double amount)
{
    for (auto &instance : instances)
        instance->boostActivity(var, amount);
    if (!built())
        pendingActivity.emplace_back(var, amount);
}

void
PortfolioSolver::buildRacers()
{
    telemetry::TraceSpan span("portfolio.build");
    const std::vector<std::vector<Lit>> clauses =
        instances.front()->problemClausesSnapshot();
    if (span.active()) {
        span.arg("instances", instanceCount);
        span.arg("clauses", clauses.size());
    }

    // The racers are independent until the exchange connects them,
    // so construction and clause loading fan out over the pool —
    // loading a large instance N - 1 times serially would multiply
    // the first solve's wall clock by N - 1.
    const std::size_t vars = numVars();
    pool = std::make_unique<ThreadPool>(
        std::min(threadCount, instanceCount));
    instances.resize(instanceCount);
    pool->forEach(instanceCount - 1, [&](std::size_t racer) {
        const std::size_t i = racer + 1;
        auto instance =
            std::make_unique<Solver>(instanceConfig(i));
        for (std::size_t var = 0; var < vars; ++var)
            instance->newVar();
        for (const auto &[var, value] : pendingPolarity)
            instance->setPolarity(var, value);
        for (const auto &[var, amount] : pendingActivity)
            instance->boostActivity(var, amount);
        for (const auto &clause : clauses)
            instance->addClause(clause);
        instances[i] = std::move(instance);
    });

    exchange = std::make_unique<ClauseExchange>(
        instanceCount, shareMaxLbd, shareMaxSize);
    for (std::size_t i = 0; i < instanceCount; ++i)
        instances[i]->connectExchange(exchange.get(), i);

    pendingPolarity = {};
    pendingActivity = {};
}

void
PortfolioSolver::clearLearnts()
{
    for (auto &instance : instances)
        instance->clearLearnts();
}

SolveStatus
PortfolioSolver::solve(std::span<const Lit> assumptions,
                       const Budget &budget)
{
    checkIncrementalLits(assumptions);
    // An inconsistent instance 0 answers Unsat on its own, and its
    // snapshot would be a placeholder, so no racer is built for it.
    const bool race =
        instanceCount > 1 && !instances.front()->inconsistent();
    if (race && !built())
        buildRacers();
    telemetry::TraceSpan span("portfolio.solve");
    if (span.active())
        span.arg("instances", instanceCount);
    ++portfolio.solves;

    SolveStatus status = SolveStatus::Unknown;
    std::size_t winner_index = 0;
    if (!race) {
        status = instances.front()->solve(assumptions, budget);
    } else {
        std::vector<SolveStatus> results(instanceCount,
                                         SolveStatus::Unknown);
        // One shared cancellation flag: the first decisive instance
        // raises it for everyone.
        std::atomic<bool> stop{false};
        std::atomic<int> first_decisive{-1};
        Timer solve_timer;

        // Instances watch the shared flag instead of the caller's,
        // so a caller-supplied Budget::stopFlag is relayed into it
        // by a watcher that polls every 5 ms and is woken the
        // moment the race ends, so it never delays the return.
        std::mutex watcher_mutex;
        std::condition_variable watcher_wake;
        bool race_over = false;
        std::thread watcher;
        if (budget.stopFlag) {
            watcher = std::thread([&] {
                std::unique_lock lock(watcher_mutex);
                while (!race_over) {
                    if (budget.stopFlag->load(
                            std::memory_order_relaxed)) {
                        stop.store(true,
                                   std::memory_order_relaxed);
                        return;
                    }
                    watcher_wake.wait_for(
                        lock, std::chrono::milliseconds(5));
                }
            });
        }

        pool->forEach(instanceCount, [&](std::size_t i) {
            // One span per instance, recorded on the worker thread
            // that ran it: a --trace timeline shows the race.
            telemetry::TraceSpan instance_span("portfolio.instance");
            if (instance_span.active())
                instance_span.arg("instance", i);
            Budget local = budget;
            local.stopFlag = &stop;
            // The wall budget bounds this solve() call, not each
            // instance: with fewer threads than instances the
            // stragglers only get what the earlier finishers left
            // over, so the call never overshoots the caller's
            // budget by a factor of the portfolio size.
            if (budget.maxSeconds > 0) {
                local.maxSeconds =
                    budget.maxSeconds - solve_timer.seconds();
                if (local.maxSeconds <= 0) {
                    if (instance_span.active())
                        instance_span.arg("status", "skipped");
                    return; // stays Unknown
                }
            }
            const SolveStatus result =
                instances[i]->solve(assumptions, local);
            results[i] = result;
            if (instance_span.active()) {
                instance_span.arg(
                    "status",
                    result == SolveStatus::Sat
                        ? "sat"
                        : result == SolveStatus::Unsat ? "unsat"
                                                       : "unknown");
            }
            if (result == SolveStatus::Unknown)
                return;
            int expected = -1;
            if (first_decisive.compare_exchange_strong(
                    expected, static_cast<int>(i))) {
                stop.store(true, std::memory_order_relaxed);
            }
        });

        if (watcher.joinable()) {
            {
                const std::lock_guard<std::mutex> guard(
                    watcher_mutex);
                race_over = true;
            }
            watcher_wake.notify_one();
            watcher.join();
        }

        const int first = first_decisive.load();
        if (first >= 0) {
            winner_index = static_cast<std::size_t>(first);
            status = results[winner_index];
        }
    }

    portfolio.lastWinner = winner_index;
    if (span.active())
        span.arg("winner", winner_index);
    switch (status) {
    case SolveStatus::Sat:
        ++portfolio.satAnswers;
        publishModel(*instances[winner_index]);
        break;
    case SolveStatus::Unsat:
        ++portfolio.unsatAnswers;
        break;
    case SolveStatus::Unknown:
        ++portfolio.unknownAnswers;
        break;
    }
    return status;
}

void
PortfolioSolver::publishModel(const Solver &winner)
{
    fullModel.resize(numVars(), LBool::Undef);
    for (std::size_t var = 0; var < fullModel.size(); ++var)
        fullModel[var] = winner.modelValue(static_cast<Var>(var));
}

LBool
PortfolioSolver::modelValue(Var var) const
{
    if (static_cast<std::size_t>(var) >= fullModel.size())
        return LBool::Undef;
    return fullModel[var];
}

bool
PortfolioSolver::inconsistent() const
{
    return std::any_of(instances.begin(), instances.end(),
                       [](const auto &instance) {
                           return instance->inconsistent();
                       });
}

const SolverStats &
PortfolioSolver::stats() const
{
    aggregateCache = SolverStats{};
    for (const auto &instance : instances)
        aggregateCache += instance->stats();
    return aggregateCache;
}

const PortfolioStats &
PortfolioSolver::portfolioStats() const
{
    portfolio.aggregate = stats();
    portfolio.winner = instances[portfolio.lastWinner]->stats();
    return portfolio;
}

} // namespace fermihedral::sat
