#include "sat/solver.h"

#include <algorithm>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "common/timer.h"
#include "sat/portfolio.h"

namespace fermihedral::sat {

Solver::Solver(const SolverConfig &config)
    : heap(config.varDecay), config(config), rng(config.seed)
{
}

// --------------------------------------------------------------------
// Watches
// --------------------------------------------------------------------

void
Solver::attachClause(ClauseRef ref)
{
    const Lit *lits = arena.lits(ref);
    const std::uint32_t size = arena.size(ref);
    require(size >= 2, "attaching clause of size < 2");
    auto &lists = size == 2 ? binWatches : watches;
    lists[(~lits[0]).code].push_back(Watcher{ref, lits[1]});
    lists[(~lits[1]).code].push_back(Watcher{ref, lits[0]});
}

void
Solver::detachClause(ClauseRef ref)
{
    const Lit *lits = arena.lits(ref);
    auto &lists = arena.size(ref) == 2 ? binWatches : watches;
    for (int w = 0; w < 2; ++w) {
        auto &list = lists[(~lits[w]).code];
        for (std::size_t i = 0; i < list.size(); ++i) {
            if (list[i].cref == ref) {
                list[i] = list.back();
                list.pop_back();
                break;
            }
        }
    }
}

// --------------------------------------------------------------------
// Variables / assignments
// --------------------------------------------------------------------

Var
Solver::newVar()
{
    const Var var = static_cast<Var>(assigns.size());
    assigns.push_back(LBool::Undef);
    varLevel.push_back(0);
    varReason.push_back(crefUndef);
    // Saved-phase convention: polarity[v] == 1 branches negative
    // (the MiniSat default); the config may flip or randomize it.
    const bool phase = config.randomizePhases ? rng.nextBool()
                                              : config.initialPhase;
    polarity.push_back(phase ? 0 : 1);
    seen.push_back(0);
    watches.emplace_back();
    watches.emplace_back();
    binWatches.emplace_back();
    binWatches.emplace_back();
    heap.grow();
    return var;
}

void
Solver::uncheckedEnqueue(Lit lit, ClauseRef reason)
{
    const Var var = litVar(lit);
    require(assigns[var] == LBool::Undef,
            "enqueue of an already assigned variable");
    assigns[var] = litSign(lit) ? LBool::False : LBool::True;
    varLevel[var] = decisionLevel();
    varReason[var] = reason;
    trail.push_back(lit);
}

void
Solver::cancelUntil(std::uint32_t level)
{
    if (decisionLevel() <= level)
        return;
    const std::uint32_t keep = trailLim[level];
    for (std::size_t i = trail.size(); i-- > keep;) {
        const Lit lit = trail[i];
        const Var var = litVar(lit);
        assigns[var] = LBool::Undef;
        polarity[var] = litSign(lit); // phase saving
        varReason[var] = crefUndef;
        heap.insert(var);
    }
    trail.resize(keep);
    trailLim.resize(level);
    qhead = trail.size();
}

// --------------------------------------------------------------------
// Propagation
// --------------------------------------------------------------------

ClauseRef
Solver::propagate()
{
    ClauseRef conflict = crefUndef;
    while (qhead < trail.size()) {
        // Clauses watching literal L are registered under ~L, so
        // the clauses to inspect when p became true live at p.code.
        const Lit p = trail[qhead++];
        ++statistics.propagations;

        // Binary chains first: the watcher carries the implied
        // literal, so the whole scan runs without touching the
        // arena. Binary watch lists never move (both literals are
        // watched permanently), so plain iteration is safe even as
        // the trail grows underneath.
        for (const Watcher &w : binWatches[p.code]) {
            const LBool val = value(w.blocker);
            if (val == LBool::True)
                continue;
            if (val == LBool::False) {
                conflict = w.cref;
                break;
            }
            uncheckedEnqueue(w.blocker, w.cref);
        }
        if (conflict != crefUndef) {
            qhead = trail.size();
            break;
        }

        auto &ws = watches[p.code];
        std::size_t i = 0, j = 0;
        while (i < ws.size()) {
            const Watcher w = ws[i];
            if (value(w.blocker) == LBool::True) {
                ws[j++] = ws[i++];
                continue;
            }
            const ClauseRef cref = w.cref;
            Lit *lits = arena.lits(cref);
            const std::uint32_t size = arena.size(cref);
            const Lit false_lit = ~p;
            if (lits[0] == false_lit)
                std::swap(lits[0], lits[1]);
            ++i;

            const Lit first = lits[0];
            const Watcher updated{cref, first};
            if (first != w.blocker && value(first) == LBool::True) {
                ws[j++] = updated;
                continue;
            }

            bool found_watch = false;
            for (std::uint32_t k = 2; k < size; ++k) {
                if (value(lits[k]) != LBool::False) {
                    lits[1] = lits[k];
                    lits[k] = false_lit;
                    watches[(~lits[1]).code].push_back(updated);
                    found_watch = true;
                    break;
                }
            }
            if (found_watch)
                continue;

            // Clause is unit or conflicting under the current trail.
            ws[j++] = updated;
            if (value(first) == LBool::False) {
                conflict = cref;
                qhead = trail.size();
                while (i < ws.size())
                    ws[j++] = ws[i++];
            } else {
                uncheckedEnqueue(first, cref);
            }
        }
        ws.resize(j);
        if (conflict != crefUndef)
            break;
    }
    return conflict;
}

// --------------------------------------------------------------------
// Decision heuristic
// --------------------------------------------------------------------

Lit
Solver::pickBranchLit()
{
    // Occasional random decisions diversify portfolio instances
    // away from pure EVSIDS order (never taken at the default
    // randomBranchFreq of 0, keeping the solo solver deterministic
    // in its call sequence alone).
    if (config.randomBranchFreq > 0.0 && !heap.empty() &&
        rng.nextDouble() < config.randomBranchFreq) {
        const Var var = heap.at(rng.nextBelow(heap.size()));
        if (assigns[var] == LBool::Undef)
            return mkLit(var, polarity[var]);
    }
    while (!heap.empty()) {
        const Var var = heap.pop();
        if (assigns[var] == LBool::Undef)
            return mkLit(var, polarity[var]);
    }
    return litUndef;
}

// --------------------------------------------------------------------
// Conflict analysis
// --------------------------------------------------------------------

std::uint32_t
Solver::computeLbd(std::span<const Lit> literals)
{
    // Number of distinct decision levels in the clause ("glue").
    static thread_local std::vector<std::uint32_t> mark;
    static thread_local std::uint32_t stamp = 0;
    if (mark.size() < varLevel.size() + 1)
        mark.resize(varLevel.size() + 1, 0);
    ++stamp;
    std::uint32_t lbd = 0;
    for (const Lit lit : literals) {
        const std::uint32_t lvl = varLevel[litVar(lit)];
        if (mark[lvl] != stamp) {
            mark[lvl] = stamp;
            ++lbd;
        }
    }
    return lbd;
}

void
Solver::analyze(ClauseRef conflict, std::vector<Lit> &out_learnt,
                std::uint32_t &out_btlevel, std::uint32_t &out_lbd)
{
    out_learnt.clear();
    out_learnt.push_back(litUndef); // slot for the asserting literal

    Lit p = litUndef;
    int path_count = 0;
    std::size_t index = trail.size() - 1;
    ClauseRef cref = conflict;

    do {
        require(cref != crefUndef, "analyze reached a decision");
        if (arena.learnt(cref))
            claBumpActivity(cref);
        const Lit *lits = arena.lits(cref);
        const std::uint32_t size = arena.size(cref);
        for (std::uint32_t k = 0; k < size; ++k) {
            const Lit q = lits[k];
            const Var v = litVar(q);
            // Skip the literal this clause propagated. Binary
            // watchers enqueue the blocker without normalising the
            // stored literal order, so it is matched by variable,
            // not by position.
            if (p != litUndef && v == litVar(p))
                continue;
            if (!seen[v] && varLevel[v] > 0) {
                heap.bump(v);
                seen[v] = 1;
                if (varLevel[v] >= decisionLevel())
                    ++path_count;
                else
                    out_learnt.push_back(q);
            }
        }
        // Find the next marked literal on the trail.
        while (!seen[litVar(trail[index])])
            --index;
        p = trail[index];
        --index;
        cref = varReason[litVar(p)];
        seen[litVar(p)] = 0;
        --path_count;
    } while (path_count > 0);
    out_learnt[0] = ~p;

    // Clause minimization: drop literals implied by the rest.
    analyzeToClear = out_learnt;
    std::uint32_t abstract_levels = 0;
    for (std::size_t i = 1; i < out_learnt.size(); ++i)
        abstract_levels |=
            1u << (varLevel[litVar(out_learnt[i])] & 31);
    std::size_t keep = 1;
    for (std::size_t i = 1; i < out_learnt.size(); ++i) {
        const Lit lit = out_learnt[i];
        if (varReason[litVar(lit)] == crefUndef ||
            !litRedundant(lit, abstract_levels)) {
            out_learnt[keep++] = lit;
        }
    }
    statistics.learntLiterals += keep;
    out_learnt.resize(keep);

    // Backtrack level: highest level among the non-asserting lits.
    if (out_learnt.size() == 1) {
        out_btlevel = 0;
    } else {
        std::size_t max_i = 1;
        for (std::size_t i = 2; i < out_learnt.size(); ++i) {
            if (varLevel[litVar(out_learnt[i])] >
                varLevel[litVar(out_learnt[max_i])]) {
                max_i = i;
            }
        }
        std::swap(out_learnt[1], out_learnt[max_i]);
        out_btlevel = varLevel[litVar(out_learnt[1])];
    }
    out_lbd = computeLbd(out_learnt);

    for (const Lit lit : analyzeToClear)
        seen[litVar(lit)] = 0;
    analyzeToClear.clear();
}

bool
Solver::litRedundant(Lit lit, std::uint32_t abstract_levels)
{
    static thread_local std::vector<Lit> stack;
    stack.clear();
    stack.push_back(lit);
    const std::size_t top = analyzeToClear.size();
    while (!stack.empty()) {
        const Lit q = stack.back();
        stack.pop_back();
        const ClauseRef cref = varReason[litVar(q)];
        require(cref != crefUndef, "litRedundant on decision");
        const Lit *lits = arena.lits(cref);
        const std::uint32_t size = arena.size(cref);
        for (std::uint32_t k = 0; k < size; ++k) {
            const Lit l = lits[k];
            const Var v = litVar(l);
            // As in analyze(): skip the propagated literal by
            // variable (binary reasons are not position-normalised).
            if (v == litVar(q))
                continue;
            if (seen[v] || varLevel[v] == 0)
                continue;
            if (varReason[v] != crefUndef &&
                ((1u << (varLevel[v] & 31)) & abstract_levels)) {
                seen[v] = 1;
                stack.push_back(l);
                analyzeToClear.push_back(l);
            } else {
                for (std::size_t j = top; j < analyzeToClear.size();
                     ++j) {
                    seen[litVar(analyzeToClear[j])] = 0;
                }
                analyzeToClear.resize(top);
                return false;
            }
        }
    }
    return true;
}

// --------------------------------------------------------------------
// Clause database
// --------------------------------------------------------------------

void
Solver::claBumpActivity(ClauseRef ref)
{
    float act = arena.activity(ref) + static_cast<float>(claInc);
    if (act > 1e20f) {
        for (const ClauseRef learnt : learntClauses)
            arena.activity(learnt, arena.activity(learnt) * 1e-20f);
        claInc *= 1e-20;
        act = arena.activity(ref) + static_cast<float>(claInc);
    }
    arena.activity(ref, act);
}

bool
Solver::clauseLocked(ClauseRef ref) const
{
    const Lit *lits = arena.lits(ref);
    if (value(lits[0]) == LBool::True &&
        varReason[litVar(lits[0])] == ref)
        return true;
    // Binary propagation enqueues the blocker without normalising
    // the stored order, so either literal may be the implied one.
    return arena.size(ref) == 2 && value(lits[1]) == LBool::True &&
           varReason[litVar(lits[1])] == ref;
}

void
Solver::removeClause(ClauseRef ref)
{
    detachClause(ref);
    arena.free(ref);
    ++statistics.removedClauses;
}

void
Solver::reduceDb()
{
    // Keep low-LBD ("glue") and locked clauses; drop the less active
    // half of the rest.
    std::vector<ClauseRef> keep;
    std::vector<ClauseRef> candidates;
    keep.reserve(learntClauses.size());
    for (const ClauseRef ref : learntClauses) {
        if (arena.lbd(ref) <= 2 || clauseLocked(ref))
            keep.push_back(ref);
        else
            candidates.push_back(ref);
    }
    std::sort(candidates.begin(), candidates.end(),
              [this](ClauseRef a, ClauseRef b) {
                  if (arena.lbd(a) != arena.lbd(b))
                      return arena.lbd(a) < arena.lbd(b);
                  return arena.activity(a) > arena.activity(b);
              });
    const std::size_t retain = candidates.size() / 2;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        if (i < retain)
            keep.push_back(candidates[i]);
        else
            removeClause(candidates[i]);
    }
    learntClauses = std::move(keep);
    garbageCollectIfNeeded();
}

void
Solver::garbageCollectIfNeeded()
{
    // Collect when a quarter of the arena is retired words. The
    // floor keeps tiny databases from collecting on every removal.
    if (arena.wasted() > 1024 &&
        arena.wasted() * 4 >= arena.size()) {
        garbageCollect();
    }
}

void
Solver::garbageCollect()
{
    telemetry::TraceSpan span("sat.gc");
    ClauseArena to;
    // Relocating through the watcher lists first preserves their
    // traversal order exactly, so a collection changes no future
    // propagation; clause lists and reasons then pick up the
    // forwarded copies.
    for (auto *lists : {&binWatches, &watches}) {
        for (auto &list : *lists)
            for (Watcher &w : list)
                w.cref = arena.relocate(w.cref, to);
    }
    for (const Lit lit : trail) {
        ClauseRef &reason = varReason[litVar(lit)];
        if (reason != crefUndef)
            reason = arena.relocate(reason, to);
    }
    for (ClauseRef &ref : problemClauses)
        ref = arena.relocate(ref, to);
    for (ClauseRef &ref : learntClauses)
        ref = arena.relocate(ref, to);
    ++statistics.garbageCollects;
    const std::size_t reclaimed = arena.size() - to.size();
    statistics.reclaimedWords += reclaimed;
    if (span.active()) {
        span.arg("reclaimed_words", reclaimed);
        span.arg("arena_words", to.size());
    }
    arena = std::move(to);
    maybeCheck();
}

// --------------------------------------------------------------------
// Carry-over reset
// --------------------------------------------------------------------

void
Solver::detachLevelZeroReasons()
{
    // Top-level assignments are facts: nothing ever dereferences
    // their reasons again (conflict analysis stops at level 0), so
    // dropping them unlocks the clauses for removal and collection.
    require(decisionLevel() == 0,
            "level-0 reasons can only be dropped between solves");
    for (const Lit lit : trail)
        varReason[litVar(lit)] = crefUndef;
}

void
Solver::clearLearnts()
{
    require(decisionLevel() == 0,
            "clearLearnts may only run between solve() calls");
    detachLevelZeroReasons();
    for (const ClauseRef ref : learntClauses) {
        detachClause(ref);
        arena.free(ref);
    }
    statistics.clearedLearnts += learntClauses.size();
    statistics.removedClauses += learntClauses.size();
    learntClauses.clear();
    maxLearnts = 8192;
    garbageCollectIfNeeded();
    maybeCheck();
}

// --------------------------------------------------------------------
// Clause exchange
// --------------------------------------------------------------------

void
Solver::connectExchange(ClauseExchange *new_exchange,
                        std::size_t instance_id)
{
    exchange = new_exchange;
    exchangeId = instance_id;
}

void
Solver::publishLearnt(std::span<const Lit> literals,
                      std::uint32_t lbd)
{
    if (!exchange || literals.empty())
        return;
    if (literals.size() > exchange->maxSize() ||
        (literals.size() > 1 && lbd > exchange->maxLbd())) {
        return;
    }
    exchange->publish(exchangeId, literals, lbd);
    ++statistics.sharedOut;
}

bool
Solver::adoptClause(std::span<const Lit> literals,
                    std::uint32_t lbd)
{
    require(decisionLevel() == 0,
            "shared clauses may only be adopted at level 0");
    static thread_local std::vector<Lit> scratch;
    scratch.clear();
    for (const Lit lit : literals) {
        require(static_cast<std::size_t>(litVar(lit)) < numVars(),
                "shared clause references unknown variable");
        if (value(lit) == LBool::True)
            return true; // already satisfied at level 0
        if (value(lit) == LBool::False)
            continue; // falsified at level 0: drop literal
        scratch.push_back(lit);
    }
    if (scratch.empty()) {
        ok = false;
        return false;
    }
    if (scratch.size() == 1) {
        uncheckedEnqueue(scratch[0], crefUndef);
        if (propagate() != crefUndef)
            ok = false;
        return ok;
    }
    const ClauseRef ref = arena.alloc(scratch, true);
    // Keep the publisher's LBD (clamped: level-0 filtering may
    // have shortened the clause) so glue clauses retain the
    // keep-forever protection reduceDb() grants them.
    arena.lbd(ref, std::min(lbd, static_cast<std::uint32_t>(
                                     scratch.size() - 1)));
    learntClauses.push_back(ref);
    attachClause(ref);
    return true;
}

bool
Solver::importSharedClauses()
{
    if (!exchange)
        return true;
    static thread_local std::vector<ClauseExchange::SharedClause>
        imports;
    imports.clear();
    exchange->collect(exchangeId, imports);
    for (const auto &shared : imports) {
        ++statistics.sharedIn;
        if (!adoptClause(shared.lits, shared.lbd))
            return false;
    }
    return true;
}

// --------------------------------------------------------------------
// Clause addition
// --------------------------------------------------------------------

bool
Solver::addClause(std::span<const Lit> literals)
{
    require(decisionLevel() == 0,
            "clauses may only be added at decision level 0");
    if (!ok)
        return false;

    static thread_local std::vector<Lit> scratch;
    scratch.assign(literals.begin(), literals.end());
    std::sort(scratch.begin(), scratch.end());
    Lit previous = litUndef;
    std::size_t keep = 0;
    for (const Lit lit : scratch) {
        require(litVar(lit) >= 0 &&
                    static_cast<std::size_t>(litVar(lit)) < numVars(),
                "clause references unknown variable");
        if (lit == previous)
            continue; // duplicate literal
        if (previous != litUndef && lit == ~previous)
            return true; // tautology: x OR NOT x
        if (value(lit) == LBool::True)
            return true; // already satisfied at level 0
        if (value(lit) == LBool::False)
            continue; // falsified at level 0: drop literal
        scratch[keep++] = lit;
        previous = lit;
    }
    scratch.resize(keep);

    if (scratch.empty()) {
        ok = false;
        return false;
    }
    if (scratch.size() == 1) {
        uncheckedEnqueue(scratch[0], crefUndef);
        if (propagate() != crefUndef)
            ok = false;
        return ok;
    }
    const ClauseRef ref = arena.alloc(scratch, false);
    problemClauses.push_back(ref);
    attachClause(ref);
    return true;
}

// --------------------------------------------------------------------
// Export
// --------------------------------------------------------------------

std::vector<std::vector<Lit>>
Solver::problemClausesSnapshot() const
{
    std::vector<std::vector<Lit>> out;
    if (!ok) {
        // Inconsistent: the clause that refuted the instance was
        // never stored (addClause rejects it), so the clause list
        // alone would be satisfiable. Pin unsatisfiability with a
        // contradictory unit pair — the empty clause would not
        // survive a DIMACS round-trip.
        const Lit pin = mkLit(0);
        out.push_back({pin});
        out.push_back({~pin});
        return out;
    }
    // Top-level facts first (caller units and the facts derived
    // at level 0), then the stored problem clauses — and only
    // those: learnt clauses are implied, not part of the instance.
    const std::size_t level0 =
        trailLim.empty() ? trail.size() : trailLim[0];
    out.reserve(level0 + problemClauses.size());
    for (std::size_t i = 0; i < level0; ++i)
        out.push_back({trail[i]});
    for (const ClauseRef ref : problemClauses) {
        const auto clause = arena.clause(ref);
        out.emplace_back(clause.begin(), clause.end());
    }
    return out;
}

std::size_t
Solver::numBinaryClauses() const
{
    std::size_t count = 0;
    for (const ClauseRef ref : problemClauses)
        count += arena.size(ref) == 2;
    return count;
}

// --------------------------------------------------------------------
// Self-checks
// --------------------------------------------------------------------

bool
Solver::selfCheckEnabled() const
{
#ifdef FERMIHEDRAL_SOLVER_CHECK
    return true;
#else
    return config.selfCheck;
#endif
}

void
Solver::checkInvariants() const
{
    // Clause lists: valid, unrelocated refs with matching flags.
    std::vector<ClauseRef> live;
    for (const auto *list : {&problemClauses, &learntClauses}) {
        const bool learnt = list == &learntClauses;
        for (const ClauseRef ref : *list) {
            require(arena.validRef(ref),
                    "invalid clause ref in database");
            require(!arena.isRelocated(ref),
                    "relocated clause ref survived collection");
            require(arena.learnt(ref) == learnt,
                    "clause learnt flag disagrees with its list");
            require(arena.size(ref) >= 2,
                    "stored clause of size < 2");
            live.push_back(ref);
        }
    }

    // Watch lists: each watcher names a live clause watched on the
    // falling literal, with the blocker drawn from the clause; the
    // multiset of watchers is exactly every live clause twice.
    std::vector<ClauseRef> watched;
    for (std::size_t code = 0; code < watches.size(); ++code) {
        const Lit falling = ~Lit{static_cast<std::int32_t>(code)};
        for (const Watcher &w : binWatches[code]) {
            require(arena.validRef(w.cref) &&
                        arena.size(w.cref) == 2,
                    "binary watcher on non-binary clause");
            const Lit *lits = arena.lits(w.cref);
            require((lits[0] == falling &&
                     lits[1] == w.blocker) ||
                        (lits[1] == falling &&
                         lits[0] == w.blocker),
                    "binary watcher blocker is not the other "
                    "literal");
            watched.push_back(w.cref);
        }
        for (const Watcher &w : watches[code]) {
            require(arena.validRef(w.cref) &&
                        arena.size(w.cref) >= 3,
                    "long watcher on short clause");
            const Lit *lits = arena.lits(w.cref);
            require(lits[0] == falling || lits[1] == falling,
                    "watched literal is not in the first two "
                    "slots");
            watched.push_back(w.cref);
        }
    }
    std::sort(live.begin(), live.end());
    std::sort(watched.begin(), watched.end());
    require(watched.size() == 2 * live.size(),
            "watcher count is not twice the live clause count");
    for (std::size_t i = 0; i < live.size(); ++i) {
        require(watched[2 * i] == live[i] &&
                    watched[2 * i + 1] == live[i],
                "live clause not watched exactly twice");
    }

    // Trail: monotone level marks, true literals, sane reasons.
    require(qhead <= trail.size(), "qhead past the trail");
    for (std::size_t i = 1; i < trailLim.size(); ++i)
        require(trailLim[i - 1] <= trailLim[i],
                "decision level marks out of order");
    for (const Lit lit : trail) {
        require(value(lit) == LBool::True,
                "trail literal is not true");
        const ClauseRef reason = varReason[litVar(lit)];
        if (reason == crefUndef)
            continue;
        require(arena.validRef(reason) &&
                    !arena.isRelocated(reason),
                "invalid reason ref");
        bool contains = false;
        for (const Lit l : arena.clause(reason))
            contains |= litVar(l) == litVar(lit);
        require(contains,
                "reason clause does not mention its variable");
    }

    // Heap: ordering/index integrity, and completeness — every
    // unassigned variable must be reachable by pickBranchLit().
    require(heap.brokenSlot() == -1,
            "variable heap order or index broken at slot ",
            heap.brokenSlot());
    for (std::size_t var = 0; var < assigns.size(); ++var) {
        if (assigns[var] == LBool::Undef) {
            require(heap.contains(static_cast<Var>(var)),
                    "unassigned variable ", var,
                    " missing from the decision heap");
        }
    }
}

// --------------------------------------------------------------------
// Search
// --------------------------------------------------------------------

std::uint64_t
Solver::luby(std::uint64_t i)
{
    // Luby sequence 1,1,2,1,1,2,4,... (0-indexed), MiniSat style.
    std::uint64_t size = 1, seq = 0;
    while (size < i + 1) {
        ++seq;
        size = 2 * size + 1;
    }
    while (size - 1 != i) {
        size = (size - 1) >> 1;
        --seq;
        i = i % size;
    }
    return std::uint64_t{1} << seq;
}

double
Solver::now() const
{
    // Timer::nowNs is the project-wide monotonic tick; sharing it
    // keeps budget checks on the same timeline as telemetry spans.
    return static_cast<double>(Timer::nowNs()) * 1e-9;
}

std::uint64_t
Solver::restartLimit(std::uint64_t round) const
{
    if (config.restartSchedule == SolverConfig::Restarts::Geometric) {
        double limit = config.restartBase;
        for (std::uint64_t i = 0; i < round; ++i) {
            limit *= config.restartGrowth;
            // Saturate well below 2^63: casting an out-of-range
            // double to an integer is undefined behaviour.
            if (limit >= 1e18)
                return std::uint64_t{1} << 60;
        }
        return static_cast<std::uint64_t>(limit);
    }
    return config.restartBase * luby(round);
}

bool
Solver::budgetExpired(const Budget &budget, double start_time,
                      std::uint64_t start_conflicts) const
{
    // Fault rehearsal: a forced expiry exercises every degradation
    // path above the solver (Unknown step -> anytime descent ->
    // ResultStatus). One relaxed load when no failpoint is armed.
    if (failpoint::fire("sat.budget.expire"))
        return true;
    if (budget.stopFlag &&
        budget.stopFlag->load(std::memory_order_relaxed)) {
        return true;
    }
    if (budget.maxConflicts >= 0 &&
        statistics.conflicts - start_conflicts >=
            static_cast<std::uint64_t>(budget.maxConflicts)) {
        return true;
    }
    if (budget.maxSeconds > 0 &&
        now() - start_time >= budget.maxSeconds) {
        return true;
    }
    return false;
}

SolveStatus
Solver::search(const Budget &budget, double start_time)
{
    const std::uint64_t start_conflicts = statistics.conflicts;
    std::uint64_t restart_round = 0;
    std::uint64_t conflicts_this_round = 0;
    std::uint64_t restart_limit = restartLimit(0);

    for (;;) {
        const ClauseRef conflict = propagate();
        if (conflict != crefUndef) {
            ++statistics.conflicts;
            ++conflicts_this_round;
            if (decisionLevel() == 0) {
                ok = false;
                return SolveStatus::Unsat;
            }
            std::uint32_t bt_level = 0, lbd = 0;
            analyze(conflict, learntClause, bt_level, lbd);
            publishLearnt(learntClause, lbd);
            cancelUntil(bt_level);
            if (learntClause.size() == 1) {
                uncheckedEnqueue(learntClause[0], crefUndef);
            } else {
                const ClauseRef ref =
                    arena.alloc(learntClause, true);
                arena.lbd(ref, lbd);
                learntClauses.push_back(ref);
                attachClause(ref);
                claBumpActivity(ref);
                uncheckedEnqueue(learntClause[0], ref);
            }
            heap.decay();
            claDecayActivity();
            if ((statistics.conflicts & 0x3ff) == 0 &&
                budgetExpired(budget, start_time, start_conflicts)) {
                cancelUntil(0);
                return SolveStatus::Unknown;
            }
            continue;
        }

        // No conflict.
        if (conflicts_this_round >= restart_limit) {
            ++statistics.restarts;
            ++restart_round;
            conflicts_this_round = 0;
            restart_limit = restartLimit(restart_round);
            cancelUntil(0);
            // Restart boundaries are the one place foreign clauses
            // can be adopted without disturbing an in-flight trail.
            if (!importSharedClauses())
                return SolveStatus::Unsat;
            continue;
        }
        if (budgetExpired(budget, start_time, start_conflicts)) {
            cancelUntil(0);
            return SolveStatus::Unknown;
        }
        if (learntClauses.size() >= maxLearnts) {
            reduceDb();
            maxLearnts =
                static_cast<std::uint64_t>(maxLearnts * 1.2);
        }

        Lit next = litUndef;
        while (decisionLevel() < assumptionList.size()) {
            const Lit p = assumptionList[decisionLevel()];
            if (value(p) == LBool::True) {
                newDecisionLevel(); // dummy level for this assumption
            } else if (value(p) == LBool::False) {
                cancelUntil(0);
                return SolveStatus::Unsat;
            } else {
                next = p;
                break;
            }
        }
        if (next == litUndef) {
            next = pickBranchLit();
            if (next == litUndef) {
                // All variables assigned: model found.
                model.assign(assigns.begin(), assigns.end());
                cancelUntil(0);
                return SolveStatus::Sat;
            }
            ++statistics.decisions;
        }
        newDecisionLevel();
        uncheckedEnqueue(next, crefUndef);
    }
}

SolveStatus
Solver::solve(std::span<const Lit> assumptions, const Budget &budget)
{
    if (!ok)
        return SolveStatus::Unsat;
    assumptionList.assign(assumptions.begin(), assumptions.end());
    cancelUntil(0);
    if (propagate() != crefUndef) {
        ok = false;
        return SolveStatus::Unsat;
    }
    if (!importSharedClauses()) {
        assumptionList.clear();
        return SolveStatus::Unsat;
    }
    maybeCheck();
    telemetry::TraceSpan span("sat.solve");
    const SolverStats before = statistics;
    const double start_time = now();
    const SolveStatus status = search(budget, start_time);
    cancelUntil(0);
    assumptionList.clear();
    maybeCheck();
    publishTelemetry(before, status, span);
    return status;
}

/**
 * Push this solve's SolverStats deltas into the global metrics
 * registry. Deltas are accumulated once per solve() — never inside
 * the search loop — so the CDCL hot path carries no atomics.
 */
void
Solver::publishTelemetry(const SolverStats &before,
                         SolveStatus status,
                         telemetry::TraceSpan &span) const
{
    auto &registry = telemetry::MetricsRegistry::global();
    static auto &conflicts = registry.counter("sat.conflicts");
    static auto &decisions = registry.counter("sat.decisions");
    static auto &propagations = registry.counter("sat.propagations");
    static auto &restarts = registry.counter("sat.restarts");
    static auto &learntDb = registry.gauge("sat.learnt_db_clauses");
    conflicts.add(statistics.conflicts - before.conflicts);
    decisions.add(statistics.decisions - before.decisions);
    propagations.add(statistics.propagations - before.propagations);
    restarts.add(statistics.restarts - before.restarts);
    learntDb.set(static_cast<std::int64_t>(learntClauses.size()));
    if (span.active()) {
        span.arg("status",
                 status == SolveStatus::Sat
                     ? "sat"
                     : status == SolveStatus::Unsat ? "unsat"
                                                    : "unknown");
        span.arg("conflicts", statistics.conflicts - before.conflicts);
        span.arg("propagations",
                 statistics.propagations - before.propagations);
        span.arg("restarts", statistics.restarts - before.restarts);
        span.arg("learnt_db", learntClauses.size());
    }
}

LBool
Solver::modelValue(Var var) const
{
    if (static_cast<std::size_t>(var) >= model.size())
        return LBool::Undef;
    return model[var];
}

void
Solver::setPolarity(Var var, bool value)
{
    require(static_cast<std::size_t>(var) < numVars(),
            "setPolarity on unknown variable");
    polarity[var] = value ? 0 : 1;
}

void
Solver::boostActivity(Var var, double amount)
{
    require(static_cast<std::size_t>(var) < numVars(),
            "boostActivity on unknown variable");
    heap.boost(var, amount);
}

} // namespace fermihedral::sat
