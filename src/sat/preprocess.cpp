#include "sat/preprocess.h"

#include <algorithm>

#include "common/logging.h"
#include "common/telemetry.h"

namespace fermihedral::sat {

Simplifier::Simplifier(std::size_t num_vars)
    : occurrences(2 * num_vars), values(num_vars, LBool::Undef)
{
}

std::uint64_t
Simplifier::signatureOf(std::span<const Lit> literals)
{
    // Variable-based Bloom signature: sig(C) & ~sig(D) != 0 proves
    // C's variables are not a subset of D's, which filters almost
    // every candidate pair before the literal-level subset walk.
    std::uint64_t signature = 0;
    for (const Lit lit : literals)
        signature |= std::uint64_t{1} << (litVar(lit) & 63);
    return signature;
}

LBool
Simplifier::valueOf(Lit lit) const
{
    const LBool v = values[litVar(lit)];
    return litSign(lit) ? -v : v;
}

void
Simplifier::enqueueUnit(Lit lit)
{
    const Var var = litVar(lit);
    const LBool value = litSign(lit) ? LBool::False : LBool::True;
    if (values[var] == value)
        return;
    if (values[var] != LBool::Undef) {
        contradiction = true;
        return;
    }
    values[var] = value;
    ++statistics.fixedVariables;
    unitQueue.push_back(var);
}

void
Simplifier::enqueueSubsumption(std::size_t index)
{
    if (queued[index])
        return;
    queued[index] = 1;
    subsumptionQueue.push_back(index);
}

void
Simplifier::removeClauseAt(std::size_t index)
{
    // Occurrence entries of removed clauses are left stale and
    // filtered by the `removed` flag on every scan: active entries
    // therefore always point to clauses that do contain the
    // literal they are indexed under.
    clauses[index].removed = true;
    clauses[index].lits.clear();
    clauses[index].lits.shrink_to_fit();
}

void
Simplifier::detachLiteral(std::size_t index, Lit lit)
{
    auto &list = occurrences[lit.code];
    for (std::size_t i = 0; i < list.size(); ++i) {
        if (list[i] == index) {
            list[i] = list.back();
            list.pop_back();
            return;
        }
    }
}

void
Simplifier::addClause(std::span<const Lit> literals)
{
    require(!ran, "Simplifier::addClause after run()");
    ++statistics.originalClauses;
    insertClause(std::vector<Lit>(literals.begin(), literals.end()));
}

bool
Simplifier::insertClause(std::vector<Lit> lits)
{
    if (contradiction)
        return false;
    std::sort(lits.begin(), lits.end());
    Lit previous = litUndef;
    std::size_t keep = 0;
    for (const Lit lit : lits) {
        require(litVar(lit) >= 0 &&
                    static_cast<std::size_t>(litVar(lit)) <
                        values.size(),
                "clause references unknown variable");
        if (lit == previous)
            continue; // duplicate literal
        if (previous != litUndef && lit == ~previous)
            return true; // tautology
        if (valueOf(lit) == LBool::True)
            return true; // satisfied at top level
        if (valueOf(lit) == LBool::False)
            continue; // falsified at top level
        lits[keep++] = lit;
        previous = lit;
    }
    lits.resize(keep);

    if (lits.empty()) {
        contradiction = true;
        return false;
    }
    if (lits.size() == 1) {
        enqueueUnit(lits[0]);
        return !contradiction;
    }
    const std::size_t index = clauses.size();
    Clause clause;
    clause.signature = signatureOf(lits);
    clause.lits = std::move(lits);
    clauses.push_back(std::move(clause));
    for (const Lit lit : clauses[index].lits)
        occurrences[lit.code].push_back(index);
    queued.push_back(0);
    enqueueSubsumption(index);
    return true;
}

bool
Simplifier::propagateUnits()
{
    while (!unitQueue.empty() && !contradiction) {
        const Var var = unitQueue.back();
        unitQueue.pop_back();
        const Lit lit =
            mkLit(var, values[var] == LBool::False);

        for (const std::size_t index : occurrences[lit.code]) {
            if (!clauses[index].removed)
                removeClauseAt(index); // satisfied clause
        }
        occurrences[lit.code].clear();

        // Detach the false literal from every remaining clause.
        std::vector<std::size_t> falsified;
        falsified.swap(occurrences[(~lit).code]);
        for (const std::size_t index : falsified) {
            if (clauses[index].removed)
                continue;
            auto &clause = clauses[index];
            clause.lits.erase(std::find(clause.lits.begin(),
                                        clause.lits.end(), ~lit));
            clause.signature = signatureOf(clause.lits);
            if (clause.lits.empty()) {
                contradiction = true;
                return false;
            }
            if (clause.lits.size() == 1) {
                enqueueUnit(clause.lits[0]);
                removeClauseAt(index);
            } else {
                enqueueSubsumption(index);
            }
        }
    }
    return !contradiction;
}

namespace {

/**
 * True when every literal of `small` — with `flip` replaced by its
 * negation — occurs in `large`. Both clauses are sorted by literal
 * code; flipping only toggles the low bit, so the walked sequence
 * stays sorted and one merge pass suffices.
 */
bool
subsetWithFlip(const std::vector<Lit> &small,
               const std::vector<Lit> &large, Lit flip)
{
    std::size_t j = 0;
    for (Lit lit : small) {
        if (lit == flip)
            lit = ~lit;
        while (j < large.size() && large[j].code < lit.code)
            ++j;
        if (j == large.size() || !(large[j] == lit))
            return false;
        ++j;
    }
    return true;
}

} // namespace

bool
Simplifier::strengthenClause(std::size_t index, Lit lit)
{
    auto &clause = clauses[index];
    detachLiteral(index, lit);
    clause.lits.erase(
        std::find(clause.lits.begin(), clause.lits.end(), lit));
    clause.signature = signatureOf(clause.lits);
    ++statistics.strengthenedLiterals;
    if (clause.lits.empty()) {
        contradiction = true;
        return false;
    }
    if (clause.lits.size() == 1) {
        enqueueUnit(clause.lits[0]);
        removeClauseAt(index);
        return !contradiction;
    }
    enqueueSubsumption(index);
    return true;
}

bool
Simplifier::subsumptionPass()
{
    while (!subsumptionQueue.empty()) {
        if (!propagateUnits())
            return false;
        if (subsumptionQueue.empty())
            break;
        const std::size_t index = subsumptionQueue.back();
        subsumptionQueue.pop_back();
        queued[index] = 0;
        if (clauses[index].removed)
            continue;
        const std::vector<Lit> lits = clauses[index].lits;
        const std::uint64_t signature = clauses[index].signature;

        // Scan the occurrence list of the rarest literal: every
        // clause containing all of `lits` must appear there.
        Lit best = lits[0];
        for (const Lit lit : lits) {
            if (occurrences[lit.code].size() <
                occurrences[best.code].size())
                best = lit;
        }
        for (const std::size_t other : occurrences[best.code]) {
            if (other == index || clauses[other].removed)
                continue;
            const auto &cand = clauses[other];
            if (cand.lits.size() < lits.size() ||
                (signature & ~cand.signature) != 0)
                continue;
            if (subsetWithFlip(lits, cand.lits, litUndef)) {
                removeClauseAt(other);
                ++statistics.subsumedClauses;
            }
        }

        // Self-subsuming resolution: D ⊇ (C \ {l}) ∪ {~l} lets the
        // resolvent C⊗D replace D, i.e.\ ~l is removed from D.
        for (const Lit lit : lits) {
            if (clauses[index].removed)
                break;
            // detachLiteral edits this list, so walk a copy.
            const std::vector<std::size_t> candidates =
                occurrences[(~lit).code];
            for (const std::size_t other : candidates) {
                if (other == index || clauses[other].removed)
                    continue;
                const auto &cand = clauses[other];
                if (cand.lits.size() < lits.size() ||
                    (signature & ~cand.signature) != 0)
                    continue;
                if (!subsetWithFlip(lits, cand.lits, lit))
                    continue;
                if (!strengthenClause(other, ~lit))
                    return false;
            }
        }
    }
    return !contradiction;
}

void
Simplifier::run()
{
    require(!ran, "Simplifier::run() may only be called once");
    ran = true;
    // Propagation + subsumption rounds before settling.
    constexpr std::size_t maxRounds = 2;
    telemetry::TraceSpan span("sat.simplify");
    for (std::size_t round = 0; round < maxRounds; ++round) {
        if (!propagateUnits())
            break;
        if (!subsumptionPass())
            break;
        ++statistics.rounds;
        if (subsumptionQueue.empty() && unitQueue.empty())
            break;
    }
    if (!contradiction) {
        propagateUnits();
        subsumptionPass();
    }

    statistics.simplifiedClauses = 0;
    if (!contradiction) {
        for (const auto &clause : clauses)
            statistics.simplifiedClauses += clause.removed ? 0 : 1;
        for (const LBool value : values)
            statistics.simplifiedClauses +=
                value != LBool::Undef ? 1 : 0;
    }
    if (span.active()) {
        span.arg("rounds", statistics.rounds);
        span.arg("original_clauses", statistics.originalClauses);
        span.arg("simplified_clauses",
                 statistics.simplifiedClauses);
        span.arg("subsumed", statistics.subsumedClauses);
    }
}

std::vector<std::vector<Lit>>
Simplifier::simplifiedClauses() const
{
    std::vector<std::vector<Lit>> out;
    if (contradiction)
        return out;
    // Units first so a loading solver fixes them before anything
    // else propagates; then the surviving clause database.
    for (Var var = 0;
         static_cast<std::size_t>(var) < values.size(); ++var) {
        if (values[var] != LBool::Undef) {
            out.push_back(
                {mkLit(var, values[var] == LBool::False)});
        }
    }
    for (const auto &clause : clauses) {
        if (!clause.removed)
            out.push_back(clause.lits);
    }
    return out;
}

} // namespace fermihedral::sat
