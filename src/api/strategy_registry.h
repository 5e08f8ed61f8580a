/**
 * @file
 * The encoding-strategy registry: named factories behind which the
 * closed-form baselines and the SAT searches share one interface.
 *
 * Built-in strategies (registered on first use):
 *
 *   jordan-wigner   A = I linear encoding            (closed form)
 *   bravyi-kitaev   Fenwick-tree linear encoding     (closed form)
 *   parity          prefix-sum linear encoding       (closed form)
 *   ternary-tree    balanced ternary tree            (closed form)
 *   sat             Algorithm 1 descent; with a Hamiltonian-
 *                   dependent objective it runs the paper's full
 *                   pipeline (independent solve -> Algorithm 2
 *                   annealing -> seeded dependent solve)
 *   sat-noalg       the same search as `sat`, under the name of
 *                   the paper's Sec. 4.1 configuration. No
 *                   strategy builds the algebraic independence
 *                   clauses: anticommutation already implies them
 *   sat+annealing   independent solve + Algorithm 2 pairing only
 *                   (the scalable path of Table 5)
 *   sat-routed      weight-optimal SAT search + topology-aware
 *                   qubit re-placement; needs request.topology
 *                   and the routed-cost objective (hw/)
 *   pick-routed     routes every closed-form baseline plus the
 *                   weight-optimal SAT encoding and returns the
 *                   best-routing one; same requirements
 *
 * New strategies are a registration, not a refactor: implement
 * EncodingStrategy, call registerStrategy() once, and every facade
 * caller (examples, benches, the cached service) can name it.
 *
 * Key invariants:
 *  - Names are unique; registering a duplicate is fatal.
 *  - makeStrategy() of an unknown name is a fatal diagnostic that
 *    suggests the nearest registered name (edit distance <= 2).
 *  - registeredStrategyNames() is sorted, so listings and cache
 *    keys are deterministic.
 */

#ifndef FERMIHEDRAL_API_STRATEGY_REGISTRY_H
#define FERMIHEDRAL_API_STRATEGY_REGISTRY_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/compiler.h"

namespace fermihedral::api {

/** One way of producing an encoding for a request. */
class EncodingStrategy
{
  public:
    virtual ~EncodingStrategy() = default;

    /**
     * Produce an encoding (and its search provenance) for the
     * request. The facade validates the spec before calling; the
     * strategy may still reject combinations it cannot serve
     * (e.g.\ annealing without a Hamiltonian) with fatal().
     */
    virtual SearchOutcome search(
        const CompilationRequest &request) const = 0;
};

/** Factory producing a strategy instance. */
using StrategyFactory =
    std::function<std::unique_ptr<EncodingStrategy>()>;

/** Register a named strategy. Duplicate names are fatal. */
void registerStrategy(const std::string &name,
                      StrategyFactory factory);

/** True when `name` is registered (built-ins count). */
bool strategyRegistered(const std::string &name);

/**
 * Instantiate the named strategy. Unknown names are fatal, with a
 * nearest-name suggestion when one is within edit distance 2.
 */
std::unique_ptr<EncodingStrategy> makeStrategy(
    const std::string &name);

/** All registered names, sorted. */
std::vector<std::string> registeredStrategyNames();

/**
 * The last rung of the degradation ladder: the closed-form
 * Bravyi-Kitaev baseline under the request's resolved objective,
 * tagged with a non-Ok `status` and `message`. Used by the serving
 * layer when a request expires or is cancelled before any search
 * ran (degraded results are never cached).
 */
SearchOutcome baselineOutcome(const CompilationRequest &request,
                              ResultStatus status,
                              std::string message);

} // namespace fermihedral::api

#endif // FERMIHEDRAL_API_STRATEGY_REGISTRY_H
