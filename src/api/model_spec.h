/**
 * @file
 * Model specs and wire request specs: the problem-naming layer the
 * encoding daemon and its warm-start mode share. A *model spec* is
 * a short string naming a problem from the paper's benchmark
 * families — `modes:N` (bare mode count), `h2` (the STO-3G
 * molecule), `hubbard:LxW` (periodic L×W Fermi-Hubbard lattice,
 * t = 1, U = 4), `hubbard1d:S` (periodic ring), `syk:N[:seed]`
 * (four-body SYK, default seed 7) — and a *RequestSpec* bundles a
 * model spec with the strategy, objective, constraint toggles and
 * budgets, i.e.\ everything a CompilationRequest needs that fits
 * on a wire (docs/PROTOCOL.md documents the serialized form,
 * api/serialize.h implements it).
 *
 * Warm sweeps extend the model grammar with ranges for library
 * precompilation (`--warm`): `modes:2..5`, `syk:2..4`,
 * `hubbard:1x2..2x2` (both dimensions sweep), items separated by
 * `;` or `,`, each optionally suffixed `@strategy`.
 *
 * Key invariants:
 *  - buildRequest() is deterministic: the same RequestSpec always
 *    produces the same CompilationRequest (models with random
 *    couplings derive them from the spec's seed), which is what
 *    makes a spec a valid cache-warming unit — the daemon's store
 *    key depends only on what the spec names.
 *  - tryParseModelSpec()/tryBuildRequest() reject rather than
 *    clamp: a malformed spec, a `modes:N` past
 *    pauli::PauliString::maxQubits, or a Hamiltonian family past
 *    fermion::FermionHamiltonian::maxModes returns nullopt with a
 *    diagnostic in *error, never a silently altered problem.
 *  - expandWarmSpec() is fatal on malformed input (it parses
 *    operator-written flags, not peer bytes) and expands ranges in
 *    deterministic ascending order.
 */

#ifndef FERMIHEDRAL_API_MODEL_SPEC_H
#define FERMIHEDRAL_API_MODEL_SPEC_H

#include <optional>
#include <string>
#include <vector>

#include "api/compiler.h"

namespace fermihedral::api {

/** Everything a compile request carries over the wire. */
struct RequestSpec
{
    /** Model spec naming the problem (see file docs). */
    std::string problem = "modes:2";

    /** Registered strategy name. */
    std::string strategy = "sat";

    /** Objective; Auto resolves from the problem spec. */
    Objective objective = Objective::Auto;

    /**
     * Hardware topology spec ("grid:2x4", "heavy-hex:1", ...; see
     * hw/topology.h), empty = none. Required when the objective is
     * routed-cost; with Auto it switches the resolved objective to
     * routed-cost.
     */
    std::string topology;

    /**
     * Section 3.1 constraint toggles. `alg` is accepted and kept in
     * the cache key but changes no strategy's search (see
     * CompilationRequest::algebraicIndependence).
     */
    bool algebraicIndependence = true;
    bool vacuumPreservation = true;

    /** Budgets and deadline (execution knobs, not identity). */
    double stepTimeoutSeconds = 15.0;
    double totalTimeoutSeconds = 45.0;
    double deadlineSeconds = 0.0;
};

/**
 * Resolve the spec into a full CompilationRequest (building the
 * named Hamiltonian when the family carries one). On failure
 * returns nullopt and, when `error` is non-null, a one-line
 * diagnostic.
 */
std::optional<CompilationRequest> tryBuildRequest(
    const RequestSpec &spec, std::string *error);

/** tryBuildRequest with malformed specs as fatal diagnostics. */
CompilationRequest buildRequest(const RequestSpec &spec);

/**
 * Expand a warm-sweep spec (see file docs) into one RequestSpec
 * per (model, strategy) point, budgets left at their defaults for
 * the caller to override. Malformed specs are fatal.
 */
std::vector<RequestSpec> expandWarmSpec(const std::string &spec);

} // namespace fermihedral::api

#endif // FERMIHEDRAL_API_MODEL_SPEC_H
