#include "api/compiler.h"

#include "api/strategy_registry.h"
#include "common/logging.h"
#include "common/timer.h"

namespace fermihedral::api {

const char *
objectiveName(Objective objective)
{
    switch (objective) {
      case Objective::Auto: return "auto";
      case Objective::TotalWeight: return "total-weight";
      case Objective::HamiltonianWeight: return "hamiltonian-weight";
      case Objective::RoutedCost: return "routed-cost";
    }
    panic("unhandled Objective value ",
          static_cast<int>(objective));
}

const char *
resultStatusName(ResultStatus status)
{
    switch (status) {
      case ResultStatus::Ok: return "ok";
      case ResultStatus::DeadlineExceeded:
          return "deadline-exceeded";
      case ResultStatus::Cancelled: return "cancelled";
      case ResultStatus::Shed: return "shed";
      case ResultStatus::Error: return "error";
    }
    panic("unhandled ResultStatus value ",
          static_cast<int>(status));
}

Objective
CompilationRequest::resolvedObjective() const
{
    if (objective == Objective::Auto) {
        if (topology)
            return Objective::RoutedCost;
        return hamiltonian ? Objective::HamiltonianWeight
                           : Objective::TotalWeight;
    }
    if (objective == Objective::HamiltonianWeight && !hamiltonian)
        fatal("objective 'hamiltonian-weight' needs a Hamiltonian "
              "in the CompilationRequest");
    if (objective == Objective::RoutedCost && !topology)
        fatal("objective 'routed-cost' needs a topology in the "
              "CompilationRequest");
    return objective;
}

CompilationResult
Compiler::assemble(const CompilationRequest &request,
                   const SearchOutcome &outcome)
{
    Timer timer;
    CompilationResult result;
    static_cast<SearchOutcome &>(result) = outcome;
    result.strategy = request.strategy;
    result.objective = request.resolvedObjective();
    result.validation = enc::validateEncoding(result.encoding);
    if (request.hamiltonian) {
        result.qubitHamiltonian =
            enc::mapToQubits(*request.hamiltonian, result.encoding);
        result.measurementGroups =
            pauli::groupQubitWiseCommuting(result.qubitHamiltonian);
    }
    result.mappingSeconds = timer.seconds();
    return result;
}

CompilationResult
Compiler::compile(const CompilationRequest &request) const
{
    if (request.resolvedModes() == 0)
        fatal("CompilationRequest needs modes > 0 or a Hamiltonian");
    if (request.topology) {
        if (!request.topology->connected())
            fatal("CompilationRequest topology must be connected");
        if (request.topology->numQubits() <
            request.resolvedModes())
            fatal("topology has ", request.topology->numQubits(),
                  " qubits but the problem needs ",
                  request.resolvedModes());
    }
    const auto strategy = makeStrategy(request.strategy);
    Timer timer;
    const SearchOutcome outcome = strategy->search(request);
    const double search_seconds = timer.seconds();
    CompilationResult result = assemble(request, outcome);
    result.searchSeconds = search_seconds;
    return result;
}

} // namespace fermihedral::api
