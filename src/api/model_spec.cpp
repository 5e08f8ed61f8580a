#include "api/model_spec.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "common/rng.h"
#include "fermion/models.h"

namespace fermihedral::api {

namespace {

constexpr std::uint64_t kDefaultSykSeed = 7;
constexpr double kHubbardT = 1.0;
constexpr double kHubbardU = 4.0;

/** Strict decimal size_t; nullopt on anything else. */
std::optional<std::size_t>
parseCount(std::string_view text)
{
    if (text.empty() || text.size() > 9)
        return std::nullopt;
    std::size_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        value = value * 10 + static_cast<std::size_t>(c - '0');
    }
    return value;
}

/** "<length>x<width>" as two strict counts; nullopt otherwise. */
std::optional<std::pair<std::size_t, std::size_t>>
parseLattice(std::string_view text)
{
    const std::size_t x = text.find('x');
    if (x == std::string_view::npos)
        return std::nullopt;
    const auto length = parseCount(text.substr(0, x));
    const auto width = parseCount(text.substr(x + 1));
    if (!length || !width)
        return std::nullopt;
    return std::make_pair(*length, *width);
}

bool
failSpec(std::string *error, std::string message)
{
    if (error)
        *error = std::move(message);
    return false;
}

/**
 * Periodic L×W Hubbard lattice edge list over sites indexed
 * y * length + x. Wrap edges collapse for dimensions of size 1
 * (self-loop: dropped) and size 2 (duplicate: deduplicated).
 */
std::vector<std::pair<std::uint32_t, std::uint32_t>>
hubbardLatticeEdges(std::size_t length, std::size_t width)
{
    std::set<std::pair<std::uint32_t, std::uint32_t>> edges;
    const auto site = [length](std::size_t x, std::size_t y) {
        return static_cast<std::uint32_t>(y * length + x);
    };
    const auto add = [&edges](std::uint32_t a, std::uint32_t b) {
        if (a == b)
            return;
        edges.insert({std::min(a, b), std::max(a, b)});
    };
    for (std::size_t y = 0; y < width; ++y) {
        for (std::size_t x = 0; x < length; ++x) {
            add(site(x, y), site((x + 1) % length, y));
            add(site(x, y), site(x, (y + 1) % width));
        }
    }
    return {edges.begin(), edges.end()};
}

/**
 * Resolve one (range-free) model spec into the request's problem
 * fields. Returns false with *error set on malformed specs.
 */
bool
applyModelSpec(std::string_view spec, CompilationRequest &request,
               std::string *error)
{
    const auto reject = [&](std::string_view detail) {
        return failSpec(error, "malformed model spec '" +
                                   std::string(spec) + "': " +
                                   std::string(detail));
    };
    const auto checkModes = [&](std::size_t modes) {
        if (modes == 0)
            return reject("mode count must be positive");
        if (modes > pauli::PauliString::maxQubits)
            return reject("mode count exceeds the " +
                          std::to_string(
                              pauli::PauliString::maxQubits) +
                          "-qubit ceiling");
        return true;
    };
    // The Hamiltonian families stop below the qubit ceiling, at the
    // Majorana-mask width FermionHamiltonian enforces.
    const auto checkHamiltonianModes = [&](std::size_t modes) {
        if (modes <= fermion::FermionHamiltonian::maxModes)
            return true;
        return reject(
            std::to_string(modes) + " modes exceed a Hamiltonian's " +
            std::to_string(fermion::FermionHamiltonian::maxModes) +
            "-mode limit");
    };

    const std::size_t colon = spec.find(':');
    const std::string_view family = spec.substr(0, colon);
    const std::string_view args =
        colon == std::string_view::npos ? std::string_view{}
                                        : spec.substr(colon + 1);

    if (family == "h2") {
        if (colon != std::string_view::npos)
            return reject("h2 takes no parameters");
        request.hamiltonian =
            fermion::h2Sto3gIntegrals().toHamiltonian();
        return true;
    }
    if (family == "modes") {
        const auto modes = parseCount(args);
        if (!modes)
            return reject("expected modes:<count>");
        if (!checkModes(*modes))
            return false;
        request.modes = *modes;
        request.hamiltonian.reset();
        return true;
    }
    if (family == "hubbard1d") {
        const auto sites = parseCount(args);
        if (!sites || *sites < 2)
            return reject("expected hubbard1d:<sites >= 2>");
        if (!checkHamiltonianModes(2 * *sites))
            return false;
        request.hamiltonian = fermion::fermiHubbard1D(
            *sites, kHubbardT, kHubbardU);
        return true;
    }
    if (family == "hubbard") {
        const auto lattice = parseLattice(args);
        if (!lattice || lattice->first == 0 || lattice->second == 0)
            return reject("expected hubbard:<length>x<width>");
        const auto [length, width] = *lattice;
        const std::size_t sites = length * width;
        if (sites < 2)
            return reject("lattice needs at least 2 sites");
        if (!checkHamiltonianModes(2 * sites))
            return false;
        request.hamiltonian = fermion::fermiHubbard(
            sites, hubbardLatticeEdges(length, width),
            kHubbardT, kHubbardU);
        return true;
    }
    if (family == "syk") {
        const std::size_t colon2 = args.find(':');
        const auto modes = parseCount(args.substr(0, colon2));
        std::uint64_t seed = kDefaultSykSeed;
        if (colon2 != std::string_view::npos) {
            const auto parsed = parseCount(args.substr(colon2 + 1));
            if (!parsed)
                return reject("expected syk:<modes>[:<seed>]");
            seed = *parsed;
        }
        if (!modes || *modes < 2)
            return reject("expected syk:<modes >= 2>");
        if (!checkHamiltonianModes(*modes))
            return false;
        Rng rng(seed);
        request.hamiltonian = fermion::sykModel(*modes, rng);
        return true;
    }
    return reject("unknown model family '" + std::string(family) +
                  "' (modes, h2, hubbard, hubbard1d, syk)");
}

/** "A..B" -> [A, B]; "A" -> [A, A]; nullopt on malformed. */
std::optional<std::pair<std::size_t, std::size_t>>
parseRange(std::string_view text)
{
    const std::size_t dots = text.find("..");
    if (dots == std::string_view::npos) {
        const auto value = parseCount(text);
        if (!value)
            return std::nullopt;
        return std::make_pair(*value, *value);
    }
    const auto low = parseCount(text.substr(0, dots));
    const auto high = parseCount(text.substr(dots + 2));
    if (!low || !high || *low > *high)
        return std::nullopt;
    return std::make_pair(*low, *high);
}

/** Expand one warm item's model part into concrete model specs. */
std::vector<std::string>
expandModelRanges(const std::string &model)
{
    std::vector<std::string> specs;
    const std::size_t colon = model.find(':');
    const std::string family = model.substr(0, colon);
    const std::string args =
        colon == std::string::npos ? "" : model.substr(colon + 1);

    if (family == "hubbard" && colon != std::string::npos) {
        // hubbard:L1xW1..L2xW2 sweeps both dimensions.
        const std::size_t dots = args.find("..");
        if (dots != std::string::npos) {
            const auto low =
                parseLattice(std::string_view(args).substr(0, dots));
            const auto high =
                parseLattice(std::string_view(args).substr(dots + 2));
            if (!low || !high || low->first > high->first ||
                low->second > high->second)
                fatal("malformed warm range '", model,
                      "': expected hubbard:L1xW1..L2xW2");
            for (std::size_t w = low->second; w <= high->second; ++w)
                for (std::size_t l = low->first; l <= high->first; ++l)
                    specs.push_back("hubbard:" + std::to_string(l) +
                                    "x" + std::to_string(w));
            return specs;
        }
        specs.push_back(model);
        return specs;
    }
    if ((family == "modes" || family == "syk" ||
         family == "hubbard1d") &&
        colon != std::string::npos &&
        args.find("..") != std::string::npos &&
        args.find(':') == std::string::npos) {
        const auto range = parseRange(args);
        if (!range)
            fatal("malformed warm range '", model,
                  "': expected ", family, ":A..B");
        for (std::size_t n = range->first; n <= range->second; ++n)
            specs.push_back(family + ":" + std::to_string(n));
        return specs;
    }
    specs.push_back(model);
    return specs;
}

} // namespace

std::optional<CompilationRequest>
tryBuildRequest(const RequestSpec &spec, std::string *error)
{
    CompilationRequest request;
    if (!applyModelSpec(spec.problem, request, error))
        return std::nullopt;
    if (!spec.topology.empty()) {
        std::string topology_error;
        auto topology = hw::Topology::tryParseSpec(
            spec.topology, &topology_error);
        if (!topology) {
            failSpec(error, std::move(topology_error));
            return std::nullopt;
        }
        if (!topology->connected()) {
            failSpec(error, "topology '" + spec.topology +
                                "' is not connected");
            return std::nullopt;
        }
        if (topology->numQubits() < request.resolvedModes()) {
            failSpec(error,
                     "topology '" + spec.topology + "' has " +
                         std::to_string(topology->numQubits()) +
                         " qubits but the problem needs " +
                         std::to_string(request.resolvedModes()));
            return std::nullopt;
        }
        request.topology = *std::move(topology);
    } else if (spec.objective == Objective::RoutedCost) {
        failSpec(error, "objective 'routed-cost' needs a topology "
                        "in the request spec");
        return std::nullopt;
    }
    request.strategy = spec.strategy;
    request.objective = spec.objective;
    request.algebraicIndependence = spec.algebraicIndependence;
    request.vacuumPreservation = spec.vacuumPreservation;
    request.stepTimeoutSeconds = spec.stepTimeoutSeconds;
    request.totalTimeoutSeconds = spec.totalTimeoutSeconds;
    request.deadlineSeconds = spec.deadlineSeconds;
    return request;
}

CompilationRequest
buildRequest(const RequestSpec &spec)
{
    std::string error;
    auto request = tryBuildRequest(spec, &error);
    if (!request)
        fatal(error);
    return *std::move(request);
}

std::vector<RequestSpec>
expandWarmSpec(const std::string &spec)
{
    std::vector<RequestSpec> expanded;
    std::size_t start = 0;
    while (start <= spec.size()) {
        std::size_t end = spec.find_first_of(";,", start);
        if (end == std::string::npos)
            end = spec.size();
        std::string item = spec.substr(start, end - start);
        start = end + 1;
        // Trim surrounding spaces so flag values read naturally.
        while (!item.empty() && item.front() == ' ')
            item.erase(item.begin());
        while (!item.empty() && item.back() == ' ')
            item.pop_back();
        if (item.empty())
            continue;

        RequestSpec base;
        const std::size_t at = item.find('@');
        if (at != std::string::npos) {
            base.strategy = item.substr(at + 1);
            if (base.strategy.empty())
                fatal("malformed warm item '", item,
                      "': empty strategy after '@'");
            item.resize(at);
        }
        for (const std::string &model : expandModelRanges(item)) {
            base.problem = model;
            // Validate eagerly: --warm specs are operator input,
            // so a typo should fail at startup, not mid-sweep.
            std::string error;
            if (!tryBuildRequest(base, &error))
                fatal(error);
            expanded.push_back(base);
        }
    }
    if (expanded.empty())
        fatal("warm spec '", spec, "' names no models");
    return expanded;
}

} // namespace fermihedral::api
