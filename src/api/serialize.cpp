#include "api/serialize.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/logging.h"
#include "hw/topology.h"

namespace fermihedral::api {

namespace {

constexpr const char *kEncodingHeader = "fermihedral-encoding v1";
constexpr const char *kOutcomeHeader = "fermihedral-outcome v1";
constexpr const char *kResultHeader = "fermihedral-result v1";
constexpr const char *kRequestHeader = "fermihedral-request v1";

/** Bit-exact hexfloat rendering (C99 %a). */
std::string
hexDouble(double value)
{
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%a", value);
    return buffer;
}

/**
 * Line cursor over the serialized text. All take*() helpers set
 * `failed` instead of throwing, so tryParse*() stays silent on
 * corrupted input.
 */
struct Reader
{
    std::string_view text;
    std::size_t pos = 0;
    bool failed = false;

    /** Next line without its terminator; fails at end of input. */
    std::string_view
    takeLine()
    {
        if (failed || pos >= text.size()) {
            failed = true;
            return {};
        }
        const std::size_t eol = text.find('\n', pos);
        const std::size_t end =
            eol == std::string_view::npos ? text.size() : eol;
        std::string_view line = text.substr(pos, end - pos);
        pos = eol == std::string_view::npos ? text.size() : eol + 1;
        return line;
    }

    /** Consume a line that must equal `expected` verbatim. */
    void
    expectLine(std::string_view expected)
    {
        if (takeLine() != expected)
            failed = true;
    }

    /** Consume "<key> <value>" and return the value part. */
    std::string_view
    takeField(std::string_view key)
    {
        const std::string_view line = takeLine();
        if (failed || line.size() < key.size() + 2 ||
            line.substr(0, key.size()) != key ||
            line[key.size()] != ' ') {
            failed = true;
            return {};
        }
        return line.substr(key.size() + 1);
    }

    std::size_t
    takeSize(std::string_view key)
    {
        const std::string_view value = takeField(key);
        if (failed)
            return 0;
        // Strict decimal only: strtoull's wider grammar (signs,
        // whitespace, 0x) would let corrupted fields mis-parse
        // into huge values instead of being rejected. 18 digits
        // also keeps every accepted value below 2^63.
        if (value.empty() || value.size() > 18) {
            failed = true;
            return 0;
        }
        std::size_t parsed = 0;
        for (const char c : value) {
            if (c < '0' || c > '9') {
                failed = true;
                return 0;
            }
            parsed = parsed * 10 + static_cast<std::size_t>(c - '0');
        }
        return parsed;
    }

    bool
    takeBool(std::string_view key)
    {
        const std::string_view value = takeField(key);
        if (value == "0")
            return false;
        if (value == "1")
            return true;
        failed = true;
        return false;
    }

    /** True when every byte of the input has been consumed. */
    bool
    atEnd() const
    {
        return !failed && pos >= text.size();
    }
};

/** Hexfloat (or any strtod-accepted) token -> double. */
std::optional<double>
parseDouble(std::string_view token)
{
    const std::string copy(token);
    char *end = nullptr;
    const double value = std::strtod(copy.c_str(), &end);
    if (copy.empty() || end != copy.c_str() + copy.size())
        return std::nullopt;
    return value;
}

/**
 * Validate and parse a Pauli label without going through the fatal
 * path of PauliString::fromLabel, so corrupted input stays silent.
 */
std::optional<pauli::PauliString>
parseLabel(std::string_view label, std::size_t expected_qubits)
{
    std::size_t prefix = 0;
    while (prefix < label.size() &&
           (label[prefix] == '-' || label[prefix] == '+' ||
            label[prefix] == 'i'))
        ++prefix;
    const std::string_view ops = label.substr(prefix);
    if (ops.size() != expected_qubits ||
        ops.size() > pauli::PauliString::maxQubits)
        return std::nullopt;
    for (const char c : ops) {
        if (c != 'I' && c != 'X' && c != 'Y' && c != 'Z')
            return std::nullopt;
    }
    return pauli::PauliString::fromLabel(label);
}

void
appendEncoding(std::ostringstream &out,
               const enc::FermionEncoding &encoding)
{
    out << kEncodingHeader << '\n'
        << "modes " << encoding.modes << '\n'
        << "qubits " << encoding.numQubits() << '\n'
        << "majoranas " << encoding.majoranas.size() << '\n';
    for (const auto &majorana : encoding.majoranas)
        out << majorana.label() << '\n';
}

std::optional<enc::FermionEncoding>
readEncoding(Reader &reader)
{
    reader.expectLine(kEncodingHeader);
    enc::FermionEncoding encoding;
    encoding.modes = reader.takeSize("modes");
    const std::size_t qubits = reader.takeSize("qubits");
    const std::size_t count = reader.takeSize("majoranas");
    if (reader.failed || qubits > pauli::PauliString::maxQubits ||
        count != 2 * encoding.modes)
        return std::nullopt;
    encoding.majoranas.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const auto string = parseLabel(reader.takeLine(), qubits);
        if (reader.failed || !string)
            return std::nullopt;
        encoding.majoranas.push_back(*string);
    }
    return encoding;
}

void
appendOutcomeFields(std::ostringstream &out,
                    const SearchOutcome &outcome)
{
    out << "cost " << outcome.cost << '\n'
        << "baseline " << outcome.baselineCost << '\n'
        << "annealed " << outcome.annealedCost << '\n'
        << "optimal " << (outcome.provedOptimal ? 1 : 0) << '\n'
        << "satcalls " << outcome.satCalls << '\n';
}

std::optional<SearchOutcome>
readOutcomeFields(Reader &reader)
{
    SearchOutcome outcome;
    outcome.cost = reader.takeSize("cost");
    outcome.baselineCost = reader.takeSize("baseline");
    outcome.annealedCost = reader.takeSize("annealed");
    outcome.provedOptimal = reader.takeBool("optimal");
    outcome.satCalls = reader.takeSize("satcalls");
    if (reader.failed)
        return std::nullopt;
    return outcome;
}

std::optional<Objective>
objectiveFromName(std::string_view name)
{
    if (name == objectiveName(Objective::TotalWeight))
        return Objective::TotalWeight;
    if (name == objectiveName(Objective::HamiltonianWeight))
        return Objective::HamiltonianWeight;
    if (name == objectiveName(Objective::RoutedCost))
        return Objective::RoutedCost;
    return std::nullopt;
}

} // namespace

std::string
serializeEncoding(const enc::FermionEncoding &encoding)
{
    std::ostringstream out;
    appendEncoding(out, encoding);
    return out.str();
}

std::optional<enc::FermionEncoding>
tryParseEncoding(std::string_view text)
{
    Reader reader{text};
    const auto encoding = readEncoding(reader);
    if (!encoding || !reader.atEnd())
        return std::nullopt;
    return encoding;
}

enc::FermionEncoding
parseEncoding(std::string_view text)
{
    auto encoding = tryParseEncoding(text);
    if (!encoding)
        fatal("malformed serialized FermionEncoding (expected the '",
              kEncodingHeader, "' format)");
    return *std::move(encoding);
}

std::string
serializeOutcome(const SearchOutcome &outcome)
{
    std::ostringstream out;
    out << kOutcomeHeader << '\n';
    appendOutcomeFields(out, outcome);
    appendEncoding(out, outcome.encoding);
    return out.str();
}

std::optional<SearchOutcome>
tryParseOutcome(std::string_view text)
{
    Reader reader{text};
    reader.expectLine(kOutcomeHeader);
    auto outcome = readOutcomeFields(reader);
    if (!outcome)
        return std::nullopt;
    const auto encoding = readEncoding(reader);
    if (!encoding || !reader.atEnd())
        return std::nullopt;
    outcome->encoding = *encoding;
    return outcome;
}

std::string
serializeResult(const CompilationResult &result)
{
    std::ostringstream out;
    out << kResultHeader << '\n'
        << "strategy " << result.strategy << '\n'
        << "objective " << objectiveName(result.objective) << '\n';
    appendOutcomeFields(out, result);
    appendEncoding(out, result.encoding);

    const auto &terms = result.qubitHamiltonian.terms();
    out << "hamiltonian " << result.qubitHamiltonian.numQubits()
        << ' ' << terms.size() << '\n';
    for (const auto &term : terms) {
        out << hexDouble(term.coefficient.real()) << ' '
            << hexDouble(term.coefficient.imag()) << ' '
            << term.string.label() << '\n';
    }
    out << "groups " << result.measurementGroups.size() << '\n';
    for (const auto &group : result.measurementGroups) {
        out << group.basis.label() << ' '
            << group.termIndices.size();
        for (const std::size_t index : group.termIndices)
            out << ' ' << index;
        out << '\n';
    }
    return out.str();
}

std::optional<CompilationResult>
tryParseResult(std::string_view text)
{
    Reader reader{text};
    reader.expectLine(kResultHeader);
    CompilationResult result;
    result.strategy = std::string(reader.takeField("strategy"));
    const auto objective =
        objectiveFromName(reader.takeField("objective"));
    const auto outcome = readOutcomeFields(reader);
    if (reader.failed || !objective || !outcome)
        return std::nullopt;
    static_cast<SearchOutcome &>(result) = *outcome;
    result.objective = *objective;

    const auto encoding = readEncoding(reader);
    if (!encoding)
        return std::nullopt;
    result.encoding = *encoding;

    // "hamiltonian <qubits> <terms>"
    const std::string_view ham = reader.takeField("hamiltonian");
    std::size_t ham_qubits = 0, term_count = 0;
    {
        const std::string copy(ham);
        char *end = nullptr;
        ham_qubits = std::strtoull(copy.c_str(), &end, 10);
        if (end == copy.c_str() || *end != ' ')
            return std::nullopt;
        char *end2 = nullptr;
        term_count = std::strtoull(end + 1, &end2, 10);
        if (end2 == end + 1 || *end2 != '\0')
            return std::nullopt;
    }
    if (ham_qubits > pauli::PauliString::maxQubits)
        return std::nullopt;
    result.qubitHamiltonian = pauli::PauliSum(ham_qubits);
    for (std::size_t i = 0; i < term_count; ++i) {
        const std::string_view line = reader.takeLine();
        if (reader.failed)
            return std::nullopt;
        const std::size_t first = line.find(' ');
        const std::size_t second =
            first == std::string_view::npos
                ? std::string_view::npos
                : line.find(' ', first + 1);
        if (second == std::string_view::npos)
            return std::nullopt;
        const auto re = parseDouble(line.substr(0, first));
        const auto im =
            parseDouble(line.substr(first + 1, second - first - 1));
        const auto string =
            parseLabel(line.substr(second + 1), ham_qubits);
        if (!re || !im || !string || string->phaseExp() != 0)
            return std::nullopt;
        // Verbatim: folding the (trivial) phase would turn a -0.0
        // coefficient part into +0.0 and break the byte round trip.
        result.qubitHamiltonian.add(
            pauli::PauliTerm{{*re, *im}, *string});
    }

    const std::size_t group_count = reader.takeSize("groups");
    if (reader.failed)
        return std::nullopt;
    result.measurementGroups.reserve(group_count);
    for (std::size_t g = 0; g < group_count; ++g) {
        const std::string_view line = reader.takeLine();
        if (reader.failed)
            return std::nullopt;
        const std::size_t first = line.find(' ');
        if (first == std::string_view::npos)
            return std::nullopt;
        const auto basis =
            parseLabel(line.substr(0, first), ham_qubits);
        if (!basis)
            return std::nullopt;
        pauli::CommutingGroup group;
        group.basis = *basis;
        const std::string rest(line.substr(first + 1));
        const char *cursor = rest.c_str();
        char *end = nullptr;
        const std::size_t index_count =
            std::strtoull(cursor, &end, 10);
        if (end == cursor)
            return std::nullopt;
        cursor = end;
        for (std::size_t i = 0; i < index_count; ++i) {
            if (*cursor != ' ')
                return std::nullopt;
            ++cursor;
            const std::size_t index = std::strtoull(cursor, &end, 10);
            if (end == cursor)
                return std::nullopt;
            if (index >= term_count)
                return std::nullopt;
            group.termIndices.push_back(index);
            cursor = end;
        }
        if (*cursor != '\0')
            return std::nullopt;
        result.measurementGroups.push_back(std::move(group));
    }
    if (!reader.atEnd())
        return std::nullopt;
    result.validation = enc::validateEncoding(result.encoding);
    return result;
}

std::string
serializeRequestSpec(const RequestSpec &spec)
{
    std::ostringstream out;
    out << kRequestHeader << '\n'
        << "problem " << spec.problem << '\n'
        << "strategy " << spec.strategy << '\n'
        << "objective " << objectiveName(spec.objective) << '\n'
        << "alg " << (spec.algebraicIndependence ? 1 : 0) << '\n'
        << "vac " << (spec.vacuumPreservation ? 1 : 0) << '\n'
        << "step-timeout " << hexDouble(spec.stepTimeoutSeconds)
        << '\n'
        << "total-timeout " << hexDouble(spec.totalTimeoutSeconds)
        << '\n'
        << "deadline " << hexDouble(spec.deadlineSeconds) << '\n';
    // Optional trailing line: only emitted when a topology is set,
    // so topology-free requests stay byte-identical to the format
    // the v1 wire fixtures pin.
    if (!spec.topology.empty())
        out << "topology " << spec.topology << '\n';
    return out.str();
}

std::optional<RequestSpec>
tryParseRequestSpec(std::string_view text)
{
    Reader reader{text};
    reader.expectLine(kRequestHeader);
    RequestSpec spec;
    spec.problem = std::string(reader.takeField("problem"));
    spec.strategy = std::string(reader.takeField("strategy"));
    const std::string_view objective =
        reader.takeField("objective");
    if (objective == objectiveName(Objective::Auto))
        spec.objective = Objective::Auto;
    else if (const auto parsed = objectiveFromName(objective))
        spec.objective = *parsed;
    else
        return std::nullopt;
    spec.algebraicIndependence = reader.takeBool("alg");
    spec.vacuumPreservation = reader.takeBool("vac");
    const auto step =
        parseDouble(reader.takeField("step-timeout"));
    const auto total =
        parseDouble(reader.takeField("total-timeout"));
    const auto deadline =
        parseDouble(reader.takeField("deadline"));
    if (reader.failed || !step || !total || !deadline)
        return std::nullopt;
    // Budgets are durations: NaN or negatives would silently turn
    // into "no limit" downstream, so reject them here.
    if (!(*step >= 0.0) || !(*total >= 0.0) || !(*deadline >= 0.0))
        return std::nullopt;
    spec.stepTimeoutSeconds = *step;
    spec.totalTimeoutSeconds = *total;
    spec.deadlineSeconds = *deadline;
    if (!reader.atEnd()) {
        spec.topology =
            std::string(reader.takeField("topology"));
        // The spec must name a real topology: rejecting here turns
        // a peer's bad bytes into a typed parse failure instead of
        // a fatal downstream.
        if (reader.failed || !reader.atEnd() ||
            !hw::Topology::tryParseSpec(spec.topology))
            return std::nullopt;
    }
    // A routed-cost objective without a topology could never
    // compile; reject it at the wire boundary so the daemon
    // answers with a typed error result instead of crashing.
    if (spec.objective == Objective::RoutedCost &&
        spec.topology.empty())
        return std::nullopt;
    return spec;
}

CompilationResult
parseResult(std::string_view text)
{
    auto result = tryParseResult(text);
    if (!result)
        fatal("malformed serialized CompilationResult (expected "
              "the '", kResultHeader, "' format)");
    return *std::move(result);
}

} // namespace fermihedral::api
