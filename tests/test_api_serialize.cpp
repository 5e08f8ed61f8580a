/**
 * @file
 * Property tests for the api/serialize.h text formats: random
 * valid encodings and synthetic compilation results must round-trip
 * bit-exactly (phases, qubit counts, hexfloat coefficients, group
 * structure), and corrupted inputs must parse to nullopt — never
 * throw, never half-parse.
 */

#include <gtest/gtest.h>

#include "api/serialize.h"
#include "common/gf2.h"
#include "common/logging.h"
#include "common/rng.h"
#include "encodings/linear.h"
#include "pauli/commuting_groups.h"

namespace fermihedral::api {
namespace {

/** Random invertible GF(2) matrix: row operations on identity. */
BitMatrix
randomInvertible(std::size_t n, Rng &rng)
{
    BitMatrix m = BitMatrix::identity(n);
    for (std::size_t step = 0; step < 4 * n; ++step) {
        const auto i = static_cast<std::size_t>(rng.nextBelow(n));
        const auto j = static_cast<std::size_t>(rng.nextBelow(n));
        if (i != j)
            m.row(i) ^= m.row(j);
    }
    return m;
}

/** A random valid encoding, optionally with extra phase twists. */
enc::FermionEncoding
randomEncoding(std::size_t modes, Rng &rng, bool twist_phases)
{
    auto encoding = enc::linearEncoding(randomInvertible(modes, rng));
    if (twist_phases) {
        for (auto &majorana : encoding.majoranas)
            majorana = majorana.withPhase(
                static_cast<int>(rng.nextBelow(4)));
    }
    return encoding;
}

TEST(SerializeEncoding, RandomValidEncodingsRoundTripExactly)
{
    Rng rng(20240501);
    for (int iteration = 0; iteration < 50; ++iteration) {
        const auto modes =
            static_cast<std::size_t>(1 + rng.nextBelow(8));
        const auto encoding =
            randomEncoding(modes, rng, iteration % 2 == 1);

        const std::string text = serializeEncoding(encoding);
        const auto parsed = tryParseEncoding(text);
        ASSERT_TRUE(parsed.has_value()) << text;
        EXPECT_EQ(parsed->modes, encoding.modes);
        EXPECT_EQ(parsed->numQubits(), encoding.numQubits());
        ASSERT_EQ(parsed->majoranas.size(),
                  encoding.majoranas.size());
        for (std::size_t i = 0; i < encoding.majoranas.size(); ++i) {
            // operator== includes the phase exponent.
            EXPECT_EQ(parsed->majoranas[i], encoding.majoranas[i]);
        }
        // Serialization is canonical: a second trip is identical.
        EXPECT_EQ(serializeEncoding(*parsed), text);
    }
}

TEST(SerializeEncoding, MalformedInputsReturnNullopt)
{
    Rng rng(7);
    const auto encoding = randomEncoding(3, rng, false);
    const std::string good = serializeEncoding(encoding);
    ASSERT_TRUE(tryParseEncoding(good).has_value());

    const std::string cases[] = {
        "",
        "garbage\n",
        "fermihedral-encoding v2\nmodes 3\n",       // bad version
        good.substr(0, good.size() / 2),            // truncated
        good + "trailing\n",                        // trailing data
        "fermihedral-encoding v1\nmodes 1\nqubits 1\n"
        "majoranas 2\nXQ\nZZ\n",                    // bad op char
        "fermihedral-encoding v1\nmodes 2\nqubits 2\n"
        "majoranas 2\nXX\nZZ\n",                    // count != 2N
        "fermihedral-encoding v1\nmodes 1\nqubits 2\n"
        "majoranas 2\nX\nZ\n",                      // width mismatch
    };
    for (const auto &text : cases)
        EXPECT_FALSE(tryParseEncoding(text).has_value()) << text;
}

TEST(SerializeEncoding, ParseEncodingIsFatalOnMalformed)
{
    EXPECT_THROW(parseEncoding("nonsense"), FatalError);
}

TEST(SerializeOutcome, RoundTripsAllProvenanceFields)
{
    Rng rng(99);
    SearchOutcome outcome;
    outcome.encoding = randomEncoding(4, rng, true);
    outcome.cost = 41;
    outcome.baselineCost = 54;
    outcome.annealedCost = 46;
    outcome.provedOptimal = true;
    outcome.satCalls = 17;

    const auto parsed = tryParseOutcome(serializeOutcome(outcome));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->cost, outcome.cost);
    EXPECT_EQ(parsed->baselineCost, outcome.baselineCost);
    EXPECT_EQ(parsed->annealedCost, outcome.annealedCost);
    EXPECT_EQ(parsed->provedOptimal, outcome.provedOptimal);
    EXPECT_EQ(parsed->satCalls, outcome.satCalls);
    EXPECT_EQ(parsed->encoding.majoranas,
              outcome.encoding.majoranas);
}

TEST(SerializeOutcome, NumericFieldsRejectLooseGrammar)
{
    Rng rng(5);
    SearchOutcome outcome;
    outcome.encoding = randomEncoding(2, rng, false);
    outcome.cost = 42;
    const std::string good = serializeOutcome(outcome);
    ASSERT_TRUE(tryParseOutcome(good).has_value());

    // strtoull would happily wrap "-1" or read "0x10"; the strict
    // reader must treat both as corruption, not as warm data.
    for (const char *bad_value : {"-1", "0x10", "+7", " 9", "9 ",
                                  "12345678901234567890"}) {
        std::string bad = good;
        const auto pos = bad.find("cost 42");
        ASSERT_NE(pos, std::string::npos);
        bad.replace(pos, 7, std::string("cost ") + bad_value);
        EXPECT_FALSE(tryParseOutcome(bad).has_value())
            << bad_value;
    }
}

/** A synthetic result with a random Hamiltonian and groups. */
CompilationResult
randomResult(Rng &rng)
{
    CompilationResult result;
    result.encoding = randomEncoding(
        1 + static_cast<std::size_t>(rng.nextBelow(5)), rng, true);
    result.strategy = rng.nextBool() ? "sat" : "sat+annealing";
    result.objective = rng.nextBool()
                           ? Objective::TotalWeight
                           : Objective::HamiltonianWeight;
    result.cost = static_cast<std::size_t>(rng.nextBelow(1000));
    result.baselineCost =
        static_cast<std::size_t>(rng.nextBelow(1000));
    result.annealedCost =
        static_cast<std::size_t>(rng.nextBelow(1000));
    result.provedOptimal = rng.nextBool();
    result.satCalls = static_cast<std::size_t>(rng.nextBelow(50));

    const std::size_t qubits = result.encoding.numQubits();
    pauli::PauliSum sum(qubits);
    const std::size_t terms = 1 + rng.nextBelow(20);
    for (std::size_t t = 0; t < terms; ++t) {
        pauli::PauliString string(qubits);
        for (std::size_t q = 0; q < qubits; ++q) {
            string.setOp(q, static_cast<pauli::PauliOp>(
                                rng.nextBelow(4)));
        }
        // Coefficients exercise the hexfloat path: signs, tiny and
        // large magnitudes, and values with no short decimal form.
        const double re = rng.nextGaussian() * 1e3;
        const double im =
            rng.nextBool(0.25) ? rng.nextGaussian() * 1e-7 : 0.0;
        sum.add({re, im}, string);
    }
    sum.simplify();
    result.qubitHamiltonian = sum;
    result.measurementGroups = pauli::groupQubitWiseCommuting(sum);
    result.validation = enc::validateEncoding(result.encoding);
    return result;
}

TEST(SerializeResult, RandomResultsRoundTripBitExactly)
{
    Rng rng(20240502);
    for (int iteration = 0; iteration < 40; ++iteration) {
        const CompilationResult result = randomResult(rng);
        const std::string text = serializeResult(result);
        const auto parsed = tryParseResult(text);
        ASSERT_TRUE(parsed.has_value()) << text;

        EXPECT_EQ(parsed->strategy, result.strategy);
        EXPECT_EQ(parsed->objective, result.objective);
        EXPECT_EQ(parsed->cost, result.cost);
        EXPECT_EQ(parsed->baselineCost, result.baselineCost);
        EXPECT_EQ(parsed->annealedCost, result.annealedCost);
        EXPECT_EQ(parsed->provedOptimal, result.provedOptimal);
        EXPECT_EQ(parsed->satCalls, result.satCalls);
        EXPECT_EQ(parsed->encoding.majoranas,
                  result.encoding.majoranas);

        // Coefficients must round-trip to the last bit.
        const auto &a = result.qubitHamiltonian.terms();
        const auto &b = parsed->qubitHamiltonian.terms();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].string, b[i].string);
            EXPECT_EQ(a[i].coefficient.real(),
                      b[i].coefficient.real());
            EXPECT_EQ(a[i].coefficient.imag(),
                      b[i].coefficient.imag());
        }
        ASSERT_EQ(parsed->measurementGroups.size(),
                  result.measurementGroups.size());
        for (std::size_t g = 0;
             g < result.measurementGroups.size(); ++g) {
            EXPECT_EQ(parsed->measurementGroups[g].basis,
                      result.measurementGroups[g].basis);
            EXPECT_EQ(parsed->measurementGroups[g].termIndices,
                      result.measurementGroups[g].termIndices);
        }
        // Canonical: serializing the parse reproduces the text.
        EXPECT_EQ(serializeResult(*parsed), text);
    }
}

TEST(SerializeResult, CompiledResultsRoundTripByteForByte)
{
    // Mapped Hamiltonians carry -0.0 coefficient parts; a parse
    // that re-folds the (trivial) string phase turns them into
    // +0.0, so these compiled results, unlike h2, would not
    // round-trip.
    for (const char *problem :
         {"h2", "hubbard:1x2", "hubbard:2x2", "syk:6"}) {
        RequestSpec spec;
        spec.problem = problem;
        spec.strategy = "bravyi-kitaev";
        const std::string text =
            serializeResult(Compiler().compile(buildRequest(spec)));
        const auto parsed = tryParseResult(text);
        ASSERT_TRUE(parsed.has_value()) << problem;
        EXPECT_EQ(serializeResult(*parsed), text) << problem;
    }
}

TEST(SerializeResult, CorruptionsAreRejectedNotMisparsed)
{
    Rng rng(1234);
    const CompilationResult result = randomResult(rng);
    const std::string good = serializeResult(result);
    ASSERT_TRUE(tryParseResult(good).has_value());

    // Flip a byte at many positions: every corruption either still
    // parses to the same serialization (byte happened to be in a
    // label we replaced with an equally valid one) or is rejected;
    // it must never crash or mis-parse silently into junk sizes.
    for (std::size_t pos = 0; pos < good.size();
         pos += 1 + pos / 7) {
        std::string bad = good;
        bad[pos] = bad[pos] == 'Q' ? 'R' : 'Q';
        const auto parsed = tryParseResult(bad);
        if (parsed) {
            EXPECT_EQ(serializeResult(*parsed), bad);
        }
    }
    EXPECT_FALSE(tryParseResult(good.substr(1)).has_value());
    EXPECT_FALSE(
        tryParseResult(good + "extra line\n").has_value());
    EXPECT_THROW(parseResult("not a result"), FatalError);
}

} // namespace
} // namespace fermihedral::api
