/**
 * @file
 * Tests for the unified Compiler facade, the strategy registry and
 * the cached async CompilerService — including the warm-cache
 * contract: a second request for an already-solved spec returns a
 * bit-identical CompilationResult without running any strategy
 * (and therefore without any SAT call).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "api/model_spec.h"
#include "api/serialize.h"
#include "api/service.h"
#include "api/strategy_registry.h"
#include "common/logging.h"
#include "common/timer.h"
#include "encodings/linear.h"
#include "fermion/models.h"

namespace fermihedral::api {
namespace {

CompilationRequest
fastRequest(std::size_t modes, const std::string &strategy)
{
    CompilationRequest request;
    request.modes = modes;
    request.strategy = strategy;
    request.stepTimeoutSeconds = 10.0;
    request.totalTimeoutSeconds = 30.0;
    return request;
}

/** A fresh scratch directory under the system temp path. */
class TempDir
{
  public:
    explicit TempDir(const char *tag)
        : dir(std::filesystem::temp_directory_path() /
              (std::string("fermihedral-") + tag + "-" +
               std::to_string(::getpid())))
    {
        std::filesystem::remove_all(dir);
    }

    ~TempDir() { std::filesystem::remove_all(dir); }

    std::string path() const { return dir.string(); }

  private:
    std::filesystem::path dir;
};

TEST(StrategyRegistry, BuiltinsAreRegistered)
{
    const auto names = registeredStrategyNames();
    for (const char *expected :
         {"jordan-wigner", "bravyi-kitaev", "parity",
          "ternary-tree", "sat", "sat-noalg", "sat+annealing"}) {
        EXPECT_TRUE(strategyRegistered(expected)) << expected;
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << expected;
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(StrategyRegistry, UnknownNameIsFatalWithSuggestion)
{
    try {
        makeStrategy("sat-noalgo");
        FAIL() << "expected FatalError";
    } catch (const FatalError &error) {
        EXPECT_NE(std::string(error.what())
                      .find("did you mean 'sat-noalg'"),
                  std::string::npos)
            << error.what();
    }
    // Far from everything: no suggestion, still fatal.
    EXPECT_THROW(makeStrategy("zzzzzzzzzz"), FatalError);
}

TEST(StrategyRegistry, CustomStrategyIsARegistrationNotARefactor)
{
    class FixedStrategy final : public EncodingStrategy
    {
      public:
        SearchOutcome
        search(const CompilationRequest &request) const override
        {
            SearchOutcome outcome;
            outcome.encoding =
                enc::parity(request.resolvedModes());
            outcome.cost = outcome.encoding.totalWeight();
            return outcome;
        }
    };
    if (!strategyRegistered("test-parity")) {
        registerStrategy("test-parity", [] {
            return std::make_unique<FixedStrategy>();
        });
    }
    EXPECT_THROW(registerStrategy("test-parity", [] {
        return std::unique_ptr<EncodingStrategy>(nullptr);
    }),
                 FatalError);

    Compiler compiler;
    const auto result =
        compiler.compile(fastRequest(3, "test-parity"));
    EXPECT_EQ(result.encoding.majoranas,
              enc::parity(3).majoranas);
    EXPECT_EQ(result.strategy, "test-parity");
}

TEST(Compiler, ClosedFormStrategiesMatchTheirBuilders)
{
    Compiler compiler;
    const auto jw = compiler.compile(fastRequest(4, "jordan-wigner"));
    EXPECT_EQ(jw.encoding.majoranas,
              enc::jordanWigner(4).majoranas);
    EXPECT_EQ(jw.cost, enc::jordanWigner(4).totalWeight());
    EXPECT_EQ(jw.baselineCost, enc::bravyiKitaev(4).totalWeight());
    EXPECT_EQ(jw.satCalls, 0u);
    EXPECT_TRUE(jw.validation.valid());
    EXPECT_EQ(jw.objective, Objective::TotalWeight);
    // No Hamiltonian: nothing to map or group.
    EXPECT_EQ(jw.qubitHamiltonian.size(), 0u);
    EXPECT_TRUE(jw.measurementGroups.empty());
}

TEST(Compiler, SatStrategyFindsTheProvedOptimum)
{
    // A total-weight descent starts at the paired ternary tree,
    // which meets the lower bound: proved without a SAT call.
    Compiler compiler;
    const auto result = compiler.compile(fastRequest(2, "sat"));
    EXPECT_TRUE(result.provedOptimal);
    EXPECT_LE(result.cost, result.baselineCost);
    EXPECT_EQ(result.cost, enc::totalWeightLowerBound(2));
    EXPECT_EQ(result.satCalls, 0u);
    EXPECT_TRUE(result.validation.valid());
    EXPECT_TRUE(result.validation.xyPairing);
    EXPECT_EQ(result.cost, result.encoding.totalWeight());
}

TEST(Compiler, HamiltonianRequestMapsAndGroups)
{
    const auto h = fermion::fermiHubbard1D(2, 1.0, 4.0);
    CompilationRequest request = fastRequest(0, "bravyi-kitaev");
    request.hamiltonian = h;
    Compiler compiler;
    const auto result = compiler.compile(request);

    EXPECT_EQ(result.objective, Objective::HamiltonianWeight);
    EXPECT_EQ(result.cost,
              enc::hamiltonianPauliWeight(h, result.encoding));
    EXPECT_TRUE(result.qubitHamiltonian.isHermitian());
    EXPECT_GT(result.qubitHamiltonian.size(), 0u);

    // The groups partition exactly the non-identity terms.
    std::vector<bool> seen(result.qubitHamiltonian.size(), false);
    for (const auto &group : result.measurementGroups) {
        for (const std::size_t index : group.termIndices) {
            ASSERT_LT(index, seen.size());
            EXPECT_FALSE(seen[index]);
            seen[index] = true;
        }
    }
    for (std::size_t i = 0; i < seen.size(); ++i) {
        const bool identity =
            result.qubitHamiltonian.terms()[i].string.isIdentity();
        EXPECT_EQ(seen[i], !identity);
    }
}

TEST(Compiler, ObjectiveMismatchIsFatal)
{
    CompilationRequest request = fastRequest(3, "sat");
    request.objective = Objective::HamiltonianWeight;
    EXPECT_THROW(Compiler().compile(request), FatalError);
    EXPECT_THROW(
        Compiler().compile(fastRequest(3, "sat+annealing")),
        FatalError);
    EXPECT_THROW(Compiler().compile(fastRequest(0, "sat")),
                 FatalError);

    // sat+annealing under an explicit total-weight objective would
    // produce a Hamiltonian-dependent encoding behind a cache key
    // that omits the Hamiltonian structure — rejected up front.
    CompilationRequest total = fastRequest(0, "sat+annealing");
    total.hamiltonian = fermion::fermiHubbard1D(2, 1.0, 4.0);
    total.objective = Objective::TotalWeight;
    EXPECT_THROW(Compiler().compile(total), FatalError);
}

TEST(CompilerService, WarmCacheHitIsBitIdenticalWithoutSat)
{
    // An Eq. 14 request, so that the cold compile makes SAT calls
    // (a total-weight one is proved without any).
    CompilerService service;
    CompilationRequest request = fastRequest(0, "sat");
    request.hamiltonian = fermion::fermiHubbard1D(2, 1.0, 4.0);
    request.stepTimeoutSeconds = 0.2;
    request.totalTimeoutSeconds = 0.5;

    const auto cold = service.compile(request);
    ASSERT_FALSE(cold.fromCache);
    EXPECT_GT(cold.satCalls, 0u);
    auto stats = service.cacheStats();
    EXPECT_EQ(stats.computes, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 0u);

    const auto warm = service.compile(request);
    EXPECT_TRUE(warm.fromCache);
    stats = service.cacheStats();
    // No strategy execution => no SAT call happened anywhere.
    EXPECT_EQ(stats.computes, 1u);
    EXPECT_EQ(stats.hits, 1u);
    // Bit-identical in every serialized field (the provenance
    // keeps the original solve's SAT-call count).
    EXPECT_EQ(serializeResult(warm), serializeResult(cold));
    EXPECT_EQ(warm.encoding.majoranas, cold.encoding.majoranas);
}

TEST(CompilerService, HamiltonianWarmHitReproducesMappedResult)
{
    const auto h = fermion::fermiHubbard1D(2, 1.0, 4.0);
    CompilationRequest request = fastRequest(0, "sat+annealing");
    request.hamiltonian = h;
    request.totalTimeoutSeconds = 20.0;

    CompilerService service;
    const auto cold = service.compile(request);
    const auto warm = service.compile(request);
    EXPECT_TRUE(warm.fromCache);
    EXPECT_EQ(service.cacheStats().computes, 1u);
    EXPECT_EQ(serializeResult(warm), serializeResult(cold));
    EXPECT_GT(warm.qubitHamiltonian.size(), 0u);
    EXPECT_FALSE(warm.measurementGroups.empty());
}

TEST(CompilerService, CanonicalKeySeparatesSpecsNotBudgets)
{
    const auto base = fastRequest(3, "sat");
    auto budget = base;
    budget.stepTimeoutSeconds *= 7;
    budget.threads = 4;
    EXPECT_EQ(CompilerService::canonicalRequestKey(base),
              CompilerService::canonicalRequestKey(budget));

    auto other_modes = base;
    other_modes.modes = 4;
    auto other_strategy = base;
    other_strategy.strategy = "sat-noalg";
    auto other_constraints = base;
    other_constraints.vacuumPreservation = false;
    EXPECT_NE(CompilerService::canonicalRequestKey(base),
              CompilerService::canonicalRequestKey(other_modes));
    EXPECT_NE(CompilerService::canonicalRequestKey(base),
              CompilerService::canonicalRequestKey(other_strategy));
    EXPECT_NE(
        CompilerService::canonicalRequestKey(base),
        CompilerService::canonicalRequestKey(other_constraints));

    // Hamiltonian-dependent keys hash the Eq. 14 structure.
    auto with_h = base;
    with_h.strategy = "bravyi-kitaev";
    with_h.hamiltonian = fermion::fermiHubbard1D(2, 1.0, 4.0);
    auto with_other_h = with_h;
    with_other_h.hamiltonian = fermion::fermiHubbard1D(3, 1.0, 4.0);
    EXPECT_NE(
        CompilerService::canonicalRequestKey(with_h),
        CompilerService::canonicalRequestKey(with_other_h));
}

TEST(CompilerService, SubmitBatchMatchesSyncResults)
{
    CompilerService service;
    std::vector<CompilationRequest> requests;
    for (const char *strategy :
         {"jordan-wigner", "bravyi-kitaev", "ternary-tree",
          "parity"})
        requests.push_back(fastRequest(3, strategy));
    auto batch = service.compileBatch(requests);
    ASSERT_EQ(batch.size(), requests.size());

    Compiler compiler;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        EXPECT_EQ(serializeResult(batch[i]),
                  serializeResult(compiler.compile(requests[i])));
    }

    // submit() of an unknown strategy fails fast on the caller.
    EXPECT_THROW(service.submit(fastRequest(3, "nope")),
                 FatalError);
}

TEST(CompilerService, AsyncFutureDeliversFailuresAsErrorResults)
{
    CompilerService service;
    CompilationRequest bad = fastRequest(3, "sat+annealing");
    // Valid strategy name, invalid spec (no Hamiltonian): the
    // diagnostic must surface as an Error-status result through
    // the future — future.get() never throws, no pool thread dies.
    auto future = service.submit(bad);
    const auto result = future.get();
    EXPECT_EQ(result.status, ResultStatus::Error);
    EXPECT_NE(result.statusMessage.find("sat+annealing"),
              std::string::npos)
        << result.statusMessage;

    // The synchronous path folds the same failure the same way.
    const auto sync = service.compile(bad);
    EXPECT_EQ(sync.status, ResultStatus::Error);

    const auto stats = service.serviceStats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.errors, 2u);
    EXPECT_EQ(stats.ok, 0u);
}

TEST(CompilerService, SatBeyondEightModesIsAnOrdinaryRequest)
{
    // No strategy builds the 4^N independence family, which would
    // allocate about 1.6 GB at 9 modes, and a total-weight `sat`
    // request is now answered at the bound with no model at all.
    // The time bound leaves a loaded sanitizer runner room and
    // still catches a family build.
    CompilerService service;
    CompilationRequest request = fastRequest(9, "sat");
    request.stepTimeoutSeconds = 0.2;
    request.totalTimeoutSeconds = 0.2;
    const Timer timer;
    const auto result = service.compile(request);
    EXPECT_LT(timer.seconds(), 2.0);
    EXPECT_EQ(result.status, ResultStatus::Ok) << result.statusMessage;
    EXPECT_TRUE(result.validation.valid());
}

TEST(Compiler, TotalWeightSatIsProvedAtEveryModeCount)
{
    // Every `modes:N` the wire admits, past the SAT model's 32-mode
    // limit too, is answered at the lower bound without a SAT call.
    // The budgets are the benchmark's frontier items' (0.6 s steps,
    // 20 s in all), under which Algorithm 1 from Bravyi-Kitaev
    // stops modes:7@sat-noalg unproved at 38 against a bound of 36.
    Compiler compiler;
    for (std::size_t modes = 1; modes <= pauli::PauliString::maxQubits;
         ++modes) {
        for (const char *strategy : {"sat", "sat-noalg"}) {
            RequestSpec spec;
            spec.problem = "modes:" + std::to_string(modes);
            spec.strategy = strategy;
            spec.stepTimeoutSeconds = 0.6;
            spec.totalTimeoutSeconds = 20.0;
            const auto result = compiler.compile(buildRequest(spec));
            ASSERT_EQ(result.status, ResultStatus::Ok)
                << spec.problem << "@" << strategy << ": "
                << result.statusMessage;
            EXPECT_TRUE(result.provedOptimal)
                << spec.problem << "@" << strategy;
            EXPECT_EQ(result.satCalls, 0u)
                << spec.problem << "@" << strategy;
            EXPECT_EQ(result.cost, enc::totalWeightLowerBound(modes))
                << spec.problem << "@" << strategy;
        }
    }
}

TEST(ModelSpec, HamiltonianFamiliesStopAtThirtyTwoModes)
{
    // A Hamiltonian's Majorana subsets are 64-bit masks: its
    // families are rejected past 32 modes while the spec is parsed
    // (FermionHamiltonian would otherwise panic), though `modes:N`
    // goes on to the 64-qubit ceiling.
    for (const char *problem :
         {"hubbard1d:17", "hubbard:4x5", "hubbard:1x17", "syk:33",
          "syk:40"}) {
        RequestSpec spec;
        spec.problem = problem;
        spec.strategy = "bravyi-kitaev";
        std::string error;
        EXPECT_FALSE(tryBuildRequest(spec, &error).has_value())
            << problem;
        EXPECT_NE(error.find("32-mode limit"), std::string::npos)
            << problem << ": " << error;
    }
    for (const char *problem : {"hubbard1d:16", "hubbard:4x4",
                                "modes:33", "modes:64"}) {
        RequestSpec spec;
        spec.problem = problem;
        spec.strategy = "bravyi-kitaev";
        std::string error;
        EXPECT_TRUE(tryBuildRequest(spec, &error).has_value())
            << problem << ": " << error;
    }
}

TEST(Compiler, SatAndSatNoalgRunOneSearch)
{
    // `alg` changes no search: both names return the same
    // deterministic descent, call for call.
    Compiler compiler;
    for (std::size_t modes = 2; modes <= 5; ++modes) {
        const auto sat = compiler.compile(fastRequest(modes, "sat"));
        const auto noalg =
            compiler.compile(fastRequest(modes, "sat-noalg"));
        ASSERT_EQ(sat.status, ResultStatus::Ok) << modes;
        ASSERT_EQ(noalg.status, ResultStatus::Ok) << modes;
        EXPECT_TRUE(sat.encoding.majoranas ==
                    noalg.encoding.majoranas)
            << modes << " modes";
        EXPECT_EQ(sat.cost, noalg.cost) << modes << " modes";
        EXPECT_EQ(sat.satCalls, noalg.satCalls) << modes << " modes";
    }
}

TEST(CompilerService, LruEvictsLeastRecentlyUsed)
{
    ServiceOptions options;
    options.cacheCapacity = 2;
    CompilerService service(options);
    service.compile(fastRequest(2, "jordan-wigner"));
    service.compile(fastRequest(3, "jordan-wigner"));
    service.compile(fastRequest(2, "jordan-wigner")); // hit, MRU
    service.compile(fastRequest(4, "jordan-wigner")); // evicts 3
    auto stats = service.cacheStats();
    EXPECT_EQ(stats.evictions, 1u);
    service.compile(fastRequest(3, "jordan-wigner")); // miss again
    stats = service.cacheStats();
    EXPECT_EQ(stats.computes, 4u);
    EXPECT_EQ(stats.hits, 1u);
}

TEST(CompilerService, DiskCacheSurvivesRestartAndRejectsCorruption)
{
    TempDir dir("disk-cache");
    ServiceOptions options;
    options.diskCachePath = dir.path();
    const auto request = fastRequest(2, "sat");

    std::string cold_text;
    {
        CompilerService service(options);
        cold_text = serializeResult(service.compile(request));
        EXPECT_EQ(service.cacheStats().computes, 1u);
    }

    // A fresh service (cold memory) must answer from disk.
    {
        CompilerService service(options);
        const auto warm = service.compile(request);
        EXPECT_TRUE(warm.fromCache);
        const auto stats = service.cacheStats();
        EXPECT_EQ(stats.computes, 0u);
        EXPECT_EQ(stats.diskHits, 1u);
        EXPECT_EQ(serializeResult(warm), cold_text);
    }

    // Corrupt every stored entry: the next lookup must count the
    // corruption, recompute, and rewrite a good entry.
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path())) {
        std::ofstream file(entry.path(), std::ios::trunc);
        file << "key v1|garbage\nnot an outcome\n";
    }
    {
        CompilerService service(options);
        const auto recomputed = service.compile(request);
        EXPECT_FALSE(recomputed.fromCache);
        const auto stats = service.cacheStats();
        EXPECT_EQ(stats.corrupted, 1u);
        EXPECT_EQ(stats.computes, 1u);
        EXPECT_EQ(serializeResult(recomputed), cold_text);

        CompilerService fresh(options);
        EXPECT_TRUE(fresh.compile(request).fromCache);
    }
}

TEST(CompilerService, DiskCacheRejectsTruncatedAndDamagedEntries)
{
    TempDir dir("disk-damage");
    ServiceOptions options;
    options.diskCachePath = dir.path();
    const auto request = fastRequest(2, "sat");

    std::string cold_text;
    {
        CompilerService service(options);
        cold_text = serializeResult(service.compile(request));
    }
    std::filesystem::path entry_path;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir.path()))
        entry_path = entry.path();
    ASSERT_FALSE(entry_path.empty());
    std::string good;
    {
        std::ifstream file(entry_path, std::ios::binary);
        std::ostringstream text;
        text << file.rdbuf();
        good = text.str();
    }
    ASSERT_EQ(good.rfind("fermihedral-cache v2 crc32 ", 0), 0u);

    const auto expectRejected = [&](const std::string &damaged,
                                    const char *what) {
        {
            std::ofstream file(entry_path, std::ios::binary |
                                               std::ios::trunc);
            file << damaged;
        }
        CompilerService service(options);
        const auto recomputed = service.compile(request);
        EXPECT_FALSE(recomputed.fromCache) << what;
        EXPECT_EQ(service.cacheStats().corrupted, 1u) << what;
        EXPECT_EQ(serializeResult(recomputed), cold_text) << what;
    };

    // A torn write: valid header, payload cut in half. The CRC
    // must reject it even though the prefix may still parse.
    expectRejected(good.substr(0, good.size() / 2), "truncated");
    // Crash before any byte landed.
    expectRejected("", "zero-length");
    // A single flipped bit deep in the payload.
    std::string flipped = good;
    flipped[flipped.size() - 2] =
        static_cast<char>(flipped[flipped.size() - 2] ^ 0x01);
    expectRejected(flipped, "bit-flip");
    // A pre-CRC v1 entry from an older build.
    expectRejected("key v1|strategy=sat|objective=total-weight\n",
                   "v1-format");

    // After each rejection the store rewrote a good entry.
    CompilerService fresh(options);
    EXPECT_TRUE(fresh.compile(request).fromCache);
}

TEST(CompilerService, CacheStatsJsonIsWellFormed)
{
    CompilerService service;
    service.compile(fastRequest(2, "jordan-wigner"));
    const std::string json = service.cacheStatsJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"computes\":1"), std::string::npos);
    EXPECT_NE(json.find("\"hits\":0"), std::string::npos);
}

} // namespace
} // namespace fermihedral::api
