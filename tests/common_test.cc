#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "gtest/gtest.h"

namespace cloudsurv {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::InvalidArgument("bad").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::InvalidArgument("bad").message(), "bad");
  EXPECT_FALSE(Status::InvalidArgument("bad").ok());
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::NotFound("missing row").ToString(),
            "NotFound: missing row");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("a"));
  EXPECT_FALSE(Status::NotFound("a") == Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound("a") == Status::Internal("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r{Status::OK()};
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Result<int> Doubled(Result<int> in) {
  CLOUDSURV_ASSIGN_OR_RETURN(int v, in);
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Doubled(21), 42);
  Result<int> err = Doubled(Status::OutOfRange("x"));
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kOutOfRange);
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.UniformInt(0, 1000000) == b.UniformInt(0, 1000000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ForkIsIndependentOfParentConsumption) {
  Rng a(9);
  Rng fork_before = a.Fork(5);
  a.Uniform();
  a.Uniform();
  Rng fork_after = a.Fork(5);
  // Forks depend only on (seed, salt), not on how much the parent drew.
  EXPECT_DOUBLE_EQ(fork_before.Uniform(), fork_after.Uniform());
}

TEST(RngTest, ForksWithDifferentSaltsDiffer) {
  Rng a(9);
  Rng f1 = a.Fork(1);
  Rng f2 = a.Fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.UniformInt(0, 1 << 30) == f2.UniformInt(0, 1 << 30)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformIntCoversRangeInclusively) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, BernoulliRespectsProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

// std::mt19937_64 is the oracle for MersenneTwister64: the engine must
// reproduce the standard engine's stream draw for draw.

// Rng's seed mixing (SplitMix64 finalizer), restated so the oracle can be
// seeded the way Rng seeds its engine.
uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

TEST(MersenneTwister64Test, MatchesStandardEngineAcrossBlockBoundaries) {
  // 1,000 draws cross the first (312) and second (624) block boundaries:
  // the lazy first block, the first bulk twist and a steady-state one.
  for (uint64_t i = 0; i < 1000; ++i) {
    // Small seeds and full-width ones (every state word's high bits).
    const uint64_t seed = i % 2 == 0 ? i : SplitMix(i);
    MersenneTwister64 engine(seed);
    std::mt19937_64 oracle(seed);
    for (int k = 0; k < 1000; ++k) {
      ASSERT_EQ(engine(), oracle()) << "seed " << seed << " draw " << k;
    }
  }
}

TEST(MersenneTwister64Test, KnownAnswerForDefaultSeed) {
  // The C++ standard ([rand.predef]): the 10,000th consecutive output of
  // a default-constructed mt19937_64 is 9981545732273789042.
  MersenneTwister64 engine;
  uint64_t value = 0;
  for (int k = 0; k < 10000; ++k) value = engine();
  EXPECT_EQ(value, 9981545732273789042ULL);
  EXPECT_EQ(MersenneTwister64::default_seed, std::mt19937_64::default_seed);
  EXPECT_EQ(MersenneTwister64::min(), std::mt19937_64::min());
  EXPECT_EQ(MersenneTwister64::max(), std::mt19937_64::max());
}

TEST(MersenneTwister64Test, CopiesContinueIdentically) {
  // Copies taken before any draw, mid first block (before and after the
  // last word is seeded), at the block boundaries and in the second block.
  for (const int drawn : {0, 1, 5, 155, 156, 157, 311, 312, 313, 700}) {
    MersenneTwister64 engine(77);
    std::mt19937_64 oracle(77);
    for (int k = 0; k < drawn; ++k) {
      engine();
      oracle();
    }
    const MersenneTwister64 copied(engine);
    MersenneTwister64 assigned(1);
    for (int k = 0; k < 400; ++k) assigned();  // state to overwrite
    assigned = engine;
    MersenneTwister64 constructed = copied;
    for (int k = 0; k < 1000; ++k) {
      const uint64_t want = oracle();
      ASSERT_EQ(engine(), want) << "drawn " << drawn << " draw " << k;
      ASSERT_EQ(assigned(), want) << "drawn " << drawn << " draw " << k;
      ASSERT_EQ(constructed(), want) << "drawn " << drawn << " draw " << k;
    }
  }
}

TEST(MersenneTwister64Test, ShuffleMatchesStandardEngine) {
  for (uint64_t seed : {0ULL, 3ULL, 12345ULL}) {
    std::vector<int> got(1000), want(1000);
    std::iota(got.begin(), got.end(), 0);
    std::iota(want.begin(), want.end(), 0);
    Rng rng(seed);
    std::mt19937_64 oracle(SplitMix(seed));
    std::shuffle(got.begin(), got.end(), rng.engine());
    std::shuffle(want.begin(), want.end(), oracle);
    EXPECT_EQ(got, want) << "seed " << seed;
  }
}

TEST(MersenneTwister64Test, EveryRngSamplerMatchesStandardEngine) {
  // Rng(seed) draws from the engine seeded with SplitMix(seed); a fork
  // is Rng(SplitMix(seed ^ salt * golden)). Interleaving every sampler
  // for 400 rounds consumes well past one 312-word block.
  for (const bool forked : {false, true}) {
    Rng rng = forked ? Rng(21).Fork(4) : Rng(21);
    const uint64_t base =
        forked ? SplitMix(21 ^ (4 * 0x9E3779B97F4A7C15ULL)) : 21;
    std::mt19937_64 oracle(SplitMix(base));
    for (int k = 0; k < 400; ++k) {
      ASSERT_EQ(rng.Uniform(),
                std::uniform_real_distribution<double>(0.0, 1.0)(oracle));
      ASSERT_EQ(rng.Uniform(-2.0, 5.0),
                std::uniform_real_distribution<double>(-2.0, 5.0)(oracle));
      ASSERT_EQ(rng.UniformInt(-7, 1000),
                std::uniform_int_distribution<int64_t>(-7, 1000)(oracle));
      ASSERT_EQ(rng.Bernoulli(0.3),
                std::bernoulli_distribution(0.3)(oracle));
      ASSERT_EQ(rng.Normal(1.0, 2.0),
                std::normal_distribution<double>(1.0, 2.0)(oracle));
      ASSERT_EQ(rng.LogNormal(0.5, 1.5),
                std::lognormal_distribution<double>(0.5, 1.5)(oracle));
      ASSERT_EQ(rng.Exponential(0.25),
                std::exponential_distribution<double>(0.25)(oracle));
      ASSERT_EQ(rng.Weibull(1.5, 30.0),
                std::weibull_distribution<double>(1.5, 30.0)(oracle));
      // Small and large means take different std::poisson_distribution
      // branches (multiplication vs rejection).
      ASSERT_EQ(rng.Poisson(3.0),
                std::poisson_distribution<int64_t>(3.0)(oracle));
      ASSERT_EQ(rng.Poisson(80.0),
                std::poisson_distribution<int64_t>(80.0)(oracle));
    }
  }
}

TEST(StringUtilTest, SplitKeepsEmptyFields) {
  const auto parts = SplitString("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtilTest, SplitSingleField) {
  const auto parts = SplitString("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtilTest, JoinRoundTripsSplit) {
  const std::vector<std::string> parts = {"x", "y", "z"};
  EXPECT_EQ(JoinStrings(parts, ","), "x,y,z");
  EXPECT_EQ(SplitString(JoinStrings(parts, "|"), '|'), parts);
}

TEST(StringUtilTest, ToLowerAscii) {
  EXPECT_EQ(ToLowerAscii("AbC-123"), "abc-123");
}

TEST(StringUtilTest, StartsEndsWith) {
  EXPECT_TRUE(StartsWith("cloudsurv", "cloud"));
  EXPECT_FALSE(StartsWith("cloud", "cloudsurv"));
  EXPECT_TRUE(EndsWith("table.csv", ".csv"));
  EXPECT_FALSE(EndsWith("csv", "table.csv"));
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace(""), "");
}

TEST(StringUtilTest, FormatDouble) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 3), "-0.500");
}

}  // namespace
}  // namespace cloudsurv
