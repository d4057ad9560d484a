// Flag parsing shared by the bench binaries (bench/bench_util.h): a
// malformed integer flag exits 2 with the usage text instead of running
// with a silently wrong value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace digest {
namespace bench {
namespace {

BenchArgs ParseFlags(std::vector<std::string> flags) {
  std::vector<char*> argv = {const_cast<char*>("bench_test")};
  for (std::string& flag : flags) argv.push_back(flag.data());
  return BenchArgs::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgsTest, SeedParsesDecimalValues) {
  EXPECT_EQ(ParseFlags({"--seed=42"}).seed, 42u);
  EXPECT_EQ(ParseFlags({"--seed=0"}).seed, 0u);
  EXPECT_EQ(ParseFlags({"--seed=18446744073709551615"}).seed,
            18446744073709551615ull);
}

TEST(BenchArgsDeathTest, MalformedSeedExitsWithUsage) {
  for (const char* flag : {"--seed=abc", "--seed=12x", "--seed=-1",
                           "--seed=", "--seed= 7", "--seed=+7",
                           "--seed=18446744073709551616"}) {
    EXPECT_EXIT(ParseFlags({flag}), ::testing::ExitedWithCode(2),
                "invalid --seed value")
        << flag;
  }
}

TEST(BenchArgsDeathTest, UnsignedParserNamesTheFlag) {
  EXPECT_EXIT(BenchArgs::ParseUnsigned("bench_suite", "--repeats", "abc", {}),
              ::testing::ExitedWithCode(2), "invalid --repeats value 'abc'");
  EXPECT_EQ(BenchArgs::ParseUnsigned("bench_suite", "--warmup", "3", {}), 3u);
}

}  // namespace
}  // namespace bench
}  // namespace digest
