#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>

#include "util/crc32.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace ru = readys::util;

TEST(Rng, DeterministicStreams) {
  ru::Rng a(1);
  ru::Rng b(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SplitIsIndependent) {
  ru::Rng a(1);
  ru::Rng child = a.split();
  // Parent and child streams must diverge.
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == child()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInRange) {
  ru::Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 7.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 7.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  ru::Rng rng(3);
  std::set<std::size_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(5));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.rbegin(), 4u);
}

TEST(Rng, UniformIndexRejectsEmptyRange) {
  // Regression: uniform_index(0) used to silently return 0, a valid-looking
  // index into an empty collection. It must fail loudly instead.
  ru::Rng rng(3);
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
  // The generator stream is still usable after the failed call.
  EXPECT_LT(rng.uniform_index(7), 7u);
}

TEST(Rng, NormalMoments) {
  ru::Rng rng(4);
  ru::RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, ShuffleIsPermutation) {
  ru::Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, StateRoundTripResumesExactStream) {
  // seed -> drain N -> snapshot -> keep draining. A second generator
  // restored from the snapshot must reproduce the tail exactly,
  // regardless of how the draws mix raw words, doubles, and normals.
  ru::Rng a(42);
  for (int i = 0; i < 257; ++i) {
    a();
    a.uniform();
    a.normal();
  }
  const ru::Rng::State snapshot = a.state();
  ru::Rng b(7);  // unrelated seed: everything must come from the state
  b.set_state(snapshot);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
    EXPECT_EQ(a.uniform(), b.uniform());
    EXPECT_EQ(a.normal(), b.normal());
  }
}

TEST(Rng, StateCapturesBoxMullerCache) {
  // normal() produces two values per Box-Muller round and caches the
  // second; a snapshot taken between the two must restore the cache, or
  // the restored stream would skip one normal and desynchronize.
  ru::Rng a(6);
  a.normal();  // cache now holds the second Box-Muller value
  ru::Rng b(8);
  b.set_state(a.state());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.normal(), b.normal());
}

TEST(Rng, SetStateLeavesOtherStreamsAlone) {
  ru::Rng a(10);
  ru::Rng c(10);
  ru::Rng b(11);
  b.set_state(b.state());  // self round-trip is a no-op
  (void)b;
  // `a` restored into a copy must not affect an independent generator.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a(), c());
}

TEST(Rng, SetStateRejectsAllZeroWords) {
  // xoshiro256** is stuck at zero forever from the all-zero state; a
  // corrupt checkpoint must not be able to install it.
  ru::Rng rng(1);
  EXPECT_THROW(rng.set_state(ru::Rng::State{0, 0, 0, 0, 0, 0}),
               std::invalid_argument);
}

TEST(Crc32, MatchesKnownVectors) {
  // Standard zlib/IEEE 802.3 check values.
  EXPECT_EQ(ru::crc32(""), 0x00000000u);
  EXPECT_EQ(ru::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(ru::crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(Crc32, SeedChainsIncrementalComputation) {
  const std::string data = "readys checkpoint payload";
  const auto whole = ru::crc32(data);
  const auto first = ru::crc32(data.substr(0, 10));
  EXPECT_EQ(ru::crc32(data.substr(10), first), whole);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::string data = "readys-ckpt/2\nepisode 7\n";
  const auto before = ru::crc32(data);
  data[5] = static_cast<char>(data[5] ^ 0x10);
  EXPECT_NE(ru::crc32(data), before);
}

TEST(Stats, SummaryKnownValues) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const auto s = ru::summarize(xs);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_NEAR(s.ci95_half_width, 1.96 * std::sqrt(2.5 / 5.0), 1e-12);
}

TEST(Stats, EmptySampleIsZero) {
  const auto s = ru::summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, Quantile) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(ru::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(ru::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(ru::quantile(xs, 0.5), 2.5);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ru::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SubmitReturnsFutureValue) {
  ru::ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ParallelForPropagatesException) {
  ru::ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 5) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(Csv, WritesHeaderAndRows) {
  const auto path =
      (std::filesystem::temp_directory_path() / "readys_test.csv").string();
  {
    ru::CsvWriter csv(path, {"a", "b"});
    csv.row(std::vector<std::string>{"x", "y,z"});
    csv.row(std::vector<double>{1.5, 2.0});
    EXPECT_THROW(csv.row(std::vector<std::string>{"only-one"}),
                 std::invalid_argument);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "x,\"y,z\"");
  std::filesystem::remove(path);
}

TEST(Csv, JoinAndSplit) {
  EXPECT_EQ(ru::join({"a", "b", "c"}, "-"), "a-b-c");
  const auto parts = ru::split("1,2,,3", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(Env, FallbacksAndParsing) {
  ::unsetenv("READYS_TEST_VAR");
  EXPECT_EQ(ru::env_int("READYS_TEST_VAR", 5), 5);
  ::setenv("READYS_TEST_VAR", "12", 1);
  EXPECT_EQ(ru::env_int("READYS_TEST_VAR", 5), 12);
  ::setenv("READYS_TEST_VAR", "0.5,1,2", 1);
  const auto xs = ru::env_double_list("READYS_TEST_VAR", {});
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[0], 0.5);
  ::setenv("READYS_TEST_VAR", "", 1);
  EXPECT_EQ(ru::env_int("READYS_TEST_VAR", 5), 5);
  // A malformed value fails loudly, naming the variable, instead of
  // falling back ("garbage") or truncating ("12x").
  for (const char* bad : {"garbage", "12x"}) {
    ::setenv("READYS_TEST_VAR", bad, 1);
    EXPECT_THROW(ru::env_int("READYS_TEST_VAR", 5), std::invalid_argument)
        << bad;
    EXPECT_THROW(ru::env_double("READYS_TEST_VAR", 0.5),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(ru::env_int_list("READYS_TEST_VAR", {}),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(ru::env_double_list("READYS_TEST_VAR", {}),
                 std::invalid_argument)
        << bad;
  }
  ::setenv("READYS_TEST_VAR", "12x", 1);
  try {
    ru::env_int("READYS_TEST_VAR", 5);
    ADD_FAILURE() << "12x must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("READYS_TEST_VAR"),
              std::string::npos);
  }
  ::unsetenv("READYS_TEST_VAR");
}

TEST(Table, AlignedRendering) {
  ru::Table t({"name", "value"});
  t.add_row({"x", ru::Table::num(1.23456, 2)});
  t.add_row({"longer-name", "9"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("---"), std::string::npos);
}

namespace {

/// Stream insertion with a visible side effect, to prove dropped log
/// messages never pay for formatting.
struct CountingFormat {
  static inline int formats = 0;
};

std::ostream& operator<<(std::ostream& os, const CountingFormat&) {
  ++CountingFormat::formats;
  return os << "formatted";
}

}  // namespace

TEST(Logging, DroppedMessagesSkipFormatting) {
  const ru::LogLevel prev = ru::log_level();
  ru::set_log_level(ru::LogLevel::kWarn);
  CountingFormat::formats = 0;
  ru::log_debug() << CountingFormat{} << 123;
  ru::log_info() << CountingFormat{};
  EXPECT_EQ(CountingFormat::formats, 0);
  ru::log_warn() << CountingFormat{};
  EXPECT_EQ(CountingFormat::formats, 1);
  ru::set_log_level(prev);
}

TEST(Logging, LevelThresholdIsInclusive) {
  const ru::LogLevel prev = ru::log_level();
  ru::set_log_level(ru::LogLevel::kError);
  // Only the message at (or above) the threshold formats.
  CountingFormat::formats = 0;
  ru::log_warn() << CountingFormat{};
  ru::log_error() << CountingFormat{};
  EXPECT_EQ(CountingFormat::formats, 1);
  ru::set_log_level(prev);
}
