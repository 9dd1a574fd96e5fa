// Crash-safe checkpointing, readys-ckpt/2 edition: full-state round
// trips (weights + optimizer + RNG streams + progress), CRC-guarded
// corruption detection with fallback to the newest valid retained file,
// last-K retention, stale-tmp hygiene, truncation fuzzing at every byte
// offset, legacy v1 migration, and trainer-level --resume that is
// bit-identical to the uninterrupted run.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "dag/cholesky.hpp"
#include "nn/mlp.hpp"
#include "nn/serialize.hpp"
#include "obs/obs.hpp"
#include "rl/agent.hpp"
#include "rl/checkpoint.hpp"
#include "rl/ppo.hpp"
#include "rl/vec_env.hpp"
#include "sim/cost_model.hpp"
#include "sim/platform.hpp"

namespace fs = std::filesystem;
namespace rd = readys::dag;
namespace rl = readys::rl;
namespace rn = readys::nn;
namespace ro = readys::obs;
namespace rs = readys::sim;
using readys::util::Rng;

namespace {

/// Fresh (removed + unique) scratch directory under the system tmp dir.
std::string scratch_dir(const char* name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

bool same_parameters(rn::Module& a, rn::Module& b) {
  return rn::serialize_parameters(a) == rn::serialize_parameters(b);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

/// A representative CheckpointData carrying every field.
rl::CheckpointData sample_data() {
  rl::CheckpointData d;
  d.progress = {42, 7, 2, 1, 1};
  d.trainer = "a2c";
  d.env_seed = 99;
  d.num_envs = 4;
  d.stream_seed = 0xFEEDFACECAFEBEEFULL;
  Rng r(123);
  r.normal();  // populate the Box-Muller cache so it round-trips too
  d.rngs = {{"sample", r.state()}};
  d.optimizer = {"adam 3 0"};
  return d;
}

void expect_data_eq(const rl::CheckpointData& a, const rl::CheckpointData& b) {
  EXPECT_EQ(a.progress.episode, b.progress.episode);
  EXPECT_EQ(a.progress.updates, b.progress.updates);
  EXPECT_EQ(a.progress.skipped_updates, b.progress.skipped_updates);
  EXPECT_EQ(a.progress.rollbacks, b.progress.rollbacks);
  EXPECT_EQ(a.progress.divergent_streak, b.progress.divergent_streak);
  EXPECT_EQ(a.trainer, b.trainer);
  EXPECT_EQ(a.env_seed, b.env_seed);
  EXPECT_EQ(a.num_envs, b.num_envs);
  EXPECT_EQ(a.stream_seed, b.stream_seed);
  EXPECT_EQ(a.rngs, b.rngs);
  EXPECT_EQ(a.optimizer, b.optimizer);
}

}  // namespace

TEST(Checkpoint, SaveLoadRoundTripsEveryField) {
  const auto dir = scratch_dir("readys-ckpt-roundtrip");
  Rng rng1(1);
  Rng rng2(2);
  rn::Mlp a({4, 8, 2}, rng1);
  rn::Mlp b({4, 8, 2}, rng2);
  ASSERT_FALSE(same_parameters(a, b));

  const rl::CheckpointData saved = sample_data();
  rl::save_checkpoint(dir, a, saved);
  rl::CheckpointData loaded;
  ASSERT_TRUE(rl::load_checkpoint(dir, b, loaded));
  expect_data_eq(saved, loaded);
  EXPECT_TRUE(same_parameters(a, b));
  // Retained file + LATEST pointer; a successful save leaves no tmp.
  EXPECT_TRUE(fs::exists(rl::checkpoint_file_path(dir, 1)));
  EXPECT_EQ(read_file(rl::latest_pointer_path(dir)), "checkpoint.1.txt\n");
  EXPECT_FALSE(fs::exists(rl::checkpoint_file_path(dir, 1) + ".tmp"));
  EXPECT_FALSE(fs::exists(rl::latest_pointer_path(dir) + ".tmp"));
  fs::remove_all(dir);
}

TEST(Checkpoint, MissingCheckpointReturnsFalseAndTouchesNothing) {
  const auto dir = scratch_dir("readys-ckpt-missing");
  Rng rng(3);
  rn::Mlp m({3, 3}, rng);
  const auto before = rn::serialize_parameters(m);
  rl::CheckpointData d;
  d.progress = {5, 9, 0, 0, 0};
  EXPECT_FALSE(rl::load_checkpoint(dir, m, d));
  EXPECT_EQ(d.progress.episode, 5);
  EXPECT_EQ(d.progress.updates, 9u);
  EXPECT_EQ(rn::serialize_parameters(m), before);
}

TEST(Checkpoint, RetentionKeepsNewestKAndLatestTracksHead) {
  const auto dir = scratch_dir("readys-ckpt-retention");
  Rng rng(4);
  rn::Mlp m({3, 4, 2}, rng);
  rl::CheckpointData d = sample_data();
  for (int ep = 1; ep <= 5; ++ep) {
    d.progress.episode = ep;
    rl::save_checkpoint(dir, m, d, {/*retain=*/3});
  }
  EXPECT_FALSE(fs::exists(rl::checkpoint_file_path(dir, 1)));
  EXPECT_FALSE(fs::exists(rl::checkpoint_file_path(dir, 2)));
  EXPECT_TRUE(fs::exists(rl::checkpoint_file_path(dir, 3)));
  EXPECT_TRUE(fs::exists(rl::checkpoint_file_path(dir, 4)));
  EXPECT_TRUE(fs::exists(rl::checkpoint_file_path(dir, 5)));
  EXPECT_EQ(read_file(rl::latest_pointer_path(dir)), "checkpoint.5.txt\n");

  rl::CheckpointData loaded;
  ASSERT_TRUE(rl::load_checkpoint(dir, m, loaded));
  EXPECT_EQ(loaded.progress.episode, 5);
  fs::remove_all(dir);
}

TEST(Checkpoint, StaleTmpFromKilledWriteIsIgnoredAndRemoved) {
  // Simulates a kill mid-checkpoint: the previous complete checkpoint is
  // on disk and a torn .tmp sits next to it. Loading restores the
  // complete one; the next save sweeps the stale tmp.
  const auto dir = scratch_dir("readys-ckpt-killed");
  Rng rng1(5);
  Rng rng2(6);
  rn::Mlp a({4, 6, 2}, rng1);
  rn::Mlp b({4, 6, 2}, rng2);
  rl::CheckpointData d = sample_data();
  d.progress.episode = 10;
  rl::save_checkpoint(dir, a, d);
  const std::string stale = rl::checkpoint_file_path(dir, 2) + ".tmp";
  write_file(stale, "readys-ckpt/2\ntrainer a2c\nepisode 99\nupd");

  rl::CheckpointData loaded;
  ASSERT_TRUE(rl::load_checkpoint(dir, b, loaded));
  EXPECT_EQ(loaded.progress.episode, 10);
  EXPECT_TRUE(same_parameters(a, b));

  rl::save_checkpoint(dir, a, d);
  EXPECT_FALSE(fs::exists(stale));
  fs::remove_all(dir);
}

TEST(Checkpoint, OnlyTmpPresentCountsAsMissing) {
  const auto dir = scratch_dir("readys-ckpt-only-tmp");
  fs::create_directories(dir);
  write_file(rl::checkpoint_file_path(dir, 1) + ".tmp", "garbage");
  Rng rng(7);
  rn::Mlp m({3, 3}, rng);
  rl::CheckpointData d;
  EXPECT_FALSE(rl::load_checkpoint(dir, m, d));
  fs::remove_all(dir);
}

TEST(Checkpoint, BitFlippedLatestFallsBackToPreviousAndCountsMetric) {
  const auto dir = scratch_dir("readys-ckpt-bitflip");
  Rng rng1(8);
  Rng rng2(9);
  rn::Mlp a({4, 6, 2}, rng1);
  rn::Mlp b({4, 6, 2}, rng2);
  rl::CheckpointData d = sample_data();
  d.progress.episode = 1;
  rl::save_checkpoint(dir, a, d);
  const auto good = rn::serialize_parameters(a);
  // Second checkpoint with different weights, then flip one bit in it.
  a.parameters()[0].mutable_value()[0] += 1.0;
  d.progress.episode = 2;
  rl::save_checkpoint(dir, a, d);
  const std::string newest = rl::checkpoint_file_path(dir, 2);
  std::string blob = read_file(newest);
  blob[blob.size() / 2] = static_cast<char>(blob[blob.size() / 2] ^ 0x01);
  write_file(newest, blob);

  const bool installed = ro::install(ro::TelemetryConfig{});
  const std::uint64_t before =
      ro::telemetry() ? ro::telemetry()->ckpt_fallbacks.total() : 0;
  rl::CheckpointData loaded;
  ASSERT_TRUE(rl::load_checkpoint(dir, b, loaded));
  EXPECT_EQ(loaded.progress.episode, 1);  // the older, intact file
  EXPECT_EQ(rn::serialize_parameters(b), good);
  if (ro::telemetry() != nullptr) {
    EXPECT_GT(ro::telemetry()->ckpt_fallbacks.total(), before);
  }
  if (installed) ro::shutdown();
  fs::remove_all(dir);
}

TEST(Checkpoint, TruncatedLatestFallsBackToPrevious) {
  const auto dir = scratch_dir("readys-ckpt-truncated");
  Rng rng1(10);
  Rng rng2(11);
  rn::Mlp a({4, 6, 2}, rng1);
  rn::Mlp b({4, 6, 2}, rng2);
  rl::CheckpointData d = sample_data();
  d.progress.episode = 1;
  rl::save_checkpoint(dir, a, d);
  const auto good = rn::serialize_parameters(a);
  a.parameters()[0].mutable_value()[0] += 1.0;
  d.progress.episode = 2;
  rl::save_checkpoint(dir, a, d);
  const std::string newest = rl::checkpoint_file_path(dir, 2);
  fs::resize_file(newest, fs::file_size(newest) / 2);

  rl::CheckpointData loaded;
  ASSERT_TRUE(rl::load_checkpoint(dir, b, loaded));
  EXPECT_EQ(loaded.progress.episode, 1);
  EXPECT_EQ(rn::serialize_parameters(b), good);
  fs::remove_all(dir);
}

TEST(Checkpoint, AllFilesCorruptThrowsAndTouchesNothing) {
  const auto dir = scratch_dir("readys-ckpt-all-corrupt");
  Rng rng1(12);
  rn::Mlp a({4, 6, 2}, rng1);
  rl::CheckpointData d = sample_data();
  rl::save_checkpoint(dir, a, d);
  rl::save_checkpoint(dir, a, d);
  for (int i = 1; i <= 2; ++i) {
    const std::string p = rl::checkpoint_file_path(dir, i);
    fs::resize_file(p, fs::file_size(p) / 3);
  }
  Rng rng2(13);
  rn::Mlp b({4, 6, 2}, rng2);
  const auto before = rn::serialize_parameters(b);
  rl::CheckpointData loaded;
  EXPECT_THROW(rl::load_checkpoint(dir, b, loaded), std::runtime_error);
  EXPECT_EQ(rn::serialize_parameters(b), before);
  fs::remove_all(dir);
}

TEST(Checkpoint, EveryTruncationOffsetOfCheckpointBlobIsRejected) {
  Rng rng1(14);
  rn::Mlp a({3, 4, 2}, rng1);
  const std::string blob = rl::serialize_checkpoint(a, sample_data());
  Rng rng2(15);
  rn::Mlp b({3, 4, 2}, rng2);
  const auto pristine = rn::serialize_parameters(b);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    rl::CheckpointData d;
    EXPECT_THROW(rl::deserialize_checkpoint(b, d, blob.substr(0, len)),
                 std::runtime_error)
        << "prefix of length " << len << " was accepted";
    EXPECT_EQ(rn::serialize_parameters(b), pristine)
        << "prefix of length " << len << " partially applied";
  }
  // The untruncated blob still loads, so the loop above proved rejection
  // rather than a broken serializer.
  rl::CheckpointData d;
  rl::deserialize_checkpoint(b, d, blob);
  EXPECT_TRUE(same_parameters(a, b));
}

TEST(Checkpoint, EveryTruncationOffsetOfWeightsBlobIsRejected) {
  Rng rng1(16);
  rn::Mlp a({3, 4, 2}, rng1);
  const std::string blob = rn::serialize_parameters(a);
  Rng rng2(17);
  rn::Mlp b({3, 4, 2}, rng2);
  const auto pristine = rn::serialize_parameters(b);
  for (std::size_t len = 0; len < blob.size(); ++len) {
    EXPECT_THROW(rn::deserialize_parameters(b, blob.substr(0, len)),
                 std::runtime_error)
        << "prefix of length " << len << " was accepted";
    EXPECT_EQ(rn::serialize_parameters(b), pristine)
        << "prefix of length " << len << " partially applied";
  }
  rn::deserialize_parameters(b, blob);
  EXPECT_TRUE(same_parameters(a, b));
}

TEST(Checkpoint, LegacyV1FileIsRejectedNamingTheFormat) {
  // v1 files are not migrated. A resume that found only one must fail
  // loudly (never start from scratch) and leave the module untouched.
  const auto dir = scratch_dir("readys-ckpt-v1");
  fs::create_directories(dir);
  Rng rng1(18);
  Rng rng2(19);
  rn::Mlp a({4, 6, 2}, rng1);
  rn::Mlp b({4, 6, 2}, rng2);
  const auto pristine = rn::serialize_parameters(b);
  write_file(rl::checkpoint_path(dir), "readys-checkpoint v1\nepisode 12\n"
                                       "updates 34\n" +
                                           rn::serialize_parameters(a));
  rl::CheckpointData loaded;
  try {
    rl::load_checkpoint(dir, b, loaded);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("legacy 'readys-checkpoint v1'"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("no longer supported"), std::string::npos) << msg;
  }
  EXPECT_EQ(rn::serialize_parameters(b), pristine);
  EXPECT_EQ(loaded.progress.episode, 0);
  fs::remove_all(dir);
}

TEST(Checkpoint, UnrecognizedLegacyFileNamesBothVersions) {
  const auto dir = scratch_dir("readys-ckpt-badmagic");
  fs::create_directories(dir);
  write_file(rl::checkpoint_path(dir), "not-a-checkpoint\n");
  Rng rng(20);
  rn::Mlp m({3, 3}, rng);
  rl::CheckpointData loaded;
  try {
    rl::load_checkpoint(dir, m, loaded);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("readys-checkpoint v1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("readys-ckpt/2"), std::string::npos) << msg;
  }
  fs::remove_all(dir);
}

TEST(Checkpoint, TrainerMismatchRefusesToResume) {
  rl::CheckpointData d = sample_data();
  d.trainer = "ppo";
  Rng rng(21);
  rn::Mlp m({2, 2}, rng);
  rn::Adam adam(m.parameters(), 0.01);
  Rng sample(22);
  std::uint64_t stream_seed = 7;
  EXPECT_THROW(rl::apply_checkpoint_to_trainer(d, "a2c", 99, adam, sample,
                                               stream_seed),
               std::runtime_error);
  EXPECT_EQ(stream_seed, 7u);
}

TEST(Checkpoint, FileWithoutStreamSeedLoadsAndResumeKeepsOwnBase) {
  // A file written before the action-stream base was recorded has no
  // stream_seed line. It must still load (weights, progress, streams),
  // and applying it leaves the trainer's own base in place.
  Rng rng1(1);
  Rng rng2(2);
  rn::Mlp a({4, 8, 2}, rng1);
  rn::Mlp b({4, 8, 2}, rng2);
  rn::Adam adam(b.parameters(), 0.01);
  rl::CheckpointData old = sample_data();
  old.stream_seed.reset();
  old.optimizer = adam.state_rows();
  const std::string blob = rl::serialize_checkpoint(a, old);
  ASSERT_EQ(blob.find("stream_seed"), std::string::npos);
  rl::CheckpointData loaded;
  rl::deserialize_checkpoint(b, loaded, blob);
  expect_data_eq(old, loaded);
  EXPECT_TRUE(same_parameters(a, b));

  Rng sample(22);
  std::uint64_t stream_seed = 7;
  rl::apply_checkpoint_to_trainer(loaded, "a2c", 99, adam, sample,
                                  stream_seed);
  EXPECT_EQ(stream_seed, 7u);
  EXPECT_EQ(sample.state(), old.rngs.front().second);

  // With the line present, the base comes from the file.
  loaded.stream_seed = 0xFEEDFACECAFEBEEFULL;
  rl::apply_checkpoint_to_trainer(loaded, "a2c", 99, adam, sample,
                                  stream_seed);
  EXPECT_EQ(stream_seed, 0xFEEDFACECAFEBEEFULL);
}

namespace {

rl::AgentConfig tiny_config(std::uint64_t seed) {
  rl::AgentConfig cfg;
  cfg.hidden = 8;
  cfg.window = 1;
  cfg.gcn_layers = 1;
  cfg.seed = seed;
  // The bit-identity test below trains the first half as a 4-episode run
  // (not a killed 8-episode run), so the entropy anneal — a function of
  // opts.episodes — must not differ between the halves.
  cfg.entropy_decay = false;
  return cfg;
}

}  // namespace

TEST(Checkpoint, TrainerResumeContinuesFromLastCheckpoint) {
  // End-to-end --resume: a 4-episode run checkpoints, a fresh agent with
  // resume=true and an 8-episode budget trains only the remaining 4.
  const auto dir = scratch_dir("readys-ckpt-resume");
  const auto graph = rd::cholesky_graph(3);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(1, 1);

  rl::TrainOptions first;
  first.episodes = 4;
  first.sigma = 0.0;
  first.seed = 3;
  first.checkpoint_dir = dir;
  first.checkpoint_every = 2;
  {
    rl::ReadysAgent agent(graph.num_kernel_types(), tiny_config(1));
    const auto report = agent.train(graph, platform, costs, first);
    EXPECT_EQ(report.start_episode, 0);
    EXPECT_EQ(report.episode_rewards.size(), 4u);
  }

  rl::TrainOptions second = first;
  second.episodes = 8;
  second.resume = true;
  rl::ReadysAgent resumed(graph.num_kernel_types(), tiny_config(2));
  const auto report = resumed.train(graph, platform, costs, second);
  EXPECT_EQ(report.start_episode, 4);
  EXPECT_EQ(report.episode_rewards.size(), 4u);

  // Resuming a finished run trains zero episodes and changes nothing.
  rl::ReadysAgent done(graph.num_kernel_types(), tiny_config(3));
  const auto noop = done.train(graph, platform, costs, second);
  EXPECT_EQ(noop.start_episode, 8);
  EXPECT_TRUE(noop.episode_rewards.empty());
  fs::remove_all(dir);
}

TEST(Checkpoint, ResumedRunIsBitIdenticalToUninterruptedRun) {
  // The whole point of full-state checkpoints: split a run at a
  // checkpoint boundary and the final weights match the one-shot run
  // bit for bit (same Adam moments, same sample stream, same env
  // reseeds).
  const auto graph = rd::cholesky_graph(3);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(1, 1);

  const auto ref_dir = scratch_dir("readys-ckpt-bitid-ref");
  rl::TrainOptions full;
  full.episodes = 8;
  full.sigma = 0.0;
  full.seed = 5;
  full.checkpoint_dir = ref_dir;
  full.checkpoint_every = 2;
  rl::ReadysAgent reference(graph.num_kernel_types(), tiny_config(1));
  reference.train(graph, platform, costs, full);

  const auto dir = scratch_dir("readys-ckpt-bitid-split");
  rl::TrainOptions half = full;
  half.checkpoint_dir = dir;
  half.episodes = 4;
  {
    rl::ReadysAgent agent(graph.num_kernel_types(), tiny_config(1));
    agent.train(graph, platform, costs, half);
  }
  rl::TrainOptions rest = full;
  rest.checkpoint_dir = dir;
  rest.resume = true;
  // Different net seed: everything that matters must come from the file.
  rl::ReadysAgent resumed(graph.num_kernel_types(), tiny_config(9));
  resumed.train(graph, platform, costs, rest);

  EXPECT_EQ(rn::serialize_parameters(reference.net()),
            rn::serialize_parameters(resumed.net()));
  fs::remove_all(ref_dir);
  fs::remove_all(dir);
}

TEST(Checkpoint, PpoResumedAtAnotherWidthIsBitIdentical) {
  // A PPO round acts under one set of weights and every episode draws
  // from its own action stream, so the width is invisible to training:
  // 4 episodes at width 4 resumed to 8 at width 2 must land on the
  // weights of 8 episodes at width 4.
  const auto graph = rd::cholesky_graph(3);
  const auto costs = rs::CostModel::cholesky();
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto run = [&](std::size_t width, int episodes, const std::string& dir,
                       bool resume, std::uint64_t agent_seed) {
    const rl::AgentConfig cfg = tiny_config(agent_seed);
    rl::PolicyNet net(rl::StateEncoder::node_feature_width(4),
                      rl::StateEncoder::kResourceFeatureWidth, cfg);
    rl::VecEnv envs(graph, platform, costs, {0.1, cfg.window, 5}, width);
    rl::PpoTrainer trainer(net, cfg,
                           {.rollout_episodes = 4, .epochs = 2,
                            .minibatch = 16});
    rl::TrainOptions opts;
    opts.episodes = episodes;
    opts.sigma = 0.1;
    opts.seed = 5;
    opts.checkpoint_dir = dir;
    opts.checkpoint_every = 4;
    opts.resume = resume;
    trainer.train(envs, opts);
    return rn::serialize_parameters(net);
  };

  const auto ref_dir = scratch_dir("readys-ckpt-ppo-width-ref");
  const std::string reference = run(4, 8, ref_dir, false, 1);
  const auto dir = scratch_dir("readys-ckpt-ppo-width-split");
  run(4, 4, dir, false, 1);
  // Another net seed too: weights, moments and streams come from the file.
  EXPECT_EQ(run(2, 8, dir, true, 9), reference);
  fs::remove_all(ref_dir);
  fs::remove_all(dir);
}
