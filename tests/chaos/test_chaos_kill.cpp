// Chaos-kill harness for the crash-recovery contract: fork a real
// training run, SIGKILL it from inside save_checkpoint at randomized
// checkpoint boundaries and mid-write instants, resume from the
// surviving files, and require the final weights to be bit-identical to
// an uninterrupted reference run. Runs the full matrix the checkpoint
// code serves: {A2C, PPO} x {num_envs = 1, num_envs = 4}, plus the
// async actor–learner mode (A2C, --async).
//
// The child never touches gtest: it installs the checkpoint write hook,
// trains until the hook raises SIGKILL, and _exit(0)s if the kill point
// was never reached (which the parent treats as a test failure).

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "dag/cholesky.hpp"
#include "nn/serialize.hpp"
#include "rl/a2c.hpp"
#include "rl/checkpoint.hpp"
#include "rl/ppo.hpp"
#include "rl/state_encoder.hpp"
#include "rl/vec_env.hpp"
#include "sim/cost_model.hpp"
#include "sim/platform.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
namespace rd = readys::dag;
namespace rl = readys::rl;
namespace rn = readys::nn;
namespace rs = readys::sim;
using readys::util::Rng;

namespace {

enum class Trainer { kA2c, kPpo };

struct KillSpec {
  int index;          ///< checkpoint sequence number to strike at
  const char* phase;  ///< "begin", "mid-write", "pre-rename", "post-rename"
};

constexpr const char* kPhases[] = {"begin", "mid-write", "pre-rename",
                                   "post-rename"};

rl::AgentConfig tiny_config() {
  rl::AgentConfig cfg;
  cfg.hidden = 8;
  cfg.gcn_layers = 1;
  cfg.window = 1;
  cfg.seed = 11;  // identical across reference / victim / resume: a kill
                  // before the first completed save restarts from the
                  // same initial weights
  cfg.entropy_decay = false;
  return cfg;
}

rl::TrainOptions train_options(const std::string& dir, bool resume) {
  rl::TrainOptions opts;
  opts.episodes = 8;
  opts.sigma = 0.0;
  opts.seed = 17;
  opts.checkpoint_dir = dir;
  opts.checkpoint_every = 2;
  opts.resume = resume;
  return opts;
}

/// Runs one full training (possibly resuming from `dir`) and returns the
/// final serialized weights. Fresh net and trainer each call, exactly
/// like a process restart.
std::string run_training(Trainer trainer, std::size_t num_envs,
                         const std::string& dir, bool resume,
                         bool async = false) {
  const auto graph = rd::cholesky_graph(3);
  const auto platform = rs::Platform::hybrid(1, 1);
  const auto costs = rs::CostModel::cholesky();
  const auto cfg = tiny_config();
  const rl::SchedulingEnv::Config env_cfg{0.0, cfg.window, 1};
  auto opts = train_options(dir, resume);
  if (async) {
    // The actor–learner mode is deterministic: a killed run must resume
    // onto the reference trajectory even with real actor threads in play.
    opts.async = true;
    opts.async_actors = 2;
    opts.async_batch = 1;
  }

  rl::PolicyNet net(rl::StateEncoder::node_feature_width(4),
                    rl::StateEncoder::kResourceFeatureWidth, cfg);
  rl::VecEnv envs(graph, platform, costs, env_cfg, num_envs);
  if (trainer == Trainer::kA2c) {
    rl::A2CTrainer t(net, cfg);
    t.train(envs, opts);
  } else {
    rl::PpoTrainer t(net, cfg,
                     {.rollout_episodes = 4, .epochs = 2, .minibatch = 16});
    t.train(envs, opts);
  }
  return rn::serialize_parameters(net);
}

std::string scratch_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  return dir.string();
}

/// The kill matrix: three fixed strikes covering every torn-state class
/// (before any byte, torn tmp file, committed-but-unpointed file) plus
/// two randomized (index, phase) draws. Deterministic per `seed` so a
/// failure reproduces.
std::vector<KillSpec> kill_specs(std::uint64_t seed) {
  std::vector<KillSpec> specs = {
      {1, "begin"}, {1, "mid-write"}, {2, "mid-write"}};
  Rng rng(seed);
  for (int i = 0; i < 2; ++i) {
    // Indices 1 and 2 exist in every configuration (the vectorized runs
    // can only checkpoint at round boundaries: episodes 4 and 8).
    specs.push_back({static_cast<int>(1 + rng.uniform_index(2)),
                     kPhases[rng.uniform_index(4)]});
  }
  return specs;
}

void run_chaos_matrix(Trainer trainer, std::size_t num_envs,
                      const std::string& tag, bool async = false) {
  // Uninterrupted reference, checkpointing enabled so the code path
  // matches the victim's exactly.
  const auto ref_dir = scratch_dir("readys-chaos-ref-" + tag);
  const std::string reference =
      run_training(trainer, num_envs, ref_dir, false, async);
  fs::remove_all(ref_dir);

  const std::uint64_t matrix_seed =
      (trainer == Trainer::kA2c ? 100 : 200) + num_envs +
      (async ? 50 : 0);
  for (const KillSpec& spec : kill_specs(matrix_seed)) {
    SCOPED_TRACE(tag + ": kill at checkpoint " + std::to_string(spec.index) +
                 " phase " + spec.phase);
    const auto dir =
        scratch_dir("readys-chaos-" + tag + "-" + std::to_string(spec.index) +
                    "-" + spec.phase);

    const pid_t pid = fork();
    ASSERT_NE(pid, -1) << "fork failed: " << std::strerror(errno);
    if (pid == 0) {
      // Child: arm the strike, train, die mid-save.
      rl::testing_hooks::set_checkpoint_write_hook(
          [&spec](const char* phase, int index) {
            if (index == spec.index && std::strcmp(phase, spec.phase) == 0) {
              ::raise(SIGKILL);
            }
          });
      run_training(trainer, num_envs, dir, false, async);
      ::_exit(0);  // strike never fired — parent flags this as a failure
    }

    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL)
        << "child was not SIGKILLed (status " << status
        << "); the kill point was never reached";

    // Restart: a fresh trainer resumes from whatever files survived and
    // must land on the reference weights bit for bit.
    const std::string resumed =
        run_training(trainer, num_envs, dir, true, async);
    EXPECT_EQ(resumed, reference);
    fs::remove_all(dir);
  }
}

}  // namespace

TEST(ChaosKill, A2cSequentialSurvivesKillAndResumesBitIdentical) {
  run_chaos_matrix(Trainer::kA2c, 1, "a2c-seq");
}

TEST(ChaosKill, A2cVectorizedSurvivesKillAndResumesBitIdentical) {
  run_chaos_matrix(Trainer::kA2c, 4, "a2c-vec4");
}

TEST(ChaosKill, A2cAsyncStrictSurvivesKillAndResumesBitIdentical) {
  run_chaos_matrix(Trainer::kA2c, 4, "a2c-async4", /*async=*/true);
}

TEST(ChaosKill, PpoSequentialSurvivesKillAndResumesBitIdentical) {
  run_chaos_matrix(Trainer::kPpo, 1, "ppo-seq");
}

TEST(ChaosKill, PpoVectorizedSurvivesKillAndResumesBitIdentical) {
  run_chaos_matrix(Trainer::kPpo, 4, "ppo-vec4");
}
