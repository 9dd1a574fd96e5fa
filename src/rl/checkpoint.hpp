#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "nn/module.hpp"
#include "nn/optim.hpp"
#include "util/rng.hpp"

namespace readys::rl {

/// Training progress captured alongside the weights, so a resumed run
/// continues counting where the interrupted one stopped.
struct CheckpointState {
  int episode = 0;                  ///< episodes fully trained so far
  std::size_t updates = 0;          ///< gradient updates applied so far
  std::size_t skipped_updates = 0;  ///< divergent updates dropped so far
  std::size_t rollbacks = 0;        ///< weight rollbacks performed so far
  /// Consecutive divergent updates at checkpoint time (the divergence
  /// guard's patience countdown must survive a resume to fire at the
  /// same update it would have fired at uninterrupted).
  int divergent_streak = 0;
};

/// Everything a `readys-ckpt/2` file carries besides the weights. With
/// all of it restored — Adam moments + step count, every trainer RNG
/// stream, and the reseed identity of the environments and of the
/// action streams — a resumed run is bit-identical to the uninterrupted
/// one (the env and action streams are fully reseeded from (env_seed,
/// episode index) and (stream_seed, episode index) at each episode
/// start, so those two bases ARE their state at an episode boundary).
struct CheckpointData {
  CheckpointState progress;
  std::string trainer;         ///< "a2c" | "ppo" (resume cross-checks it)
  std::uint64_t env_seed = 0;  ///< TrainOptions::seed driving env reseeds
  std::size_t num_envs = 1;    ///< VecEnv width
  /// Base of the per-episode action streams. Absent in files written
  /// before it was recorded; such a file still loads (weights, progress,
  /// streams), and a resume from it warns.
  std::optional<std::uint64_t> stream_seed;
  /// Named trainer RNG streams (e.g. {"sample", ...}), via Rng::state().
  std::vector<std::pair<std::string, util::Rng::State>> rngs;
  /// Opaque optimizer section from nn::Optimizer::state_rows().
  std::vector<std::string> optimizer;
};

struct CheckpointOptions {
  /// Newest checkpoint files kept on disk (older ones are pruned after
  /// each successful save). Minimum 1; > 1 is what makes fallback from
  /// a corrupted latest file possible.
  int retain = 3;
};

/// Path of the legacy single-file v1 checkpoint inside `dir` (only
/// detected, to reject it by name).
std::string checkpoint_path(const std::string& dir);

/// Path of the retained v2 checkpoint with the given sequence index.
std::string checkpoint_file_path(const std::string& dir, int index);

/// Path of the `LATEST` pointer file naming the newest checkpoint.
std::string latest_pointer_path(const std::string& dir);

/// Serializes a complete `readys-ckpt/2` document: header fields,
/// RNG streams, optimizer rows, the readys-weights payload, and a
/// trailing `crc32 <8 hex>` integrity footer over everything above it.
std::string serialize_checkpoint(const nn::Module& module,
                                 const CheckpointData& data);

/// Parses and applies a `readys-ckpt/2` blob. The whole document —
/// including the CRC footer and the weights payload — is validated
/// before `module` or `data` is touched, so a corrupt blob throws
/// std::runtime_error and leaves both exactly as they were.
void deserialize_checkpoint(nn::Module& module, CheckpointData& data,
                            const std::string& blob);

/// Durably writes the next `checkpoint.<n>.txt` in `dir` (creating the
/// directory if needed): payload to a tmp file, fsync, atomic rename,
/// directory fsync, then the `LATEST` pointer via the same tmp+rename
/// dance, then pruning down to `opts.retain` files. A kill at any
/// instant leaves the previous retained checkpoints intact and
/// load_checkpoint able to resume. Stale *.tmp files from an earlier
/// interrupted writer are removed. I/O errors (ENOSPC, EIO, ...) throw
/// std::runtime_error naming the path and the errno message.
void save_checkpoint(const std::string& dir, const nn::Module& module,
                     const CheckpointData& data,
                     const CheckpointOptions& opts = {});

/// Restores the newest *valid* checkpoint in `dir`: the `LATEST` target
/// first, then remaining retained files newest-first (each corrupt
/// candidate skipped counts into the ckpt.fallbacks metric). Returns
/// false — touching nothing — when no checkpoint exists at all; throws
/// std::runtime_error when files exist but every one is corrupt, or
/// when the only checkpoint is a legacy v1 `checkpoint.txt` (the error
/// names the v1 format; v1 files are not migrated).
bool load_checkpoint(const std::string& dir, nn::Module& module,
                     CheckpointData& data);

/// Applies the non-weight parts of a loaded checkpoint to a trainer:
/// restores the optimizer moments, the "sample" RNG stream and the
/// action-stream base (`stream_seed` keeps its value, with a warning,
/// when the file carries none). Throws std::runtime_error when the
/// checkpoint was written by a different trainer (resuming a2c from a
/// ppo file silently trains garbage); logs a warning — and continues —
/// when the env seed differs (resume works, bit-identity does not).
/// Learner::train checks the width itself: another width breaks
/// bit-identity only when it changes the episodes per learn() call.
void apply_checkpoint_to_trainer(const CheckpointData& data,
                                 const std::string& trainer,
                                 std::uint64_t env_seed,
                                 nn::Optimizer& optimizer,
                                 util::Rng& sample_rng,
                                 std::uint64_t& stream_seed);

namespace testing_hooks {

/// Chaos-test injection point inside save_checkpoint. Phases fire in
/// order: "begin" (before any byte is written), "mid-write" (half the
/// payload flushed to the tmp file), "pre-rename" (tmp complete and
/// fsynced), "post-rename" (renamed, LATEST not yet updated). `index`
/// is the sequence number of the checkpoint being written. The chaos
/// harness SIGKILLs itself from the hook; production code never sets it.
using CheckpointWriteHook = std::function<void(const char* phase, int index)>;

void set_checkpoint_write_hook(CheckpointWriteHook hook);

}  // namespace testing_hooks

}  // namespace readys::rl
