#pragma once

#include <vector>

#include "sim/platform.hpp"

namespace readys::cluster {

/// Static assignment of a platform's resources to K shards. Both lookup
/// directions are materialized: `shard_of` answers "which shard owns
/// resource r" in O(1) (the shard scheduler routes every running task
/// and proposed binding through it), `members` hands each shard its
/// ascending resource list (what a shard-scoped EngineView publishes as
/// its visible resources).
struct Partition {
  std::vector<int> shard_of;                        ///< per resource
  std::vector<std::vector<sim::ResourceId>> members;///< per shard, ascending

  /// Partitions CPUs and GPUs round-robin *independently*, so every
  /// shard stays heterogeneous when the platform is (a shard holding
  /// only CPUs could never run GPU-favored kernels competitively and
  /// would poison per-shard scheduling). Resource ids within a shard
  /// remain ascending. Throws std::invalid_argument unless
  /// 1 <= shards <= platform.size().
  static Partition by_type_round_robin(const sim::Platform& platform,
                                       int shards);

  int shard(sim::ResourceId r) const {
    return shard_of[static_cast<std::size_t>(r)];
  }
};

}  // namespace readys::cluster
