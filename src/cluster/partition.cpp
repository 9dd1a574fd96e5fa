#include "cluster/partition.hpp"

#include <stdexcept>
#include <string>

namespace readys::cluster {

Partition Partition::by_type_round_robin(const sim::Platform& platform,
                                         int shards) {
  if (shards < 1 || shards > platform.size()) {
    throw std::invalid_argument(
        "Partition: shard count " + std::to_string(shards) +
        " out of range for a " + std::to_string(platform.size()) +
        "-resource platform (expected 1 to P)");
  }
  Partition p;
  p.shard_of.resize(static_cast<std::size_t>(platform.size()));
  p.members.resize(static_cast<std::size_t>(shards));
  int per_type_index[sim::kNumResourceTypes] = {0, 0};
  for (sim::ResourceId r = 0; r < platform.size(); ++r) {
    const int type = static_cast<int>(platform.type(r));
    const int s = per_type_index[type]++ % shards;
    p.shard_of[static_cast<std::size_t>(r)] = s;
    p.members[static_cast<std::size_t>(s)].push_back(r);
  }
  return p;
}

}  // namespace readys::cluster
