#include "core/comm.h"

#include <algorithm>

namespace smi::core {

Communicator Communicator::World(int world_size) {
  if (world_size < 1) throw ConfigError("world size must be >= 1");
  std::vector<int> ranks(static_cast<std::size_t>(world_size));
  for (int i = 0; i < world_size; ++i) ranks[static_cast<std::size_t>(i)] = i;
  return Communicator(std::move(ranks));
}

Communicator::Communicator(std::vector<int> global_ranks)
    : global_ranks_(std::move(global_ranks)) {
  if (global_ranks_.empty()) {
    throw ConfigError("communicator cannot be empty");
  }
  // Global ranks are fabric ranks, numbered densely from 0, so a
  // seen-vector indexed by rank stays as small as the world.
  std::vector<bool> seen;
  for (const int r : global_ranks_) {
    if (r < 0) throw ConfigError("negative rank in communicator");
    const auto i = static_cast<std::size_t>(r);
    if (i >= seen.size()) seen.resize(std::max(i + 1, 2 * seen.size()));
    if (seen[i]) {
      throw ConfigError("duplicate rank " + std::to_string(r) +
                        " in communicator");
    }
    seen[i] = true;
  }
}

int Communicator::GlobalRank(int comm_rank) const {
  if (comm_rank < 0 || comm_rank >= size()) {
    throw ConfigError("communicator rank " + std::to_string(comm_rank) +
                      " out of range (size " + std::to_string(size()) + ")");
  }
  return global_ranks_[static_cast<std::size_t>(comm_rank)];
}

int Communicator::CommRank(int global_rank) const {
  const auto it =
      std::find(global_ranks_.begin(), global_ranks_.end(), global_rank);
  if (it == global_ranks_.end()) {
    throw ConfigError("global rank " + std::to_string(global_rank) +
                      " is not a member of this communicator");
  }
  return static_cast<int>(it - global_ranks_.begin());
}

bool Communicator::Contains(int global_rank) const {
  return std::find(global_ranks_.begin(), global_ranks_.end(), global_rank) !=
         global_ranks_.end();
}

Communicator Communicator::Subset(const std::vector<int>& members) const {
  std::vector<int> ranks;
  ranks.reserve(members.size());
  for (const int m : members) ranks.push_back(GlobalRank(m));
  return Communicator(std::move(ranks));
}

}  // namespace smi::core
