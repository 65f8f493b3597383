// An in-process simulation of MADNESS's distributed hash table (paper
// §I-A: "Distributed trees are implemented in MADNESS with distributed
// hash tables").
//
// R ranks each hold a local map; every put is issued *from* a rank, and
// touching a key owned elsewhere is accounted as a message (MADNESS's
// active messages). The local/remote pricing rule is CommStats::record,
// shared by the map's routing, distributed_apply's task accounting and
// ReplicatedStore's write-through, so all three count traffic alike. The
// container is the substrate under DistributedFunction; tests assert both
// the data semantics and the communication accounting.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/diagnostics.hpp"
#include "dht/owner_map.hpp"
#include "mra/key.hpp"

namespace mh::dht {

struct CommStats {
  std::size_t local_ops = 0;
  std::size_t remote_ops = 0;   ///< operations that crossed ranks
  std::size_t messages = 0;     ///< one per remote op (active message)
  double bytes = 0.0;           ///< payload bytes shipped

  double remote_fraction() const noexcept {
    const std::size_t total = local_ops + remote_ops;
    return total == 0 ? 0.0
                      : static_cast<double>(remote_ops) /
                            static_cast<double>(total);
  }

  /// Price one operation issued on rank `from` against data owned by rank
  /// `to`: local when they coincide, otherwise one active message carrying
  /// `payload_bytes`.
  void record(std::size_t from, std::size_t to, double payload_bytes) noexcept {
    if (from == to) {
      ++local_ops;
    } else {
      ++remote_ops;
      ++messages;
      bytes += payload_bytes;
    }
  }
};

template <typename V>
class DistributedMap {
 public:
  /// The map does not own `owners`; it must outlive the container.
  explicit DistributedMap(const OwnerMap& owners)
      : owners_(owners), shards_(owners.ranks()) {}

  std::size_t ranks() const noexcept { return shards_.size(); }
  std::size_t owner(const mra::Key& key) const { return owners_.owner(key); }
  const OwnerMap& owners() const noexcept { return owners_; }

  /// Insert or overwrite, issued from `from_rank`. `bytes` is the payload
  /// size for communication accounting.
  void put(std::size_t from_rank, const mra::Key& key, V value, double bytes) {
    MH_CHECK(from_rank < shards_.size(), "rank out of range");
    const std::size_t to = owners_.owner(key);
    comm_.record(from_rank, to, bytes);
    shards_[to].insert_or_assign(key, std::move(value));
  }

  std::size_t size() const {
    std::size_t n = 0;
    for (const auto& shard : shards_) n += shard.size();
    return n;
  }
  std::size_t shard_size(std::size_t rank) const {
    MH_CHECK(rank < shards_.size(), "rank out of range");
    return shards_[rank].size();
  }

  /// Local view of one rank's shard (iteration for gather/inspection).
  const std::unordered_map<mra::Key, V, mra::KeyHash>& shard(
      std::size_t rank) const {
    MH_CHECK(rank < shards_.size(), "rank out of range");
    return shards_[rank];
  }

  const CommStats& comm() const noexcept { return comm_; }

 private:
  const OwnerMap& owners_;
  std::vector<std::unordered_map<mra::Key, V, mra::KeyHash>> shards_;
  CommStats comm_;
};

}  // namespace mh::dht
