// A multiresolution function scattered over simulated ranks, and the
// distributed Apply over it.
//
// This is the data layout of the paper's runs: tree nodes live in a
// distributed hash table under a process map; every Apply task executes on
// the rank that owns its *source* leaf, and its result is accumulated into
// the owner of the *target* key — a remote active message when the
// displacement crosses a subtree boundary. distributed_apply is a binding of
// ops::apply: it computes the gathered function's Apply with ops::apply, so
// the result is bitwise identical to the serial Apply by construction, and
// prices the same ops::make_apply_tasks list under the owner map for the
// communication profile.
#pragma once

#include <cstddef>
#include <vector>

#include "dht/distributed_map.hpp"
#include "dht/owner_map.hpp"
#include "mra/function.hpp"
#include "ops/apply.hpp"

namespace mh::dht {

class DistributedFunction {
 public:
  /// Scatter a reconstructed function's leaves over the owner map's ranks.
  /// Scattering is issued from rank 0 (the projector), so the initial
  /// distribution itself counts messages, as a real run would.
  DistributedFunction(const mra::Function& fn, const OwnerMap& owners);

  std::size_t ranks() const noexcept { return map_.ranks(); }
  const mra::FunctionParams& params() const noexcept { return params_; }
  std::size_t num_leaves() const { return map_.size(); }
  std::size_t leaves_on(std::size_t rank) const {
    return map_.shard_size(rank);
  }

  /// Task-count load of every rank for one Apply of `op` (what the process
  /// map hands each compute node): ops::make_apply_tasks counted by the
  /// owner of each task's source leaf.
  std::vector<std::size_t> apply_loads(
      const ops::SeparatedConvolution& op) const;

  /// Reassemble a single-address-space Function (gather to rank 0).
  mra::Function gather() const;

  const DistributedMap<Tensor>& map() const noexcept { return map_; }

 private:
  mra::FunctionParams params_;
  DistributedMap<Tensor> map_;
};

/// Distributed Apply: the result of ops::apply on the gathered function
/// (leaf-consistent via sum_down, bitwise equal to the serial Apply).
/// `stats`, if given, is assigned the Apply's counts. `comm_out`, if given,
/// receives the Apply-phase communication stats (scatter traffic excluded):
/// every task runs on its source's owner, and a task whose target has
/// another owner ships one k^d-double result tensor there.
mra::Function distributed_apply(const ops::SeparatedConvolution& op,
                                const DistributedFunction& f,
                                ops::ApplyStats* stats = nullptr,
                                CommStats* comm_out = nullptr);

}  // namespace mh::dht
