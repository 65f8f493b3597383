#include "dht/distributed_function.hpp"

#include <utility>

#include "common/diagnostics.hpp"

namespace mh::dht {

DistributedFunction::DistributedFunction(const mra::Function& fn,
                                         const OwnerMap& owners)
    : params_(fn.params()), map_(owners) {
  MH_CHECK(!fn.compressed(), "scatter requires reconstructed form");
  for (const mra::Key& key : fn.leaf_keys()) {
    const Tensor& coeffs = fn.leaf_coeffs(key);
    map_.put(/*from_rank=*/0, key, coeffs,
             static_cast<double>(coeffs.size()) * 8.0);
  }
}

std::vector<std::size_t> DistributedFunction::apply_loads(
    const ops::SeparatedConvolution& op) const {
  std::vector<std::size_t> loads(ranks(), 0);
  for (const ops::ApplyTask& task : ops::make_apply_tasks(op, gather())) {
    ++loads[map_.owner(task.source)];
  }
  return loads;
}

mra::Function DistributedFunction::gather() const {
  std::vector<std::pair<mra::Key, Tensor>> leaves;
  leaves.reserve(map_.size());
  for (std::size_t rank = 0; rank < ranks(); ++rank) {
    for (const auto& [key, coeffs] : map_.shard(rank)) {
      leaves.emplace_back(key, coeffs);
    }
  }
  return mra::Function::from_leaves(params_, leaves);
}

mra::Function distributed_apply(const ops::SeparatedConvolution& op,
                                const DistributedFunction& f,
                                ops::ApplyStats* stats, CommStats* comm_out) {
  MH_CHECK(op.params().ndim == f.params().ndim &&
               op.params().k == f.params().k,
           "operator/function parameter mismatch");
  const mra::Function whole = f.gather();
  ops::ApplyStats local;
  mra::Function out = ops::apply(op, whole, {}, &local);

  if (comm_out != nullptr) {
    // One result tensor (k^d doubles) per accumulated message.
    double payload_bytes = 8.0;
    for (std::size_t m = 0; m < f.params().ndim; ++m)
      payload_bytes *= static_cast<double>(op.params().k);
    CommStats comm;
    for (const ops::ApplyTask& task : ops::make_apply_tasks(op, whole)) {
      comm.record(f.map().owner(task.source), f.map().owner(task.target),
                  payload_bytes);
    }
    *comm_out = comm;
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace mh::dht
