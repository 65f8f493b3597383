// Tests for src/dht: owner maps, the distributed hash table with
// communication accounting, and the distributed Apply.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <set>
#include <string>

#include "apps/coulomb.hpp"
#include "common/diagnostics.hpp"
#include "common/rng.hpp"
#include "dht/distributed_function.hpp"
#include "dht/distributed_map.hpp"
#include "dht/owner_map.hpp"
#include "ops/apply.hpp"
#include "ops/separated.hpp"

namespace mh::dht {
namespace {

mra::Key key1d(int level, std::int64_t l) {
  const std::int64_t t[1] = {l};
  return mra::Key(1, level, t);
}

// Bitwise function equality: same leaf set, identical coefficient bits.
void expect_bitwise_equal(const mra::Function& a, const mra::Function& b) {
  const auto keys_a = a.leaf_keys();
  const auto keys_b = b.leaf_keys();
  ASSERT_EQ(keys_a.size(), keys_b.size());
  for (std::size_t i = 0; i < keys_a.size(); ++i) {
    ASSERT_EQ(keys_a[i], keys_b[i]);
    const auto x = a.leaf_coeffs(keys_a[i]).flat();
    const auto y = b.leaf_coeffs(keys_b[i]).flat();
    ASSERT_EQ(x.size(), y.size());
    EXPECT_EQ(std::memcmp(x.data(), y.data(), x.size() * sizeof(double)), 0)
        << "coefficient bits differ at leaf " << keys_a[i];
  }
}

TEST(OwnerMaps, HashMapSpreadsKeys) {
  HashOwnerMap map(8, 3);
  std::vector<std::size_t> counts(8, 0);
  for (std::int64_t l = 0; l < 1024; ++l) ++counts[map.owner(key1d(10, l))];
  for (std::size_t c : counts) {
    EXPECT_GT(c, 64u);   // within 2x of uniform
    EXPECT_LT(c, 256u);
  }
}

TEST(OwnerMaps, OwnershipIsDeterministic) {
  HashOwnerMap a(4, 7), b(4, 7);
  for (std::int64_t l = 0; l < 32; ++l) {
    EXPECT_EQ(a.owner(key1d(5, l)), b.owner(key1d(5, l)));
  }
}

TEST(OwnerMaps, SubtreeMapColocatesSubtrees) {
  SubtreeOwnerMap map(16, /*subtree_level=*/2, 1);
  // Every descendant of one level-2 box maps to the same rank.
  const mra::Key anchor = key1d(2, 3);
  const std::size_t rank = map.owner(anchor);
  mra::Key deep = anchor;
  for (int i = 0; i < 5; ++i) {
    deep = deep.child(deep.num_children() - 1);
    EXPECT_EQ(map.owner(deep), rank);
  }
  // Keys above the anchor level are owned by their own hash.
  EXPECT_NO_THROW(map.owner(key1d(0, 0)));
}

TEST(OwnerMaps, RejectZeroRanks) {
  EXPECT_THROW(HashOwnerMap(0), Error);
  EXPECT_THROW(SubtreeOwnerMap(0, 2), Error);
  EXPECT_THROW(SubtreeOwnerMap(4, -1), Error);
}

TEST(OwnerMaps, AnyKeyOwnedLikeItsSubtreeAncestor) {
  // Property: for random keys at random depths, owner(key) equals
  // owner(ancestor at the subtree level), and anchor_of names exactly that
  // ancestor.
  SubtreeOwnerMap map(11, /*subtree_level=*/3, 77);
  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t ndim = 1 + rng.below(3);
    const int level = 3 + static_cast<int>(rng.below(6));
    std::vector<std::int64_t> l(ndim);
    for (auto& t : l) {
      t = static_cast<std::int64_t>(rng.below(std::uint64_t{1} << level));
    }
    const mra::Key key(ndim, level, l);
    mra::Key ancestor = key;
    while (ancestor.level() > 3) ancestor = ancestor.parent();
    EXPECT_EQ(map.anchor_of(key).hash(), ancestor.hash());
    EXPECT_EQ(map.owner(key), map.owner(ancestor));
  }
}

TEST(OwnerMaps, SubtreeAnchorsAreDistinctAndInGrid) {
  const std::size_t ngroups = 48;
  const std::size_t ndim = 3;
  const int level = anchor_level(ngroups, ndim) + 1;
  const auto anchors = subtree_anchors(ngroups, ndim, level, 9);
  ASSERT_EQ(anchors.size(), ngroups);
  std::set<std::uint64_t> hashes;
  for (const mra::Key& a : anchors) {
    EXPECT_EQ(a.level(), level);
    EXPECT_EQ(a.ndim(), ndim);
    for (std::size_t d = 0; d < ndim; ++d) {
      EXPECT_GE(a.translation(d), 0);
      EXPECT_LT(a.translation(d), std::int64_t{1} << level);
    }
    hashes.insert(a.hash());
  }
  EXPECT_EQ(hashes.size(), ngroups);  // all distinct
  // Deterministic for a seed, different across seeds.
  const auto again = subtree_anchors(ngroups, ndim, level, 9);
  EXPECT_EQ(anchors[5].hash(), again[5].hash());

  // Owner glue: one home rank per group, all in range.
  const auto owners = owners_of(HashOwnerMap(8, 3), anchors);
  ASSERT_EQ(owners.size(), ngroups);
  for (const std::size_t o : owners) EXPECT_LT(o, 8u);
}

TEST(OwnerMaps, AnchorLevelIsMinimal) {
  EXPECT_EQ(anchor_level(1, 3), 0);
  EXPECT_EQ(anchor_level(8, 3), 1);
  EXPECT_EQ(anchor_level(9, 3), 2);
  EXPECT_EQ(anchor_level(1000, 1), 10);
  // A level too shallow to give every group a distinct anchor is rejected.
  EXPECT_THROW(subtree_anchors(10, 1, 2), Error);
}

TEST(DistributedMap, PutFindRoundTrip) {
  HashOwnerMap owners(4, 11);
  DistributedMap<int> map(owners);
  const mra::Key key = key1d(3, 5);
  map.put(0, key, 42, 8.0);
  map.put(1, key, 43, 8.0);  // overwrite, from another rank
  // The entry lives only in its owner's shard.
  for (std::size_t r = 0; r < map.ranks(); ++r) {
    const auto& shard = map.shard(r);
    if (r != owners.owner(key)) {
      EXPECT_TRUE(shard.empty());
      continue;
    }
    ASSERT_EQ(shard.size(), 1u);
    const auto it = shard.find(key);
    ASSERT_NE(it, shard.end());
    EXPECT_EQ(it->second, 43);
    EXPECT_EQ(shard.find(key1d(3, 6)), shard.end());
  }
  EXPECT_EQ(map.size(), 1u);
}

TEST(DistributedMap, CommAccountingDistinguishesLocalAndRemote) {
  HashOwnerMap owners(4, 11);
  DistributedMap<int> map(owners);
  const mra::Key key = key1d(4, 9);
  const std::size_t home = owners.owner(key);
  const std::size_t away = (home + 1) % 4;
  map.put(home, key, 1, 100.0);  // local: no message
  EXPECT_EQ(map.comm().messages, 0u);
  EXPECT_EQ(map.comm().local_ops, 1u);
  map.put(away, key, 2, 100.0);  // remote: one message, 100 bytes
  EXPECT_EQ(map.comm().messages, 1u);
  EXPECT_DOUBLE_EQ(map.comm().bytes, 100.0);
  EXPECT_NEAR(map.comm().remote_fraction(), 0.5, 1e-12);
}

TEST(DistributedMap, ShardSizesSumToTotal) {
  HashOwnerMap owners(5, 2);
  DistributedMap<int> map(owners);
  for (std::int64_t l = 0; l < 200; ++l) {
    map.put(0, key1d(8, l), static_cast<int>(l), 8.0);
  }
  std::size_t total = 0;
  for (std::size_t r = 0; r < map.ranks(); ++r) total += map.shard_size(r);
  EXPECT_EQ(total, 200u);
  EXPECT_EQ(map.size(), 200u);
}

mra::Function make_test_function() {
  mra::FunctionParams p;
  p.ndim = 1;
  p.k = 7;
  p.thresh = 1e-6;
  p.initial_level = 3;
  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.45) / 0.1;
    return std::exp(-u * u);
  };
  return mra::Function::project(f_fn, p);
}

TEST(DistributedMap, RemoteFractionScalesWithRankCount) {
  // With R ranks and uniform hashing, ~ (R-1)/R of random-origin ops are
  // remote.
  for (std::size_t ranks : {2u, 8u}) {
    HashOwnerMap owners(ranks, 5);
    DistributedMap<int> map(owners);
    Rng rng(ranks);
    for (int i = 0; i < 2000; ++i) {
      map.put(static_cast<std::size_t>(rng.below(ranks)), key1d(12, i), i,
              8.0);
    }
    const double expect =
        (static_cast<double>(ranks) - 1.0) / static_cast<double>(ranks);
    EXPECT_NEAR(map.comm().remote_fraction(), expect, 0.06)
        << ranks << " ranks";
  }
}

TEST(DistributedFunction, ScatterPreservesLeavesAndGathersBack) {
  const mra::Function f = make_test_function();
  HashOwnerMap owners(6, 13);
  DistributedFunction df(f, owners);
  EXPECT_EQ(df.num_leaves(), f.num_leaves());
  std::size_t total = 0;
  for (std::size_t r = 0; r < df.ranks(); ++r) total += df.leaves_on(r);
  EXPECT_EQ(total, f.num_leaves());

  mra::Function g = df.gather();
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    const double x[1] = {rng.next_double()};
    EXPECT_NEAR(g.eval(x), f.eval(x), 1e-13);
  }
}

TEST(DistributedFunction, ApplyMatchesSerialBitForBit) {
  const mra::Function f = make_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  ops::ApplyStats serial_stats;
  const mra::Function serial = ops::apply(op, f, {}, &serial_stats);

  HashOwnerMap owners(4, 21);
  DistributedFunction df(f, owners);
  ops::ApplyStats stats;
  CommStats comm;
  const mra::Function dist = distributed_apply(op, df, &stats, &comm);

  EXPECT_GT(stats.tasks, 0u);
  EXPECT_EQ(stats.tasks, serial_stats.tasks);
  expect_bitwise_equal(dist, serial);
  // The communication profile of this placement: 264 tasks, 173 of them
  // ship a k = 7 result tensor (56 bytes) to another rank.
  EXPECT_EQ(comm.local_ops, 91u);
  EXPECT_EQ(comm.remote_ops, 173u);
  EXPECT_EQ(comm.messages, 173u);
  EXPECT_DOUBLE_EQ(comm.bytes, 173.0 * 56.0);
}

TEST(DistributedFunction, SubtreeMapSendsFewerMessagesThanHashMap) {
  const mra::Function f = make_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);

  HashOwnerMap hash_owners(8, 3);
  DistributedFunction df_hash(f, hash_owners);
  CommStats comm_hash;
  distributed_apply(op, df_hash, nullptr, &comm_hash);

  SubtreeOwnerMap tree_owners(8, /*subtree_level=*/2, 3);
  DistributedFunction df_tree(f, tree_owners);
  CommStats comm_tree;
  distributed_apply(op, df_tree, nullptr, &comm_tree);

  // Locality co-location keeps most accumulations on-rank.
  EXPECT_LT(comm_tree.remote_fraction(), comm_hash.remote_fraction());
  EXPECT_LT(comm_tree.bytes, comm_hash.bytes);
}

TEST(DistributedFunction, ApplyLoadsMatchTaskEnumeration) {
  const mra::Function f = make_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  HashOwnerMap owners(4, 17);
  DistributedFunction df(f, owners);
  const auto loads = df.apply_loads(op);
  const std::size_t total =
      std::accumulate(loads.begin(), loads.end(), std::size_t{0});
  EXPECT_EQ(total, ops::make_apply_tasks(op, f).size());
}

TEST(DistributedFunction, SingleRankHasNoRemoteTraffic) {
  const mra::Function f = make_test_function();
  const auto op = apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7);
  HashOwnerMap owners(1);
  DistributedFunction df(f, owners);
  CommStats comm;
  distributed_apply(op, df, nullptr, &comm);
  EXPECT_EQ(comm.messages, 0u);
  EXPECT_DOUBLE_EQ(comm.remote_fraction(), 0.0);
}

// A Gaussian hugging the left edge and a periodic operator: most of the
// kernel's images wrap across x = 0, which a free-space neighbour lookup
// would drop.
mra::Function edge_gaussian() {
  mra::FunctionParams p;
  p.ndim = 1;
  p.k = 8;
  p.thresh = 1e-8;
  p.initial_level = 4;
  auto f_fn = [](std::span<const double> x) {
    const double u = (x[0] - 0.08) / 0.05;
    return std::exp(-u * u);
  };
  return mra::Function::project(f_fn, p);
}

ops::SeparatedConvolution periodic_operator() {
  ops::SeparatedConvolution::Params p;
  p.ndim = 1;
  p.k = 8;
  p.thresh = 1e-9;
  p.max_disp = 24;
  p.periodic = true;
  return {p, ops::single_gaussian(0.05)};
}

TEST(DistributedFunction, PeriodicApplyMatchesSerial) {
  const mra::Function f = edge_gaussian();
  const ops::SeparatedConvolution op = periodic_operator();
  const mra::Function serial = ops::apply(op, f);
  const std::size_t tasks = ops::make_apply_tasks(op, f).size();

  HashOwnerMap owners(4, 21);
  DistributedFunction df(f, owners);
  const auto loads = df.apply_loads(op);
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), std::size_t{0}),
            tasks);
  ops::ApplyStats stats;
  const mra::Function dist = distributed_apply(op, df, &stats);
  EXPECT_EQ(stats.tasks, tasks);
  expect_bitwise_equal(dist, serial);
}

// Oracle for distributed_apply's accounting: every rank walks its own
// shard, runs each leaf's on-grid displacements and ships each result to
// the target's owner — the paper's placement, priced message by message.
void expect_shard_walk_accounting(const mra::Function& f,
                                  const ops::SeparatedConvolution& op) {
  const double payload_bytes = 8.0 * static_cast<double>(f.k());  // 1-D
  for (const std::size_t ranks : {1u, 4u, 6u, 8u}) {
    const HashOwnerMap hash(ranks, 21);
    const SubtreeOwnerMap subtree(ranks, 2, 5);
    for (const OwnerMap* owners : {static_cast<const OwnerMap*>(&hash),
                                   static_cast<const OwnerMap*>(&subtree)}) {
      SCOPED_TRACE(std::to_string(ranks) +
                   (owners == &hash ? " ranks, hash" : " ranks, subtree"));
      const DistributedFunction df(f, *owners);
      CommStats expect;
      std::vector<std::size_t> expect_loads(ranks, 0);
      for (std::size_t rank = 0; rank < ranks; ++rank) {
        for (const auto& [key, coeffs] : df.map().shard(rank)) {
          for (const auto& disp : op.displacements(key.level())) {
            mra::Key target;
            if (!ops::apply_target(op, key, disp, target)) continue;
            ++expect_loads[rank];
            expect.record(rank, owners->owner(target), payload_bytes);
          }
        }
      }
      CommStats comm;
      distributed_apply(op, df, nullptr, &comm);
      EXPECT_EQ(comm.local_ops, expect.local_ops);
      EXPECT_EQ(comm.remote_ops, expect.remote_ops);
      EXPECT_EQ(comm.messages, expect.messages);
      EXPECT_DOUBLE_EQ(comm.bytes, expect.bytes);
      EXPECT_EQ(df.apply_loads(op), expect_loads);
    }
  }
}

TEST(DistributedFunction, TrafficAndLoadsMatchAShardWalk) {
  expect_shard_walk_accounting(
      make_test_function(),
      apps::make_smoothing_operator(1, 7, 0.08, 8, 1e-7));
  expect_shard_walk_accounting(edge_gaussian(), periodic_operator());
}

}  // namespace
}  // namespace mh::dht
