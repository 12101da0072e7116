// Integration tests: distributed collectives must reproduce their serial
// reference reductions exactly (sum) or to floating-point reassociation
// tolerance (Adasum dot products are summed in a different order).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <numeric>

#include "base/rng.h"
#include "collectives/adasum_linear.h"
#include "collectives/adasum_rvh.h"
#include "collectives/adasum_rvh_reference.h"
#include "collectives/allreduce.h"
#include "collectives/hierarchical.h"
#include "collectives/sum_allreduce.h"
#include "core/adasum.h"
#include "core/orthogonality.h"
#include "tensor/compress/compress.h"
#include "tensor/kernels.h"

namespace adasum {
namespace {

std::vector<Tensor> make_gradients(int ranks, std::size_t n, DType dtype,
                                   std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> grads;
  grads.reserve(ranks);
  for (int r = 0; r < ranks; ++r) {
    Rng fork = rng.fork(r);
    Tensor t({n}, dtype);
    for (std::size_t i = 0; i < n; ++i)
      // Round to fp16-exact grid so all dtypes compare exactly.
      t.set(i, std::round(fork.normal(0.0, 1.0) * 64) / 64);
    grads.push_back(std::move(t));
  }
  return grads;
}

Tensor serial_sum(const std::vector<Tensor>& grads) {
  Tensor acc = grads[0].cast(DType::kFloat64);
  for (std::size_t r = 1; r < grads.size(); ++r) {
    const Tensor g = grads[r].cast(DType::kFloat64);
    kernels::add(g.span<double>(), acc.span<double>());
  }
  return acc;
}

// gtest prints a parameter type that has no PrintTo of its own as its raw
// object bytes, struct padding included, and ctest names each case after that
// text. Padding holds whatever the heap held, so those names changed from run
// to run. This prints the same "<n>-byte object <..>" form with the padding
// zeroed: only the listed members' bytes are copied in.
template <class T, class... M>
void print_zero_padded(const T& value, std::ostream* os, M T::*... members) {
  unsigned char bytes[sizeof(T)] = {};
  const auto* base = reinterpret_cast<const unsigned char*>(&value);
  (std::memcpy(bytes + (reinterpret_cast<const unsigned char*>(
                            &(value.*members)) - base),
               &(value.*members), sizeof(M)),
   ...);
  *os << sizeof(T) << "-byte object <";
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    if (i != 0) *os << (i % 2 == 0 ? ' ' : '-');
    char hex[3];
    std::snprintf(hex, sizeof hex, "%02X", bytes[i]);
    *os << hex;
  }
  *os << '>';
}

struct Config {
  int ranks;
  std::size_t count;
  DType dtype;
};

void PrintTo(const Config& c, std::ostream* os) {
  print_zero_padded(c, os, &Config::ranks, &Config::count, &Config::dtype);
}

class SumAllreduceTest : public ::testing::TestWithParam<Config> {};

TEST_P(SumAllreduceTest, RingMatchesSerialSum) {
  const auto [ranks, count, dtype] = GetParam();
  auto grads = make_gradients(ranks, count, dtype, 101);
  const Tensor expected = serial_sum(grads);
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    ring_allreduce_sum(comm, mine);
    const double tol = dtype == DType::kFloat16 ? 0.25 : 1e-4;
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_NEAR(mine.at(i), expected.at(i), tol) << "i=" << i;
  });
}

TEST_P(SumAllreduceTest, RvhMatchesSerialSumForPow2) {
  const auto [ranks, count, dtype] = GetParam();
  if ((ranks & (ranks - 1)) != 0) GTEST_SKIP() << "RVH needs power of two";
  auto grads = make_gradients(ranks, count, dtype, 102);
  const Tensor expected = serial_sum(grads);
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    rvh_allreduce_sum(comm, mine);
    const double tol = dtype == DType::kFloat16 ? 0.25 : 1e-4;
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_NEAR(mine.at(i), expected.at(i), tol) << "i=" << i;
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SumAllreduceTest,
    ::testing::Values(Config{2, 64, DType::kFloat32},
                      Config{3, 65, DType::kFloat32},
                      Config{4, 1, DType::kFloat32},
                      Config{4, 1024, DType::kFloat32},
                      Config{5, 17, DType::kFloat32},
                      Config{8, 255, DType::kFloat32},
                      Config{8, 256, DType::kFloat64},
                      Config{16, 100, DType::kFloat32},
                      Config{4, 512, DType::kFloat16}),
    [](const auto& param_info) {
      return "r" + std::to_string(param_info.param.ranks) + "_n" +
             std::to_string(param_info.param.count) + "_" +
             dtype_name(param_info.param.dtype);
    });

class AdasumRvhTest : public ::testing::TestWithParam<Config> {};

TEST_P(AdasumRvhTest, MatchesSerialTree) {
  const auto [ranks, count, dtype] = GetParam();
  auto grads = make_gradients(ranks, count, dtype, 103);
  const Tensor expected = adasum_tree(grads);
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    adasum_rvh_allreduce(comm, mine);
    const double tol = dtype == DType::kFloat16 ? 0.05 : 1e-4;
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_NEAR(mine.at(i), expected.at(i),
                  tol * (1.0 + std::abs(expected.at(i))))
          << "i=" << i;
  });
}

TEST_P(AdasumRvhTest, AllRanksAgreeExactly) {
  const auto [ranks, count, dtype] = GetParam();
  auto grads = make_gradients(ranks, count, dtype, 104);
  std::vector<Tensor> results(static_cast<std::size_t>(ranks));
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    adasum_rvh_allreduce(comm, mine);
    results[static_cast<std::size_t>(comm.rank())] = std::move(mine);
  });
  for (int r = 1; r < ranks; ++r)
    for (std::size_t i = 0; i < count; ++i)
      ASSERT_EQ(results[static_cast<std::size_t>(r)].at(i), results[0].at(i))
          << "rank " << r << " i=" << i;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AdasumRvhTest,
    ::testing::Values(Config{2, 64, DType::kFloat32},
                      Config{2, 1, DType::kFloat32},
                      Config{4, 7, DType::kFloat32},
                      Config{4, 4096, DType::kFloat32},
                      Config{8, 129, DType::kFloat32},
                      Config{8, 64, DType::kFloat64},
                      Config{16, 333, DType::kFloat32},
                      Config{32, 64, DType::kFloat32}),
    [](const auto& param_info) {
      return "r" + std::to_string(param_info.param.ranks) + "_n" +
             std::to_string(param_info.param.count) + "_" +
             dtype_name(param_info.param.dtype);
    });

TEST(AdasumRvh, RejectsNonPowerOfTwo) {
  World world(3);
  EXPECT_THROW(world.run([](Comm& comm) {
    Tensor t({8});
    adasum_rvh_allreduce(comm, t);
  }),
               CheckError);
}

TEST(AdasumRvh, LayerwiseMatchesSerialLayerwiseTree) {
  const int ranks = 8;
  const std::size_t count = 96;
  auto grads = make_gradients(ranks, count, DType::kFloat32, 105);
  const std::vector<TensorSlice> slices{
      {"conv1", 0, 30}, {"conv2", 30, 50}, {"fc", 80, 16}};
  const Tensor expected = adasum_tree_layerwise(grads, slices);
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    adasum_rvh_allreduce(comm, mine, slices);
    for (const TensorSlice& s : slices)
      for (std::size_t i = s.offset; i < s.offset + s.count; ++i)
        ASSERT_NEAR(mine.at(i), expected.at(i),
                    1e-4 * (1.0 + std::abs(expected.at(i))))
            << "i=" << i;
  });
}

TEST(AdasumRvh, SubgroupReduction) {
  // Ranks {0,2,4,6} reduce among themselves; odd ranks form another group.
  const int ranks = 8;
  auto grads = make_gradients(ranks, 32, DType::kFloat32, 106);
  std::vector<Tensor> even_grads, odd_grads;
  for (int r = 0; r < ranks; r += 2)
    even_grads.push_back(grads[static_cast<std::size_t>(r)].clone());
  for (int r = 1; r < ranks; r += 2)
    odd_grads.push_back(grads[static_cast<std::size_t>(r)].clone());
  const Tensor even_expected = adasum_tree(even_grads);
  const Tensor odd_expected = adasum_tree(odd_grads);
  World world(ranks);
  world.run([&](Comm& comm) {
    std::vector<int> group;
    for (int r = comm.rank() % 2; r < ranks; r += 2) group.push_back(r);
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    adasum_rvh_allreduce(comm, mine.data(), mine.size(), mine.dtype(), {}, 0,
                         group);
    const Tensor& expected =
        comm.rank() % 2 == 0 ? even_expected : odd_expected;
    for (std::size_t i = 0; i < mine.size(); ++i)
      ASSERT_NEAR(mine.at(i), expected.at(i),
                  1e-4 * (1.0 + std::abs(expected.at(i))));
  });
}

TEST(AdasumLinear, MatchesSerialLinear) {
  for (int ranks : {2, 3, 5, 8}) {
    auto grads = make_gradients(ranks, 50, DType::kFloat32, 107);
    const Tensor expected = adasum_linear(grads);
    World world(ranks);
    world.run([&](Comm& comm) {
      Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
      adasum_linear_allreduce(comm, mine);
      for (std::size_t i = 0; i < mine.size(); ++i)
        ASSERT_NEAR(mine.at(i), expected.at(i),
                    1e-5 * (1.0 + std::abs(expected.at(i))))
            << "ranks=" << ranks << " i=" << i;
    });
  }
}

TEST(Hierarchical, SumModeMatchesGlobalSum) {
  const int ranks = 8, per_node = 2;
  auto grads = make_gradients(ranks, 40, DType::kFloat32, 108);
  const Tensor expected = serial_sum(grads);
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    hierarchical_allreduce(comm, mine, per_node, /*use_adasum=*/false);
    for (std::size_t i = 0; i < mine.size(); ++i)
      ASSERT_NEAR(mine.at(i), expected.at(i), 1e-4);
  });
}

TEST(Hierarchical, AdasumModeMatchesTreeOfNodeAverages) {
  const int ranks = 8, per_node = 2;
  const std::size_t count = 40;
  auto grads = make_gradients(ranks, count, DType::kFloat32, 109);
  // Reference: average inside each node, then tree-Adasum across nodes,
  // applied independently per reduce-scatter shard (the shard boundaries act
  // as layer boundaries for the cross-node Adasum — Horovod's hierarchical
  // semantics).
  std::vector<Tensor> node_avgs;
  for (int n = 0; n < ranks / per_node; ++n) {
    Tensor avg = grads[static_cast<std::size_t>(n * per_node)].clone();
    for (int j = 1; j < per_node; ++j)
      kernels::add(
          grads[static_cast<std::size_t>(n * per_node + j)].span<float>(),
          avg.span<float>());
    kernels::scale(1.0 / per_node, avg.span<float>());
    node_avgs.push_back(std::move(avg));
  }
  std::vector<TensorSlice> shard_slices;
  for (int c = 0; c < per_node; ++c) {
    const std::size_t cb = count * static_cast<std::size_t>(c) / per_node;
    const std::size_t ce = count * static_cast<std::size_t>(c + 1) / per_node;
    shard_slices.push_back(TensorSlice{"shard" + std::to_string(c), cb, ce - cb});
  }
  const Tensor expected = adasum_tree_layerwise(node_avgs, shard_slices);
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    hierarchical_allreduce(comm, mine, per_node, /*use_adasum=*/true);
    for (std::size_t i = 0; i < mine.size(); ++i)
      ASSERT_NEAR(mine.at(i), expected.at(i),
                  1e-4 * (1.0 + std::abs(expected.at(i))));
  });
}

TEST(Hierarchical, SingleGpuNodesDegradeToFlatAdasum) {
  const int ranks = 4;
  auto grads = make_gradients(ranks, 24, DType::kFloat32, 110);
  const Tensor expected = adasum_tree(grads);
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    hierarchical_allreduce(comm, mine, /*ranks_per_node=*/1, true);
    for (std::size_t i = 0; i < mine.size(); ++i)
      ASSERT_NEAR(mine.at(i), expected.at(i),
                  1e-4 * (1.0 + std::abs(expected.at(i))));
  });
}

TEST(Dispatcher, AverageScalesSum) {
  const int ranks = 4;
  auto grads = make_gradients(ranks, 20, DType::kFloat32, 111);
  const Tensor sum = serial_sum(grads);
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    allreduce(comm, mine, AllreduceOptions{.op = ReduceOp::kAverage});
    for (std::size_t i = 0; i < mine.size(); ++i)
      ASSERT_NEAR(mine.at(i), sum.at(i) / ranks, 1e-5);
  });
}

TEST(Dispatcher, AdasumAutoFallsBackForNonPow2) {
  const int ranks = 6;
  auto grads = make_gradients(ranks, 30, DType::kFloat32, 112);
  const Tensor expected = adasum_tree(grads);
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    allreduce(comm, mine, AllreduceOptions{.op = ReduceOp::kAdasum});
    for (std::size_t i = 0; i < mine.size(); ++i)
      ASSERT_NEAR(mine.at(i), expected.at(i),
                  1e-5 * (1.0 + std::abs(expected.at(i))));
  });
}

TEST(Dispatcher, FusedAllreduceWritesBackPerTensor) {
  const int ranks = 4;
  World world(ranks);
  std::vector<std::vector<Tensor>> per_rank(static_cast<std::size_t>(ranks));
  Rng rng(113);
  for (int r = 0; r < ranks; ++r) {
    Rng fork = rng.fork(static_cast<std::uint64_t>(r));
    per_rank[static_cast<std::size_t>(r)].push_back(Tensor({16}));
    per_rank[static_cast<std::size_t>(r)].push_back(Tensor({8}));
    for (Tensor& t : per_rank[static_cast<std::size_t>(r)])
      for (std::size_t i = 0; i < t.size(); ++i) t.set(i, fork.normal());
  }
  // Serial reference: per-layer tree Adasum via fuse.
  std::vector<Tensor> fused_inputs;
  std::vector<TensorSlice> slices;
  for (int r = 0; r < ranks; ++r) {
    const auto& ts = per_rank[static_cast<std::size_t>(r)];
    FusedTensor f = fuse({&ts[0], &ts[1]});
    slices = f.slices;
    fused_inputs.push_back(std::move(f.flat));
  }
  const Tensor expected = adasum_tree_layerwise(fused_inputs, slices);

  world.run([&](Comm& comm) {
    auto ts = per_rank[static_cast<std::size_t>(comm.rank())];
    std::vector<Tensor*> ptrs{&ts[0], &ts[1]};
    allreduce_fused(comm, ptrs, AllreduceOptions{.op = ReduceOp::kAdasum});
    for (std::size_t i = 0; i < 16; ++i)
      ASSERT_NEAR(ts[0].at(i), expected.at(i), 1e-5);
    for (std::size_t i = 0; i < 8; ++i)
      ASSERT_NEAR(ts[1].at(i), expected.at(16 + i), 1e-5);
  });
}

// ---------------------------------------------------------------------------
// Zero-copy parity: the in-place production AdasumRVH must produce
// BYTE-IDENTICAL output to the copy-based reference formulation — the
// rewrite changed staging only, never arithmetic or message pattern.
// ---------------------------------------------------------------------------

enum class SliceTable { kNone, kTiling, kNonTiling };

std::vector<TensorSlice> make_slice_table(SliceTable kind, std::size_t count) {
  switch (kind) {
    case SliceTable::kNone:
      return {};
    case SliceTable::kTiling: {
      // Three layers tiling [0, count) completely.
      const std::size_t a = count / 3, b = count / 2;
      return {{"l0", 0, a}, {"l1", a, b - a}, {"l2", b, count - b}};
    }
    case SliceTable::kNonTiling: {
      // Gaps before, between and after the layers; gap elements keep the
      // rank's own contribution under both implementations.
      const std::size_t a = count / 5, b = count / 2;
      return {{"l0", a, count / 6 + 1}, {"l1", b, count / 4}};
    }
  }
  return {};
}

struct ParityConfig {
  int ranks;
  std::size_t count;
  DType dtype;
  SliceTable table;
};

void PrintTo(const ParityConfig& c, std::ostream* os) {
  print_zero_padded(c, os, &ParityConfig::ranks, &ParityConfig::count,
                    &ParityConfig::dtype, &ParityConfig::table);
}

class InplaceRvhParityTest : public ::testing::TestWithParam<ParityConfig> {};

TEST_P(InplaceRvhParityTest, BitForBitMatchesReference) {
  const auto [ranks, count, dtype, table] = GetParam();
  auto grads = make_gradients(ranks, count, dtype, 114);
  const std::vector<TensorSlice> slices = make_slice_table(table, count);
  const std::size_t nbytes = count * dtype_size(dtype);
  World world(ranks);
  world.run([&](Comm& comm) {
    const Tensor& input = grads[static_cast<std::size_t>(comm.rank())];
    Tensor inplace = input.clone();
    adasum_rvh_allreduce(comm, inplace.data(), count, dtype, slices,
                         /*tag_base=*/0);
    Tensor reference = input.clone();
    adasum_rvh_allreduce_reference(comm, reference.data(), count, dtype,
                                   slices, /*tag_base=*/50000);
    ASSERT_EQ(std::memcmp(inplace.data(), reference.data(), nbytes), 0)
        << "rank " << comm.rank();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, InplaceRvhParityTest,
    ::testing::Values(
        ParityConfig{2, 64, DType::kFloat32, SliceTable::kNone},
        ParityConfig{2, 97, DType::kFloat16, SliceTable::kTiling},
        ParityConfig{4, 1, DType::kFloat32, SliceTable::kNone},
        ParityConfig{4, 255, DType::kFloat32, SliceTable::kTiling},
        ParityConfig{4, 255, DType::kFloat32, SliceTable::kNonTiling},
        ParityConfig{4, 512, DType::kFloat16, SliceTable::kNonTiling},
        ParityConfig{4, 128, DType::kFloat64, SliceTable::kTiling},
        ParityConfig{8, 333, DType::kFloat32, SliceTable::kTiling},
        ParityConfig{8, 333, DType::kFloat32, SliceTable::kNonTiling},
        ParityConfig{8, 96, DType::kFloat64, SliceTable::kNonTiling},
        ParityConfig{8, 1024, DType::kFloat16, SliceTable::kNone}),
    [](const auto& param_info) {
      const char* table = param_info.param.table == SliceTable::kNone     ? "whole"
                          : param_info.param.table == SliceTable::kTiling ? "tiling"
                                                                    : "gappy";
      return "r" + std::to_string(param_info.param.ranks) + "_n" +
             std::to_string(param_info.param.count) + "_" +
             dtype_name(param_info.param.dtype) + "_" + table;
    });

TEST(InplaceRvhParity, SubgroupBitForBitMatchesReference) {
  const int ranks = 8;
  const std::size_t count = 120;
  auto grads = make_gradients(ranks, count, DType::kFloat32, 115);
  const std::vector<TensorSlice> slices = {{"a", 0, 50}, {"b", 50, 70}};
  World world(ranks);
  world.run([&](Comm& comm) {
    std::vector<int> group;
    for (int r = comm.rank() % 2; r < ranks; r += 2) group.push_back(r);
    const Tensor& input = grads[static_cast<std::size_t>(comm.rank())];
    Tensor inplace = input.clone();
    adasum_rvh_allreduce(comm, inplace.data(), count, DType::kFloat32, slices,
                         0, group);
    Tensor reference = input.clone();
    adasum_rvh_allreduce_reference(comm, reference.data(), count,
                                   DType::kFloat32, slices, 50000, group);
    ASSERT_EQ(std::memcmp(inplace.data(), reference.data(), inplace.nbytes()),
              0)
        << "rank " << comm.rank();
  });
}

// ---------------------------------------------------------------------------
// Sum-RVH bit oracle: a serial simulation of the recursive-vector-halving
// schedule, step by step. Level d pairs group index r with r ± d, and the
// left member (r/d even) keeps the lower seg/2 elements. On the way down
// each side adds the partner's copy of its kept half (through the wire codec
// when compression is on); on the unwind each side compresses its segment,
// decodes the blob over itself and the partner decodes the same blob into
// the landing range. Every rank's collective output must match the
// simulation byte for byte.
// ---------------------------------------------------------------------------

using RankBytes = std::vector<std::vector<std::byte>>;

RankBytes random_rank_inputs(int ranks, std::size_t count, DType dtype,
                             std::uint64_t seed) {
  // Full-precision values (no exact grid), so a change in the reduction tree
  // or the operand order shows up in the bits.
  Rng rng(seed);
  RankBytes inputs(static_cast<std::size_t>(ranks));
  for (int r = 0; r < ranks; ++r) {
    Rng fork = rng.fork(static_cast<std::uint64_t>(r));
    Tensor t({count}, dtype);
    for (std::size_t i = 0; i < count; ++i) t.set(i, fork.normal());
    inputs[static_cast<std::size_t>(r)].assign(t.data(), t.data() + t.nbytes());
  }
  return inputs;
}

RankBytes simulate_rvh_sum(RankBytes bufs, std::size_t count, DType dtype,
                           const CompressionOptions& comp) {
  const int p = static_cast<int>(bufs.size());
  const std::size_t elem = dtype_size(dtype);
  struct Seg {
    std::size_t begin, count;
  };
  const auto at = [&](int r, std::size_t i) {
    return bufs[static_cast<std::size_t>(r)].data() + i * elem;
  };
  const auto as_f32 = [](std::byte* b) { return reinterpret_cast<float*>(b); };
  // Round-trips `n` floats at `src` through the codec into `dst`: added when
  // `add`, decoded over otherwise.
  std::vector<float> blob;
  const auto codec = [&](std::byte* src, std::byte* dst, std::size_t n,
                         bool add) {
    blob.assign((compressed_wire_bytes(n, comp) + 3) / 4, 0.0f);
    std::byte* const wire = reinterpret_cast<std::byte*>(blob.data());
    compress_f32({as_f32(src), n}, comp, wire);
    if (add)
      decompress_add_f32(wire, comp, n, 0, {as_f32(dst), n});
    else
      decompress_f32(wire, comp, {as_f32(dst), n});
  };

  std::vector<Seg> seg(static_cast<std::size_t>(p), Seg{0, count});
  std::vector<std::vector<Seg>> kept_per_level;
  for (int d = 1; d < p; d <<= 1) {
    std::vector<Seg> kept(static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) {
      const Seg s = seg[static_cast<std::size_t>(r)];
      const std::size_t mid = s.count / 2;
      kept[static_cast<std::size_t>(r)] =
          (r / d) % 2 == 0 ? Seg{s.begin, mid}
                           : Seg{s.begin + mid, s.count - mid};
    }
    // The partner only writes its own (disjoint) kept half at this level, so
    // the rank order of this loop cannot change what anyone reads.
    for (int r = 0; r < p; ++r) {
      const int partner = (r / d) % 2 == 0 ? r + d : r - d;
      const Seg k = kept[static_cast<std::size_t>(r)];
      if (comp.active())
        codec(at(partner, k.begin), at(r, k.begin), k.count, /*add=*/true);
      else
        kernels::add_bytes(at(partner, k.begin), at(r, k.begin), k.count,
                           dtype);
    }
    kept_per_level.push_back(kept);
    seg = std::move(kept);
  }
  for (int l = static_cast<int>(kept_per_level.size()) - 1; l >= 0; --l) {
    const int d = 1 << l;
    const std::vector<Seg>& kept = kept_per_level[static_cast<std::size_t>(l)];
    for (int r = 0; r < p; ++r) {
      const int partner = (r / d) % 2 == 0 ? r + d : r - d;
      const Seg k = kept[static_cast<std::size_t>(r)];
      if (comp.active()) {
        // Requantize: the rank decodes its own blob over itself, the partner
        // decodes the very same blob into its landing range.
        codec(at(r, k.begin), at(partner, k.begin), k.count, /*add=*/false);
        decompress_f32(reinterpret_cast<const std::byte*>(blob.data()), comp,
                       {as_f32(at(r, k.begin)), k.count});
      } else if (k.count > 0) {
        std::memcpy(at(partner, k.begin), at(r, k.begin), k.count * elem);
      }
    }
  }
  return bufs;
}

// Runs rvh_allreduce_sum concurrently on each of `groups` (disjoint lists of
// world ranks; one empty group means the whole world) with the given
// transport and pipeline chunk. Returns each group's outputs by group index.
std::vector<RankBytes> run_rvh_sum_groups(
    int world_size, const std::vector<std::vector<int>>& groups,
    const std::vector<RankBytes>& inputs, std::size_t count, DType dtype,
    const CompressionOptions& comp, const char* transport,
    std::size_t chunk_bytes) {
  World world(world_size);
  EXPECT_TRUE(world.set_transport(transport));
  PipelineOptions pipe;
  pipe.enabled = chunk_bytes > 0;
  if (chunk_bytes > 0) pipe.chunk_bytes = chunk_bytes;
  world.set_pipeline(pipe);
  std::vector<RankBytes> out;
  for (const RankBytes& in : inputs) out.emplace_back(in.size());
  world.run([&](Comm& comm) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const std::vector<int>& group = groups[g];
      const auto it = std::find(group.begin(), group.end(), comm.rank());
      if (!group.empty() && it == group.end()) continue;
      const std::size_t idx = group.empty()
                                  ? static_cast<std::size_t>(comm.rank())
                                  : static_cast<std::size_t>(it - group.begin());
      std::vector<std::byte> buf = inputs[g][idx];
      rvh_allreduce_sum(comm, buf.data(), count, dtype, /*tag_base=*/0, group,
                        comp);
      out[g][idx] = std::move(buf);
    }
  });
  return out;
}

RankBytes run_rvh_sum(const RankBytes& inputs, std::size_t count, DType dtype,
                      const CompressionOptions& comp, const char* transport,
                      std::size_t chunk_bytes) {
  return run_rvh_sum_groups(static_cast<int>(inputs.size()), {{}}, {inputs},
                            count, dtype, comp, transport, chunk_bytes)[0];
}

void expect_rank_bytes_equal(const RankBytes& got, const RankBytes& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    ASSERT_EQ(got[r].size(), want[r].size()) << "rank " << r;
    EXPECT_TRUE(got[r].empty() ||
                std::memcmp(got[r].data(), want[r].data(), got[r].size()) == 0)
        << "rank " << r;
  }
}

constexpr const char* kTransports[] = {"mailbox", "shm"};
constexpr std::size_t kPipelineChunks[] = {0, 4096};

TEST(SumRvhOracle, UncompressedBitIdenticalToSerialSchedule) {
  CompressionOptions none;
  none.mode = CompressionMode::kNone;
  for (int p : {2, 4, 8, 16})
    for (DType dtype : {DType::kFloat32, DType::kFloat64, DType::kFloat16})
      for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{1000},
                            std::size_t{100003}}) {
        const RankBytes inputs = random_rank_inputs(p, n, dtype, 118);
        const RankBytes want = simulate_rvh_sum(inputs, n, dtype, none);
        for (const char* transport : kTransports)
          for (std::size_t chunk : kPipelineChunks) {
            SCOPED_TRACE(::testing::Message()
                         << "p=" << p << " " << dtype_name(dtype) << " n=" << n
                         << " " << transport << " chunk=" << chunk);
            expect_rank_bytes_equal(
                run_rvh_sum(inputs, n, dtype, none, transport, chunk),
                want);
          }
      }
}

TEST(SumRvhOracle, CompressedBitIdenticalToSerialSchedule) {
  for (int p : {2, 4, 8})
    for (CompressionMode mode : {CompressionMode::kInt8,
                                 CompressionMode::kInt4,
                                 CompressionMode::kSign})
      for (bool stochastic : {true, false})
        for (std::size_t n : {std::size_t{9}, std::size_t{1000},
                              std::size_t{65537}}) {
          CompressionOptions comp;
          comp.mode = mode;
          comp.block_bytes = 512;
          comp.stochastic = stochastic;
          const RankBytes inputs =
              random_rank_inputs(p, n, DType::kFloat32, 119);
          const RankBytes want =
              simulate_rvh_sum(inputs, n, DType::kFloat32, comp);
          for (const char* transport : kTransports)
            for (std::size_t chunk : kPipelineChunks) {
              SCOPED_TRACE(::testing::Message()
                           << "p=" << p << " " << compression_mode_name(mode)
                           << " stochastic=" << stochastic << " n=" << n
                           << " " << transport << " chunk=" << chunk);
              expect_rank_bytes_equal(
                  run_rvh_sum(inputs, n, DType::kFloat32, comp, transport,
                              chunk),
                  want);
            }
        }
}

TEST(SumRvhOracle, PermutedSubgroupsBitIdenticalToSerialSchedule) {
  // Two interleaved, permuted groups of four inside an 8-rank world reduce
  // concurrently on the same tags; each must match the simulation over its
  // own group order.
  const std::vector<int> g0{5, 2, 7, 0};
  const std::vector<int> g1{6, 3, 1, 4};
  const std::size_t n = 1000;
  CompressionOptions none;
  none.mode = CompressionMode::kNone;
  CompressionOptions int8;
  int8.mode = CompressionMode::kInt8;
  int8.block_bytes = 512;
  for (const CompressionOptions& comp : {none, int8}) {
    const RankBytes in0 = random_rank_inputs(4, n, DType::kFloat32, 120);
    const RankBytes in1 = random_rank_inputs(4, n, DType::kFloat32, 121);
    const RankBytes want0 = simulate_rvh_sum(in0, n, DType::kFloat32, comp);
    const RankBytes want1 = simulate_rvh_sum(in1, n, DType::kFloat32, comp);
    for (const char* transport : kTransports)
      for (std::size_t chunk : kPipelineChunks) {
        SCOPED_TRACE(::testing::Message()
                     << compression_mode_name(comp.mode) << " " << transport
                     << " chunk=" << chunk);
        const std::vector<RankBytes> out =
            run_rvh_sum_groups(8, {g0, g1}, {in0, in1}, n, DType::kFloat32,
                               comp, transport, chunk);
        expect_rank_bytes_equal(out[0], want0);
        expect_rank_bytes_equal(out[1], want1);
      }
  }
}

// ---------------------------------------------------------------------------
// Steady-state allocation regression: once the world's BufferPool holds the
// schedule's worst-case concurrent working set, allreduces must run entirely
// on recycled buffers — zero new pool allocations.
//
// Organic warm-up alone cannot guarantee that deterministically: the peak
// number of simultaneously-in-flight buffers depends on how the rank threads
// interleave, so an unlucky first iteration under-provisions the pool and a
// maximally-skewed later iteration still misses. The worst case is statically
// bounded, though — every send payload plus every scratch lease of one
// iteration live at once — so the tests top the pool up to that bound and
// then assert the hard invariant. Leaks still trip the assertion: the steady
// phase runs enough iterations that losing even one buffer per iteration
// exhausts the provisioned slack.
// ---------------------------------------------------------------------------

// Acquires `count` distinct buffers of `bytes` (holding them all so the pool
// cannot satisfy two requests from one buffer) plus `small_count` of
// `small_bytes`, then releases everything to the free list.
void provision_pool(BufferPool& pool, std::size_t bytes, int count,
                    std::size_t small_bytes, int small_count) {
  std::vector<std::vector<std::byte>> held;
  for (int i = 0; i < count; ++i) held.push_back(pool.acquire(bytes));
  for (int i = 0; i < small_count; ++i)
    held.push_back(pool.acquire(small_bytes));
  for (auto& b : held) pool.release(std::move(b));
}

TEST(ZeroCopy, WarmAdasumRvhMakesNoPoolAllocations) {
  const int ranks = 4;
  const std::size_t count = 4096;
  const int steady_iters = 10;
  auto grads = make_gradients(ranks, count, DType::kFloat32, 116);
  const std::vector<TensorSlice> slices = make_slice_table(
      SliceTable::kTiling, count);
  World world(ranks);
  BufferPool::Stats warm{};
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    // One organic iteration first, so recycling is exercised end to end
    // before the explicit top-up.
    adasum_rvh_allreduce(comm, mine, slices, /*tag_base=*/0);
    comm.barrier();
    if (comm.rank() == 0) {
      // Worst-case large-buffer demand: each rank holds its half-exchange
      // scratch plus up to four un-popped send payloads (reduce-scatter and
      // unwind, two levels each), all at most count/2 elements. Small
      // leases (dot-product triples, their allreduce payloads, level
      // records) all fit in 128 bytes.
      provision_pool(world.buffer_pool(), (count / 2) * sizeof(float),
                     5 * ranks, 128, 8 * ranks);
      world.buffer_pool().reset_stats();
    }
    comm.barrier();
    // Steady state: every payload and workspace must come from the pool.
    for (int it = 1; it <= steady_iters; ++it)
      adasum_rvh_allreduce(comm, mine, slices, /*tag_base=*/it << 16);
    comm.barrier();
    if (comm.rank() == 0) warm = world.buffer_pool().stats();
  });
  EXPECT_EQ(warm.allocations, 0u)
      << "steady-state allreduces allocated " << warm.allocations
      << " new buffers (reuses=" << warm.reuses << ")";
  EXPECT_GT(warm.reuses, 0u);
}

TEST(ZeroCopy, WarmSumAllreducesMakeNoPoolAllocations) {
  const int ranks = 4;
  const std::size_t count = 1000;
  const int steady_iters = 10;
  auto grads = make_gradients(ranks, count, DType::kFloat32, 117);
  World world(ranks);
  BufferPool::Stats warm{};
  world.run([&](Comm& comm) {
    Tensor mine = grads[static_cast<std::size_t>(comm.rank())].clone();
    rvh_allreduce_sum(comm, mine, /*tag_base=*/0);
    ring_allreduce_sum(comm, mine, /*tag_base=*/1 << 16);
    comm.barrier();
    if (comm.rank() == 0) {
      // RVH holds a half-buffer plus four sends per rank (≤ count/2
      // elements); the ring holds a chunk-sized scratch plus six sends per
      // rank. Rank skew can overlap the two collectives, so cover the sum.
      provision_pool(world.buffer_pool(),
                     ((count + 1) / 2) * sizeof(float), 12 * ranks, 128,
                     4 * ranks);
      world.buffer_pool().reset_stats();
    }
    comm.barrier();
    for (int it = 1; it <= steady_iters; ++it) {
      rvh_allreduce_sum(comm, mine, /*tag_base=*/(2 * it) << 16);
      ring_allreduce_sum(comm, mine, /*tag_base=*/(2 * it + 1) << 16);
    }
    comm.barrier();
    if (comm.rank() == 0) warm = world.buffer_pool().stats();
  });
  EXPECT_EQ(warm.allocations, 0u)
      << "steady-state allreduces allocated " << warm.allocations
      << " new buffers (reuses=" << warm.reuses << ")";
  EXPECT_GT(warm.reuses, 0u);
}

TEST(Collectives, AdasumPropertiesHoldThroughRvh) {
  // End-to-end property: orthogonal per-rank gradients sum; identical ones
  // average — through the full distributed path.
  const int ranks = 8;
  World world(ranks);
  world.run([&](Comm& comm) {
    Tensor orth({8});
    orth.set(static_cast<std::size_t>(comm.rank()), 1.0);
    adasum_rvh_allreduce(comm, orth);
    for (std::size_t i = 0; i < 8; ++i)
      ASSERT_NEAR(orth.at(i), 1.0, 1e-6) << i;

    Tensor same = Tensor::from_vector({2, -6, 4});
    adasum_rvh_allreduce(comm, same);
    ASSERT_NEAR(same.at(0), 2.0, 1e-6);
    ASSERT_NEAR(same.at(1), -6.0, 1e-6);
  });
}

}  // namespace
}  // namespace adasum
