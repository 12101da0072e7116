// Tests for the DistributedOptimizer integration semantics (Figure 3).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "base/rng.h"
#include "collectives/adasum_rvh_reference.h"
#include "core/adasum.h"
#include "tensor/kernels.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "optim/distributed_optimizer.h"
#include "tensor/quantize.h"
#include "tensor/scaling.h"
#include "train/hessian.h"

namespace adasum::optim {
namespace {

using adasum::adasum_tree_layerwise;
namespace kernels = adasum::kernels;

using nn::Parameter;

// Build a tiny deterministic model per rank.
std::unique_ptr<nn::Sequential> small_model(std::uint64_t seed) {
  Rng rng(seed);
  return nn::make_mlp({4, 8, 3}, rng);
}

// One synthetic classification microbatch per (rank, step).
struct MicroBatch {
  Tensor x;
  std::vector<int> y;
};
MicroBatch batch_for(int rank, int step, std::uint64_t seed = 7) {
  Rng rng = Rng(seed).fork(static_cast<std::uint64_t>(rank * 1000 + step));
  MicroBatch mb;
  mb.x = Tensor({8, 4});
  auto xs = mb.x.span<float>();
  for (auto& v : xs) v = static_cast<float>(rng.normal());
  for (int i = 0; i < 8; ++i)
    mb.y.push_back(static_cast<int>(rng.uniform_int(3)));
  return mb;
}

void forward_backward(nn::Sequential& model, const MicroBatch& mb) {
  const Tensor logits = model.forward(mb.x, true);
  const nn::LossResult lr = nn::softmax_cross_entropy(logits, mb.y);
  model.backward(lr.grad);
}

TEST(DistributedOptimizerTest, SumModeMatchesManualGradientSum) {
  // 4 ranks, Sum op: the update must equal a serial SGD step on the SUM of
  // the per-rank gradients.
  const int ranks = 4;
  const double lr = 0.05;

  // Serial reference.
  auto ref = small_model(11);
  auto ref_params = ref->parameters();
  nn::zero_grads(ref_params);
  for (int r = 0; r < ranks; ++r) forward_backward(*ref, batch_for(r, 0));
  // grads now hold the sum over ranks' microbatches.
  Sgd ref_opt(ref_params);
  ref_opt.step(lr);
  const Tensor expected = train::params_to_flat(ref_params);

  Tensor got;
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(11);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kSum;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    forward_backward(*model, batch_for(comm.rank(), 0));
    EXPECT_TRUE(dopt.step(lr));
    if (comm.rank() == 0) got = train::params_to_flat(params);
  });

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got.at(i), expected.at(i), 1e-5) << i;
}

TEST(DistributedOptimizerTest, AverageModeDividesByWorld) {
  const int ranks = 2;
  const double lr = 0.1;
  auto ref = small_model(12);
  auto ref_params = ref->parameters();
  nn::zero_grads(ref_params);
  for (int r = 0; r < ranks; ++r) forward_backward(*ref, batch_for(r, 0));
  for (Parameter* p : ref_params) {
    auto g = p->grad.span<float>();
    for (auto& v : g) v *= 0.5f;
  }
  Sgd ref_opt(ref_params);
  ref_opt.step(lr);
  const Tensor expected = train::params_to_flat(ref_params);

  Tensor got;
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(12);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kAverage;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    forward_backward(*model, batch_for(comm.rank(), 0));
    dopt.step(lr);
    if (comm.rank() == 0) got = train::params_to_flat(params);
  });
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got.at(i), expected.at(i), 1e-5);
}

TEST(DistributedOptimizerTest, AdasumStepAppliesOperatorToEffectiveGradients) {
  // With plain SGD inside, each rank's effective gradient is -lr * g_r, so
  // the post-step model must be w0 + AdasumTree({-lr g_r}) applied per layer.
  const int ranks = 4;
  const double lr = 0.05;

  // Collect per-rank gradients serially.
  std::vector<std::vector<Tensor>> eff(ranks);
  auto probe = small_model(13);
  const Tensor w0 = train::params_to_flat(probe->parameters());
  std::vector<TensorSlice> slices;
  {
    auto params = probe->parameters();
    for (int r = 0; r < ranks; ++r) {
      nn::zero_grads(params);
      forward_backward(*probe, batch_for(r, 0));
      for (Parameter* p : params) {
        Tensor d = p->grad.clone();
        kernels::scale(-lr, d.span<float>());
        eff[static_cast<std::size_t>(r)].push_back(std::move(d));
      }
    }
    std::size_t offset = 0;
    for (Parameter* p : params) {
      slices.push_back(TensorSlice{p->name, offset, p->size()});
      offset += p->size();
    }
  }
  // Expected: per-layer tree Adasum of the effective gradients.
  std::vector<Tensor> fused;
  for (int r = 0; r < ranks; ++r) {
    std::vector<const Tensor*> ptrs;
    for (const Tensor& t : eff[static_cast<std::size_t>(r)])
      ptrs.push_back(&t);
    fused.push_back(fuse(ptrs).flat);
  }
  const Tensor combined = adasum_tree_layerwise(fused, slices);
  Tensor expected = w0.clone();
  kernels::add(combined.span<float>(), expected.span<float>());

  Tensor got;
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(13);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    forward_backward(*model, batch_for(comm.rank(), 0));
    dopt.step(lr);
    if (comm.rank() == 0) got = train::params_to_flat(params);
  });
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got.at(i), expected.at(i),
                1e-5 * (1.0 + std::abs(expected.at(i))))
        << i;
}

TEST(DistributedOptimizerTest, SingleRankAdasumEqualsLocalTraining) {
  // With world=1 the Adasum distributed optimizer must reproduce plain local
  // training exactly (Adasum(g) == g).
  auto local = small_model(14);
  auto local_params = local->parameters();
  MomentumSgd local_opt(local_params);
  for (int s = 0; s < 5; ++s) {
    nn::zero_grads(local_params);
    forward_backward(*local, batch_for(0, s));
    local_opt.step(0.05);
  }
  const Tensor expected = train::params_to_flat(local_params);

  Tensor got;
  World world(1);
  world.run([&](Comm& comm) {
    auto model = small_model(14);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    DistributedOptimizer dopt(comm, std::make_unique<MomentumSgd>(params),
                              opts);
    for (int s = 0; s < 5; ++s) {
      forward_backward(*model, batch_for(0, s));
      dopt.step(0.05);
    }
    got = train::params_to_flat(params);
  });
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got.at(i), expected.at(i), 1e-6);
}

TEST(DistributedOptimizerTest, LocalStepsDelayCommunication) {
  World world(2);
  world.run([&](Comm& comm) {
    auto model = small_model(15);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.local_steps = 4;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    for (int s = 0; s < 8; ++s) {
      forward_backward(*model, batch_for(comm.rank(), s));
      const bool communicated = dopt.step(0.01);
      EXPECT_EQ(communicated, (s % 4) == 3) << s;
    }
    EXPECT_EQ(dopt.rounds(), 2);
  });
}

TEST(DistributedOptimizerTest, LocalStepsSumModeAccumulatesGradients) {
  // Sum mode with local_steps=2 must equal a serial step on the sum of all
  // 2*ranks microbatch gradients.
  const int ranks = 2;
  const double lr = 0.02;
  auto ref = small_model(16);
  auto ref_params = ref->parameters();
  nn::zero_grads(ref_params);
  for (int r = 0; r < ranks; ++r)
    for (int s = 0; s < 2; ++s) forward_backward(*ref, batch_for(r, s));
  Sgd ref_opt(ref_params);
  ref_opt.step(lr);
  const Tensor expected = train::params_to_flat(ref_params);

  Tensor got;
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(16);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kSum;
    opts.local_steps = 2;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    for (int s = 0; s < 2; ++s) {
      forward_backward(*model, batch_for(comm.rank(), s));
      dopt.step(lr);
    }
    if (comm.rank() == 0) got = train::params_to_flat(params);
  });
  for (std::size_t i = 0; i < got.size(); ++i)
    ASSERT_NEAR(got.at(i), expected.at(i), 1e-5);
}

TEST(DistributedOptimizerTest, AllRanksStayInSync) {
  const int ranks = 4;
  std::vector<Tensor> finals(ranks);
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(17);
    auto params = model->parameters();
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    DistributedOptimizer dopt(comm, std::make_unique<Adam>(params), opts);
    for (int s = 0; s < 6; ++s) {
      forward_backward(*model, batch_for(comm.rank(), s));
      dopt.step(0.01);
    }
    finals[static_cast<std::size_t>(comm.rank())] =
        train::params_to_flat(params);
  });
  for (int r = 1; r < ranks; ++r)
    for (std::size_t i = 0; i < finals[0].size(); ++i)
      ASSERT_EQ(finals[static_cast<std::size_t>(r)].at(i), finals[0].at(i));
}

TEST(DistributedOptimizerTest, Fp16CompressionStaysClose) {
  // fp16-compressed Adasum must track the fp32 path within fp16 tolerance.
  const int ranks = 4;
  auto run = [&](bool fp16) {
    Tensor result;
    World world(ranks);
    world.run([&](Comm& comm) {
      auto model = small_model(18);
      auto params = model->parameters();
      DistributedOptions opts;
      opts.op = ReduceOp::kAdasum;
      opts.compression = fp16 ? GradientCompression::kFp16
                               : GradientCompression::kNone;
      DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
      for (int s = 0; s < 4; ++s) {
        forward_backward(*model, batch_for(comm.rank(), s));
        dopt.step(0.05);
      }
      if (comm.rank() == 0) result = train::params_to_flat(params);
    });
    return result;
  };
  const Tensor full = run(false);
  const Tensor compressed = run(true);
  double max_err = 0.0;
  for (std::size_t i = 0; i < full.size(); ++i)
    max_err = std::max(max_err, std::abs(full.at(i) - compressed.at(i)));
  EXPECT_LT(max_err, 5e-3);
  EXPECT_GT(max_err, 0.0);  // fp16 did quantize something
}

TEST(DistributedOptimizerTest, Fp16OverflowSkipsRoundEverywhere) {
  const int ranks = 2;
  World world(ranks);
  world.run([&](Comm& comm) {
    auto model = small_model(19);
    auto params = model->parameters();
    const Tensor before = train::params_to_flat(params);
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.compression = GradientCompression::kFp16;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(params), opts);
    // Hand the optimizer a gradient so large the scaled fp16 cast overflows.
    params[0]->grad.fill(1e8);
    dopt.step(1.0);
    EXPECT_EQ(dopt.skipped_rounds(), 1);
    const Tensor after = train::params_to_flat(params);
    for (std::size_t i = 0; i < before.size(); ++i)
      ASSERT_EQ(after.at(i), before.at(i));  // reverted to round start
  });
}

// ---- bit-exact oracle for the Adasum round ---------------------------------
//
// The reference below stages the round the straightforward way: clone each
// parameter and subtract the round start, fuse each bucket into a fresh
// buffer, reduce it with the serial-schedule RVH reference, unfuse, then
// copy the round start back and add the reduced delta. The optimizer must
// reproduce it bit for bit on every rank, whatever staging it uses.

// 7, 129 and 501 are not multiples of the 8-float vector width, so every
// kernel's scalar tail runs; 1001 floats in all.
constexpr std::size_t kOracleSizes[] = {300, 7, 129, 64, 501};
constexpr int kOracleRounds = 3;
constexpr double kOracleLr = 0.05;

struct OracleCase {
  const char* name;
  int ranks = 4;
  std::size_t bucket_bytes = 0;
  bool background = false;
  bool layerwise = true;
  int local_steps = 1;
  CompressionMode wire = CompressionMode::kNone;
  GradientCompression compression = GradientCompression::kNone;
};

std::vector<Parameter> oracle_params() {
  std::vector<Parameter> ps;
  ps.reserve(std::size(kOracleSizes));
  for (std::size_t i = 0; i < std::size(kOracleSizes); ++i) {
    ps.emplace_back("p" + std::to_string(i),
                    std::vector<std::size_t>{kOracleSizes[i]});
    Rng rng = Rng(31).fork(i);
    for (float& v : ps.back().value.span<float>())
      v = static_cast<float>(rng.normal());
  }
  return ps;
}

std::vector<Parameter*> pointers(std::vector<Parameter>& ps) {
  std::vector<Parameter*> out;
  for (Parameter& p : ps) out.push_back(&p);
  return out;
}

// Deterministic per-(rank, step, parameter) gradients.
void oracle_grads(std::vector<Parameter>& ps, int rank, int step) {
  for (std::size_t i = 0; i < ps.size(); ++i) {
    Rng rng = Rng(29).fork(
        static_cast<std::uint64_t>((rank * 100 + step) * 16) + i);
    for (float& g : ps[i].grad.span<float>())
      g = static_cast<float>(rng.normal());
  }
}

std::vector<std::byte> param_bytes(const std::vector<Parameter>& ps) {
  std::vector<std::byte> out;
  for (const Parameter& p : ps)
    out.insert(out.end(), p.value.data(), p.value.data() + p.value.nbytes());
  return out;
}

// Greedy parameter-order buckets: one closes once the next tensor would push
// it past bucket_bytes (0 = one bucket).
std::vector<std::pair<std::size_t, std::size_t>> oracle_buckets(
    const std::vector<Tensor>& ts, std::size_t bucket_bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t first = 0, bytes = 0;
  for (std::size_t i = 0; i < ts.size(); ++i) {
    if (i > first && bucket_bytes > 0 &&
        bytes + ts[i].nbytes() > bucket_bytes) {
      out.emplace_back(first, i);
      first = i;
      bytes = 0;
    }
    bytes += ts[i].nbytes();
  }
  out.emplace_back(first, ts.size());
  return out;
}

void oracle_round(Comm& comm, const OracleCase& c, std::vector<Parameter>& ps,
                  const std::vector<Tensor>& round_start, ErrorFeedback* ef,
                  DynamicScaler& scaler) {
  std::vector<Tensor> eff;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    Tensor d = ps[i].value.clone();
    kernels::axpy(-1.0, round_start[i].span<float>(), d.span<float>());
    eff.push_back(std::move(d));
  }
  const double scale = scaler.scale();
  if (c.compression == GradientCompression::kFp16) {
    bool local = false;
    for (Tensor& t : eff) {
      t = cast_to_fp16_scaled(t, scale);
      local = local || tensor_overflowed(t);
    }
    std::vector<int> everyone;
    for (int r = 0; r < comm.size(); ++r) everyone.push_back(r);
    const double vote[1] = {local ? 1.0 : 0.0};
    const bool overflowed =
        comm.allreduce_sum_doubles(vote, everyone, 60000)[0] > 0.0;
    if (!scaler.update(overflowed) || overflowed) {
      for (std::size_t i = 0; i < ps.size(); ++i)
        std::memcpy(ps[i].value.data(), round_start[i].data(),
                    round_start[i].nbytes());
      return;
    }
  }
  CompressionOptions wirec;
  wirec.mode = c.wire;
  if (ef != nullptr) {
    for (std::size_t i = 0; i < eff.size(); ++i) {
      auto values = eff[i].span<float>();
      ef->compensate(i, values);
      std::vector<float> sent(values.size());
      if (wirec.active()) {
        std::vector<std::byte> blob(
            compressed_wire_bytes(values.size(), wirec));
        compress_f32(values, wirec, blob.data());
        decompress_f32(blob.data(), wirec, sent);
      } else {
        std::vector<std::int8_t> q(values.size());
        const float qscale = quantize_int8_into(values, q);
        dequantize_int8(q, qscale, sent);
      }
      ef->record(i, values, sent);
      std::memcpy(values.data(), sent.data(), sent.size() * sizeof(float));
    }
  }
  int tag = 0;
  for (const auto& [first, last] : oracle_buckets(eff, c.bucket_bytes)) {
    std::vector<const Tensor*> in;
    std::vector<Tensor*> out;
    for (std::size_t i = first; i < last; ++i) {
      in.push_back(&eff[i]);
      out.push_back(&eff[i]);
    }
    FusedTensor fused = fuse(in);
    const std::vector<TensorSlice> none;
    const std::vector<TensorSlice>& slices =
        c.layerwise ? fused.slices : none;
    if (wirec.active()) {
      // The wire codec lives inside the collective; the production one is
      // the only implementation of it.
      AllreduceOptions opts;
      opts.op = ReduceOp::kAdasum;
      opts.slices = slices;
      opts.compression = wirec;
      allreduce(comm, fused.flat, opts, tag);
    } else {
      adasum_rvh_allreduce_reference(comm, fused.flat, slices, tag);
    }
    unfuse(fused, out);
    tag += 65536;
  }
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const Tensor reduced =
        c.compression == GradientCompression::kFp16
            ? cast_from_fp16_scaled(eff[i], scale)
            : std::move(eff[i]);
    std::memcpy(ps[i].value.data(), round_start[i].data(),
                round_start[i].nbytes());
    kernels::add(reduced.span<float>(), ps[i].value.span<float>());
  }
}

// Every rank's parameters after kOracleRounds rounds of plain SGD.
std::vector<std::vector<std::byte>> oracle_train(const OracleCase& c) {
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(c.ranks));
  World world(c.ranks);
  world.run([&](Comm& comm) {
    std::vector<Parameter> ps = oracle_params();
    Sgd sgd(pointers(ps));
    std::unique_ptr<ErrorFeedback> ef;
    if (c.compression == GradientCompression::kInt8 ||
        c.wire != CompressionMode::kNone)
      ef = std::make_unique<ErrorFeedback>(std::vector<std::size_t>(
          std::begin(kOracleSizes), std::end(kOracleSizes)));
    DynamicScaler scaler;
    std::vector<Tensor> round_start;
    for (int step = 0; step < kOracleRounds * c.local_steps; ++step) {
      oracle_grads(ps, comm.rank(), step);
      if (step % c.local_steps == 0) {
        round_start.clear();
        for (const Parameter& p : ps) round_start.push_back(p.value.clone());
      }
      sgd.step(kOracleLr);
      if ((step + 1) % c.local_steps == 0)
        oracle_round(comm, c, ps, round_start, ef.get(), scaler);
    }
    out[static_cast<std::size_t>(comm.rank())] = param_bytes(ps);
  });
  return out;
}

std::vector<std::vector<std::byte>> optimizer_train(const OracleCase& c) {
  std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(c.ranks));
  World world(c.ranks);
  world.run([&](Comm& comm) {
    std::vector<Parameter> ps = oracle_params();
    DistributedOptions opts;
    opts.op = ReduceOp::kAdasum;
    opts.layerwise = c.layerwise;
    opts.local_steps = c.local_steps;
    opts.bucket_bytes = c.bucket_bytes;
    opts.background = c.background;
    opts.compression = c.compression;
    opts.wire_compression.mode = c.wire;
    opts.error_feedback = true;
    DistributedOptimizer dopt(comm, std::make_unique<Sgd>(pointers(ps)),
                              opts);
    for (int step = 0; step < kOracleRounds * c.local_steps; ++step) {
      oracle_grads(ps, comm.rank(), step);
      dopt.step(kOracleLr);
    }
    out[static_cast<std::size_t>(comm.rank())] = param_bytes(ps);
  });
  return out;
}

TEST(DistributedOptimizerTest, AdasumRoundBitIdenticalToFusedReferenceOracle) {
  const OracleCase cases[] = {
      {.name = "unbucketed p4"},
      {.name = "unbucketed p2", .ranks = 2},
      {.name = "3 buckets inline", .bucket_bytes = 1400},
      {.name = "3 buckets engine", .bucket_bytes = 1400, .background = true},
      {.name = "3 buckets engine p2",
       .ranks = 2,
       .bucket_bytes = 1400,
       .background = true},
      {.name = "not layerwise", .layerwise = false},
      {.name = "not layerwise, 3 buckets engine",
       .bucket_bytes = 1400,
       .background = true,
       .layerwise = false},
      {.name = "local_steps 2", .local_steps = 2},
      {.name = "local_steps 2, 3 buckets engine",
       .bucket_bytes = 1400,
       .background = true,
       .local_steps = 2},
      {.name = "wire int8 + EF", .wire = CompressionMode::kInt8},
      {.name = "wire int8 + EF, 3 buckets engine",
       .bucket_bytes = 1400,
       .background = true,
       .wire = CompressionMode::kInt8},
      {.name = "legacy int8 + EF",
       .compression = GradientCompression::kInt8},
      {.name = "fp16", .compression = GradientCompression::kFp16},
      {.name = "fp16, 3 buckets engine",
       .bucket_bytes = 1400,
       .background = true,
       .compression = GradientCompression::kFp16},
  };
  for (const OracleCase& c : cases) {
    SCOPED_TRACE(c.name);
    const auto expected = oracle_train(c);
    const auto got = optimizer_train(c);
    for (int r = 0; r < c.ranks; ++r) {
      const auto& e = expected[static_cast<std::size_t>(r)];
      const auto& g = got[static_cast<std::size_t>(r)];
      ASSERT_EQ(g.size(), e.size());
      EXPECT_EQ(std::memcmp(g.data(), e.data(), g.size()), 0) << "rank " << r;
    }
  }
}

}  // namespace
}  // namespace adasum::optim
