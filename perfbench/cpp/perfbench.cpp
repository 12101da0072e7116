// Data-parallel step benchmark: times one training step end to end on three
// workloads and attributes it down the stack (see perfbench/README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the same workload with spans recorded around the
// public library calls and reports the per-layer metrics, and writes a
// Chrome trace (one track per rank) under --out-dir.
//
// The library is driven only through its public calls; every layer number
// is measured from outside by timing those calls.
#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <malloc.h>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_hook.h"
#include "bench/bench_util.h"
#include "collectives/adasum_rvh_reference.h"
#include "collectives/allreduce.h"
#include "comm/world.h"
#include "data/synthetic.h"
#include "inventory.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "optim/distributed_optimizer.h"
#include "optim/optimizer.h"
#include "stats.h"
#include "tensor/compress/compress.h"
#include "tensor/fusion.h"
#include "tensor/kernels.h"
#include "trace.h"

extern char** environ;

namespace perfbench {
namespace {

using namespace adasum;

// ---- workloads -------------------------------------------------------------

enum class Kind { kTinyBert, kInventory };
enum class Inner { kAdam, kSgd, kMomentum };

struct Workload {
  const char* name;
  Kind kind;
  int ranks;
  const char* transport;
  ReduceOp op;
  CompressionMode wire;
  std::size_t bucket_bytes;
  bool background;
  Inner inner;
  double lr;
  // TinyBert training.
  nn::TinyBertConfig model{};
  std::size_t microbatch = 0;
  std::size_t train_examples = 0;
  std::size_t eval_examples = 0;
  // Inventory replay.
  const char* inventory = "";
  std::size_t width_divisor = 1;
  // List parameters last layer first, the order backprop finishes them, so
  // buckets fill (and launch) while the replay is still producing gradients.
  bool backprop_order = false;
  int bank_variants = 2;
  // Fixed step counts: warm-up (pools, fusion tables, caches), then an
  // exact-count phase, then the timed window.
  int warmup_steps = 20;
  int count_steps = 20;
};

constexpr std::size_t kSetupRepeats = 21;  // set-up is timed this many times
constexpr int kFinalLossStep = 100;   // window step of the loss snapshot
constexpr int kTraceBlock = 16;       // traced run alternates blocks of steps
constexpr double kTailQ = 0.9;
const std::size_t kMinWindowSteps = min_samples_for_tail(kTailQ) + 10;

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  {
    // Compute-bound end: nn forward/backward dominates the step.
    Workload t{"tinybert_adasum_shm", Kind::kTinyBert, 4, "shm",
               ReduceOp::kAdasum, CompressionMode::kNone, 0, false,
               Inner::kAdam, 1e-3};
    t.model.vocab = 64;
    t.model.max_len = 32;
    t.model.dim = 64;
    t.model.ffn_dim = 256;
    t.model.layers = 2;
    t.microbatch = 4;
    t.train_examples = 8192;
    t.eval_examples = 512;
    t.warmup_steps = 10;
    t.count_steps = 10;
    w.push_back(t);
  }
  {
    // Communication-bound end: fusion, per-layer dot triples, scaled_sum and
    // shm views do the work.
    Workload b{"bert_large_inv_adasum_shm", Kind::kInventory, 4, "shm",
               ReduceOp::kAdasum, CompressionMode::kNone, 0, false,
               Inner::kSgd, 0.1};
    b.inventory = "bert_large";
    b.width_divisor = 32;
    w.push_back(b);
  }
  {
    // The default configuration: sum path, int8 codec on every hop, mailbox
    // copies and bucket overlap on the engine.
    Workload r{"resnet50_inv_avg_int8_mailbox", Kind::kInventory, 2,
               "mailbox", ReduceOp::kAverage, CompressionMode::kInt8,
               std::size_t{4} << 20, true, Inner::kMomentum, 0.01};
    r.inventory = "resnet50";
    r.width_divisor = 2;
    r.backprop_order = true;
    r.bank_variants = 1;
    w.push_back(r);
  }
  return w;
}

const char* inner_name(Inner k) {
  switch (k) {
    case Inner::kAdam: return "adam";
    case Inner::kSgd: return "sgd";
    case Inner::kMomentum: return "momentum_sgd(0.9)";
  }
  return "?";
}

std::unique_ptr<optim::Optimizer> make_inner(
    Inner k, std::vector<nn::Parameter*> params) {
  switch (k) {
    case Inner::kAdam: return std::make_unique<optim::Adam>(std::move(params));
    case Inner::kSgd: return std::make_unique<optim::Sgd>(std::move(params));
    case Inner::kMomentum:
      return std::make_unique<optim::MomentumSgd>(std::move(params), 0.9);
  }
  return nullptr;
}

optim::DistributedOptions dist_options(const Workload& w) {
  optim::DistributedOptions o;
  o.op = w.op;
  o.algo = AllreduceAlgo::kAuto;
  o.layerwise = true;
  o.compression = optim::GradientCompression::kNone;
  o.wire_compression.mode = w.wire;
  o.bucket_bytes = w.bucket_bytes;
  o.background = w.background;
  o.autotune = false;
  return o;
}

// Greedy bucket layout over parameter order, the fusion-threshold rule the
// optimizer applies: a bucket closes before the tensor that would push it
// past bucket_bytes; 0 keeps one bucket.
std::vector<std::pair<std::size_t, std::size_t>> bucket_layout(
    const std::vector<std::size_t>& nbytes, std::size_t bucket_bytes) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  std::size_t first = 0, bytes = 0;
  for (std::size_t i = 0; i < nbytes.size(); ++i) {
    if (i > first && bucket_bytes > 0 && bytes + nbytes[i] > bucket_bytes) {
      out.emplace_back(first, i);
      first = i;
      bytes = 0;
    }
    bytes += nbytes[i];
  }
  out.emplace_back(first, nbytes.size());
  return out;
}

// ---- inputs, generated before anything is timed ----------------------------

struct Inputs {
  std::unique_ptr<data::MarkovTextDataset> train, eval;
  std::uint64_t model_seed = 0;
  std::vector<TensorShape> inv;  // in optimizer parameter order
  std::vector<std::size_t> offsets;
  std::size_t total = 0;
  std::vector<float> init;                // initial parameters, flat
  std::vector<std::vector<float>> bank;   // [rank * variants + v], flat grads
  const std::vector<float>& grads(const Workload& w, int rank,
                                  long step) const {
    return bank[static_cast<std::size_t>(rank * w.bank_variants) +
                static_cast<std::size_t>(step % w.bank_variants)];
  }
};

Inputs make_inputs(const Workload& w, std::uint64_t seed) {
  Inputs in;
  in.model_seed = splitmix64(seed ^ 0x6d6f64656cULL);
  if (w.kind == Kind::kTinyBert) {
    data::MarkovTextDataset::Options o;
    o.vocab = w.model.vocab;
    o.seq_len = w.model.max_len;
    o.num_examples = w.train_examples;
    o.seed = splitmix64(seed ^ 0x7461736bULL);
    o.example_seed = splitmix64(seed ^ 0x747261696eULL);
    in.train = std::make_unique<data::MarkovTextDataset>(o);
    o.num_examples = w.eval_examples;
    o.example_seed = splitmix64(seed ^ 0x6576616cULL);
    in.eval = std::make_unique<data::MarkovTextDataset>(o);
    return in;
  }
  in.inv = std::string(w.inventory) == "resnet50"
               ? resnet50_inventory(w.width_divisor)
               : bert_large_inventory(w.width_divisor);
  if (w.backprop_order) std::reverse(in.inv.begin(), in.inv.end());
  for (const TensorShape& t : in.inv) {
    in.offsets.push_back(in.total);
    in.total += t.count();
  }
  Rng rng(seed);
  in.init.resize(in.total);
  for (float& x : in.init) x = static_cast<float>(rng.uniform(-0.05, 0.05));
  in.bank.resize(static_cast<std::size_t>(w.ranks * w.bank_variants));
  for (std::size_t b = 0; b < in.bank.size(); ++b) {
    Rng g = rng.fork(1 + b);
    in.bank[b].resize(in.total);
    for (float& x : in.bank[b]) x = static_cast<float>(g.uniform(-1.0, 1.0));
  }
  return in;
}

// ---- replicas: one per rank thread ------------------------------------------

// Inner-optimizer decorator: records the inner step as a span (traced run)
// and can capture the gradients it consumes (the codec check).
class ObservedOptimizer final : public optim::Optimizer {
 public:
  ObservedOptimizer(std::unique_ptr<optim::Optimizer> inner, Recorder* rec,
                    const long* step,
                    std::vector<std::vector<float>>* capture)
      : Optimizer(inner->params()),
        inner_(std::move(inner)),
        rec_(rec),
        step_(step),
        capture_(capture) {}
  void step(double lr) override {
    if (capture_ != nullptr) {
      capture_->clear();
      for (const nn::Parameter* p : params_) {
        const auto g = p->grad.span<float>();
        capture_->emplace_back(g.begin(), g.end());
      }
    }
    Scoped sp(rec_, "optim.inner_step", *step_);
    inner_->step(lr);
  }
  std::size_t state_bytes() const override { return inner_->state_bytes(); }

 private:
  std::unique_ptr<optim::Optimizer> inner_;
  Recorder* rec_;
  const long* step_;
  std::vector<std::vector<float>>* capture_;
};

class Replica {
 public:
  virtual ~Replica() = default;
  // One data-parallel step: produce gradients, then DistributedOptimizer.
  virtual void step(long s) = 0;
  const std::vector<nn::Parameter*>& params() const { return params_; }
  optim::DistributedOptimizer& dopt() { return *dopt_; }

 protected:
  void make_optimizer(Comm& comm, const Workload& w, Recorder* rec,
                      std::vector<std::vector<float>>* capture) {
    std::unique_ptr<optim::Optimizer> inner = make_inner(w.inner, params_);
    if (rec != nullptr || capture != nullptr)
      inner = std::make_unique<ObservedOptimizer>(std::move(inner), rec,
                                                  &cur_, capture);
    dopt_ = std::make_unique<optim::DistributedOptimizer>(
        comm, std::move(inner), dist_options(w));
  }
  std::vector<nn::Parameter*> params_;
  std::unique_ptr<optim::DistributedOptimizer> dopt_;
  long cur_ = 0;
};

class TinyBertReplica final : public Replica {
 public:
  TinyBertReplica(Comm& comm, const Workload& w, const Inputs& in,
                  Recorder* rec)
      : w_(w), rec_(rec) {
    Rng rng(in.model_seed);
    model_ = nn::make_tiny_bert(w.model, rng);
    params_ = model_->parameters();
    make_optimizer(comm, w, rec, nullptr);
    loader_ = std::make_unique<data::DataLoader>(
        *in.train, w.microbatch, comm.rank(), comm.size(), in.model_seed);
  }
  void step(long s) override {
    cur_ = s;
    Scoped st(rec_, "step", s);
    const std::size_t bpe = loader_->batches_per_epoch();
    const auto us = static_cast<std::size_t>(s);
    data::Batch batch;
    {
      Scoped sp(rec_, "data.batch", s);
      batch = loader_->batch(us / bpe, us % bpe);
    }
    Tensor logits;
    {
      Scoped sp(rec_, "nn.forward", s);
      logits = model_->forward(batch.inputs, /*train=*/true);
    }
    nn::LossResult loss;
    {
      Scoped sp(rec_, "nn.loss", s);
      loss = nn::softmax_cross_entropy(logits, batch.labels);
    }
    {
      Scoped sp(rec_, "nn.backward", s);
      model_->backward(loss.grad);
    }
    Scoped sp(rec_, "optim.step", s);
    dopt_->step(w_.lr);
  }

 private:
  const Workload& w_;
  Recorder* rec_;
  std::unique_ptr<nn::Sequential> model_;
  std::unique_ptr<data::DataLoader> loader_;
};

class InventoryReplica final : public Replica {
 public:
  InventoryReplica(Comm& comm, const Workload& w, const Inputs& in,
                   Recorder* rec,
                   std::vector<std::vector<float>>* capture = nullptr)
      : w_(w), in_(in), rec_(rec), rank_(comm.rank()) {
    storage_.reserve(in.inv.size());
    for (std::size_t i = 0; i < in.inv.size(); ++i) {
      storage_.emplace_back(in.inv[i].name, in.inv[i].shape);
      std::memcpy(storage_.back().value.data(), in.init.data() + in.offsets[i],
                  storage_.back().value.nbytes());
    }
    for (nn::Parameter& p : storage_) params_.push_back(&p);
    make_optimizer(comm, w, rec, capture);
  }
  void step(long s) override {
    cur_ = s;
    Scoped st(rec_, "step", s);
    const std::vector<float>& g = in_.grads(w_, rank_, s);
    {
      // Gradients arrive tensor by tensor, in parameter order (last layer
      // first when backprop_order), announced as they land.
      Scoped fill(rec_, "replay.fill", s);
      for (std::size_t i = 0; i < storage_.size(); ++i) {
        Tensor& grad = storage_[i].grad;
        std::memcpy(grad.data(), g.data() + in_.offsets[i], grad.nbytes());
        if (w_.background) {
          Scoped sp(rec_, "optim.notify_grad_ready", s);
          dopt_->notify_grad_ready(i);
        }
      }
    }
    Scoped sp(rec_, "optim.step", s);
    dopt_->step(w_.lr);
  }

 private:
  const Workload& w_;
  const Inputs& in_;
  Recorder* rec_;
  int rank_;
  std::vector<nn::Parameter> storage_;
};

std::unique_ptr<Replica> make_replica(Comm& comm, const Workload& w,
                                      const Inputs& in, Recorder* rec) {
  if (w.kind == Kind::kTinyBert)
    return std::make_unique<TinyBertReplica>(comm, w, in, rec);
  return std::make_unique<InventoryReplica>(comm, w, in, rec);
}

// ---- traced replay of DistributedOptimizer::step's pieces ------------------

constexpr int kReplayTag = 70 * 65536;
constexpr int kRefTag = 72 * 65536;
constexpr int kPingTag = 74 * 65536;

// After a traced step, outside its span, replays the pieces of the step on
// the step's own parameter buffers: pack per bucket, allreduce of a copy
// with the same options, unpack into scratch, and the kernels and codec at
// the segment sizes the collective works on (per RVH level: half, quarter,
// ... of each fused buffer; Adasum splits them at layer boundaries).
class Replayer {
 public:
  Replayer(Comm& comm, const Workload& w,
           const std::vector<nn::Parameter*>& params, Recorder* rec)
      : comm_(comm), w_(w), params_(params), rec_(rec) {
    std::vector<std::size_t> nbytes;
    for (const nn::Parameter* p : params) nbytes.push_back(p->value.nbytes());
    buckets_ = bucket_layout(nbytes, w.bucket_bytes);
    fusion_.resize(buckets_.size());
    copies_.resize(buckets_.size());
    opts_.resize(buckets_.size());
    for (AllreduceOptions& o : opts_) {
      o.op = w.op;
      o.algo = AllreduceAlgo::kAuto;
      o.compression.mode = w.wire;
    }
    for (const nn::Parameter* p : params) {
      scratch_.emplace_back(p->value.shape());
      if (w.op == ReduceOp::kAdasum)
        round_start_.emplace_back(p->value.shape());
    }
    levels_ = std::countr_zero(static_cast<unsigned>(comm.size()));
    std::size_t max_elems = 0;
    for (const auto& [first, last] : buckets_) {
      std::size_t n = 0;
      for (std::size_t i = first; i < last; ++i) n += params[i]->value.size();
      max_elems = std::max(max_elems, n);
    }
    max_bucket_elems_ = max_elems;
    codec_.mode = w.wire;
    if (codec_.active())
      wire_.resize(compressed_wire_bytes(max_elems, codec_));
  }

  std::size_t buckets() const { return buckets_.size(); }
  // Bytes of the largest message of the step: the first RVH level's half of
  // the largest fused buffer, as encoded on the wire.
  std::size_t largest_message_bytes() const {
    return compressed_wire_bytes(max_bucket_elems_ / 2, codec_);
  }
  double wire_ratio() const {
    return wire_raw_ > 0 ? wire_raw_ / wire_bytes_ : 0.0;
  }

  void run(long s) {
    const bool adasum = w_.op == ReduceOp::kAdasum;
    double total = 0.0;
    for (const nn::Parameter* p : params_)
      total += static_cast<double>(p->value.nbytes());
    if (adasum) {
      // Figure 3's bookkeeping around the reduction: round-start snapshot,
      // effective gradient (fresh tensors, as the optimizer allocates them).
      {
        Scoped sp(rec_, "optim.snapshot", s, total);
        for (std::size_t i = 0; i < params_.size(); ++i)
          std::memcpy(round_start_[i].data(), params_[i]->value.data(),
                      round_start_[i].nbytes());
      }
      Scoped sp(rec_, "optim.delta", s, total);
      deltas_.clear();
      for (std::size_t i = 0; i < params_.size(); ++i) {
        deltas_.push_back(params_[i]->value.clone());
        kernels::axpy(-1.0, round_start_[i].span<float>(),
                      deltas_.back().span<float>());
      }
    }
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      const auto [first, last] = buckets_[b];
      views_.assign(params_.begin() + static_cast<std::ptrdiff_t>(first),
                    params_.begin() + static_cast<std::ptrdiff_t>(last));
      double bytes = 0.0;
      for (const nn::Parameter* p : views_)
        bytes += static_cast<double>(p->value.nbytes());
      pack_views_.clear();
      for (const nn::Parameter* p : views_) pack_views_.push_back(&p->value);
      FusedTensor* fused = nullptr;
      {
        Scoped sp(rec_, "tensor.fusion.pack", s, bytes);
        fused = &fusion_[b].pack(pack_views_);
      }
      Tensor& copy = copies_[b];
      if (copy.size() != fused->flat.size()) copy = fused->flat.clone();
      std::memcpy(copy.data(), fused->flat.data(), copy.nbytes());
      if (w_.op == ReduceOp::kAdasum &&
          opts_[b].slices.size() != fused->slices.size())
        opts_[b].slices = fused->slices;
      {
        Scoped sp(rec_, "collectives.allreduce", s, bytes);
        allreduce(comm_, copy, opts_[b], kReplayTag);
      }
      unpack_views_.clear();
      for (std::size_t i = first; i < last; ++i)
        unpack_views_.push_back(&scratch_[i]);
      {
        Scoped sp(rec_, "tensor.fusion.unpack", s, bytes);
        fusion_[b].unpack(unpack_views_);
      }
      replay_kernels(s, copy.span<float>(), fused->flat.span<float>(),
                     fused->slices);
    }
    if (adasum) {
      Scoped sp(rec_, "optim.apply", s, total);
      for (std::size_t i = 0; i < params_.size(); ++i) {
        std::memcpy(scratch_[i].data(), round_start_[i].data(),
                    scratch_[i].nbytes());
        kernels::add(std::span<const float>(deltas_[i].span<float>()),
                     scratch_[i].span<float>());
      }
      // Freed here, as the optimizer frees its own, so the heap the next
      // steps allocate from is the one they would have seen untraced.
      deltas_.clear();
    } else {
      Scoped sp(rec_, "optim.zero_grad", s, total);
      for (Tensor& t : scratch_) t.fill(0.0);
    }
  }

 private:
  void replay_kernels(long s, std::span<float> a, std::span<const float> b,
               const std::vector<TensorSlice>& slices) {
    const std::size_t n = a.size();
    if (w_.op == ReduceOp::kAdasum) {
      // Pieces of each level's segment [0, n >> level) cut at layer bounds.
      pieces_.clear();
      for (int l = 1; l <= levels_; ++l) {
        const std::size_t len = n >> l;
        for (const TensorSlice& sl : slices) {
          if (sl.offset >= len) break;
          pieces_.emplace_back(sl.offset, std::min(sl.offset + sl.count, len));
        }
      }
      double elems = 0.0;
      for (const auto& [lo, hi] : pieces_)
        elems += static_cast<double>(hi - lo);
      {
        Scoped sp(rec_, "tensor.simd.dot_triple", s, 8.0 * elems);
        for (const auto& [lo, hi] : pieces_) {
          const std::span<const float> ap = a.subspan(lo, hi - lo);
          sink_ += kernels::dot_triple<float>(b.subspan(lo, hi - lo), ap).ab;
        }
      }
      {
        Scoped sp(rec_, "tensor.simd.scaled_sum", s, 12.0 * elems);
        for (const auto& [lo, hi] : pieces_) {
          const std::span<float> out = a.subspan(lo, hi - lo);
          kernels::scaled_sum<float>(std::span<const float>(out), 0.5,
                                     b.subspan(lo, hi - lo), 0.5, out);
        }
      }
    } else {
      double elems = 0.0;
      for (int l = 1; l <= levels_; ++l) elems += static_cast<double>(n >> l);
      Scoped sp(rec_, "tensor.simd.add", s, 12.0 * elems);
      for (int l = 1; l <= levels_; ++l)
        kernels::add<float>(b.first(n >> l), a.first(n >> l));
    }
    if (!codec_.active()) return;
    for (int l = 1; l <= levels_; ++l) {
      const std::size_t len = n >> l;
      {
        Scoped sp(rec_, "tensor.compress.encode", s,
                  4.0 * static_cast<double>(len));
        compress_f32(b.first(len), codec_, wire_.data());
      }
      {
        Scoped sp(rec_, "tensor.compress.decode_add", s,
                  4.0 * static_cast<double>(len));
        decompress_add_f32(wire_.data(), codec_, len, 0, a.first(len));
      }
      wire_raw_ = 4.0 * static_cast<double>(len);
      wire_bytes_ = static_cast<double>(compressed_wire_bytes(len, codec_));
    }
  }

  Comm& comm_;
  const Workload& w_;
  const std::vector<nn::Parameter*>& params_;
  Recorder* rec_;
  std::vector<std::pair<std::size_t, std::size_t>> buckets_;
  std::vector<FusionBuffer> fusion_;
  std::vector<Tensor> copies_;
  std::vector<AllreduceOptions> opts_;
  std::vector<Tensor> scratch_, round_start_, deltas_;
  std::vector<nn::Parameter*> views_;
  std::vector<const Tensor*> pack_views_;
  std::vector<Tensor*> unpack_views_;
  std::vector<std::pair<std::size_t, std::size_t>> pieces_;
  CompressionOptions codec_;
  std::vector<std::byte> wire_;
  int levels_ = 0;
  std::size_t max_bucket_elems_ = 0;
  double wire_raw_ = 0.0, wire_bytes_ = 1.0;
  double sink_ = 0.0;
};

// Ping-pong between ranks 0 and 1 (the others wait at the barrier). Returns
// rank 0's one-way times in microseconds: RTT / 2 per iteration.
std::vector<double> ping_pong(Comm& comm, std::size_t bytes, int iters,
                              bool bulk) {
  std::vector<double> out;
  std::vector<std::byte> buf(bytes, std::byte{1}), back(bytes);
  const std::size_t chunk = comm.pipeline().chunk_bytes_for(sizeof(float));
  auto send = [&](int dst, std::span<const std::byte> d) {
    if (bulk) comm.send_bulk(dst, d, chunk, kPingTag);
    else comm.send_bytes(dst, d, kPingTag);
  };
  auto recv = [&](int src, std::span<std::byte> d) {
    if (bulk) comm.recv_bulk_into(src, d, chunk, kPingTag);
    else comm.recv_bytes_into(src, d, kPingTag);
  };
  comm.barrier();
  if (comm.rank() == 0) {
    out.reserve(static_cast<std::size_t>(iters));
    for (int i = 0; i < iters; ++i) {
      const std::int64_t t0 = now_ns();
      send(1, buf);
      recv(1, back);
      if (bulk) comm.bulk_fence();
      out.push_back(static_cast<double>(now_ns() - t0) * 1e-3 / 2.0);
    }
  } else if (comm.rank() == 1) {
    for (int i = 0; i < iters; ++i) {
      recv(0, back);
      send(0, back);
      if (bulk) comm.bulk_fence();
    }
  }
  comm.barrier();
  return out;
}

// ---- sessions --------------------------------------------------------------

std::uint64_t fnv1a(const std::vector<nn::Parameter*>& params) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const nn::Parameter* p : params) {
    const auto* b = reinterpret_cast<const unsigned char*>(p->value.data());
    for (std::size_t i = 0; i < p->value.nbytes(); ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  return h;
}

bool all_finite(const std::vector<nn::Parameter*>& params) {
  for (const nn::Parameter* p : params)
    if (kernels::has_nonfinite<float>(p->value.span<float>())) return false;
  return true;
}

// Set-up: World construction until the first (cold) step has completed on
// every rank.
double setup_session(const Workload& w, const Inputs& in) {
  const std::int64_t t0 = now_ns();
  World world(w.ranks);
  world.set_transport(w.transport);
  std::vector<std::int64_t> done(static_cast<std::size_t>(w.ranks), 0);
  world.run([&](Comm& comm) {
    std::unique_ptr<Replica> rep = make_replica(comm, w, in, nullptr);
    rep->step(0);
    done[static_cast<std::size_t>(comm.rank())] = now_ns();
  });
  return static_cast<double>(*std::max_element(done.begin(), done.end()) - t0) *
         1e-9;
}

struct Counts {
  double messages = 0, bytes = 0, pool_allocs = 0, heap_allocs = 0;
};

enum class StepKind : char { kPlain, kTraced, kAfterReplay };

struct MainResult {
  double setup_s = 0;
  std::vector<double> step_ms;         // window steps, rank 0
  std::vector<StepKind> step_kind;     // per window step
  double window_s = 0;
  long window_steps = 0;
  long attempted = 0;
  Counts per_step;
  long skipped = 0, degraded = 0;
  std::vector<std::uint64_t> hashes;
  std::vector<char> finite;
  std::vector<float> snapshot;         // rank 0 params at the loss step
  std::vector<std::unique_ptr<Recorder>> recorders;
  std::vector<double> p2p_small_us, p2p_large_us;
  std::size_t p2p_large_bytes = 0;
  std::size_t buckets = 1;
  double wire_ratio = 0;
  std::size_t total_threads = 0;
};

MainResult main_session(const Workload& w, const Inputs& in, double seconds,
                        bool traced) {
  MainResult r;
  const std::size_t p = static_cast<std::size_t>(w.ranks);
  r.hashes.assign(p, 0);
  r.finite.assign(p, 0);
  if (traced)
    for (std::size_t i = 0; i < p; ++i)
      r.recorders.push_back(std::make_unique<Recorder>(std::size_t{1} << 18));
  std::vector<std::int64_t> first_done(p, 0);
  std::vector<CommStats> c0(p), c1(p);
  std::vector<long> skipped(p, 0), degraded(p, 0);
  BufferPool::Stats pool0, pool1;
  std::uint64_t heap0 = 0, heap1 = 0;
  std::atomic<long> stop_at{LONG_MAX};
  const long s_window = w.warmup_steps + w.count_steps;
  const long s_loss = s_window + kFinalLossStep;
  r.step_ms.reserve(1 << 20);
  r.step_kind.reserve(1 << 20);

  const std::int64_t t_start = now_ns();
  World world(w.ranks);
  world.set_transport(w.transport);
  world.run([&](Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    Recorder* rec = traced ? r.recorders[rank].get() : nullptr;
    if (rec) rec->reserve_stack(64);
    std::unique_ptr<Replica> rep = make_replica(comm, w, in, rec);
    rep->step(0);
    first_done[rank] = now_ns();
    long s = 1;
    for (; s < w.warmup_steps; ++s) rep->step(s);
    // Exact counts over a fixed number of steps. The double barriers keep
    // every rank quiet while rank 0 reads the process-wide counters.
    comm.barrier();
    c0[rank] = comm.stats();
    if (rank == 0) {
      pool0 = world.buffer_pool().stats();
      heap0 = heap_allocations();
    }
    comm.barrier();
    for (; s < s_window; ++s) rep->step(s);
    comm.barrier();
    c1[rank] = comm.stats();
    if (rank == 0) {
      pool1 = world.buffer_pool().stats();
      heap1 = heap_allocations();
    }
    comm.barrier();

    std::unique_ptr<Replayer> replay;
    if (traced)
      replay = std::make_unique<Replayer>(comm, w, rep->params(), rec);
    if (rank == 0 && w.kind == Kind::kTinyBert) {
      std::size_t n = 0;
      for (const nn::Parameter* q : rep->params()) n += q->value.size();
      r.snapshot.resize(n);
    }
    const std::int64_t w0 = now_ns();
    bool after_replay = false;
    std::size_t plain = 0;
    // Rank 0 decides when the window ends and publishes the last step index;
    // every other rank is at most one step ahead of rank 0's last completed
    // step (the collective holds it), so all ranks stop after the same step.
    while (s < stop_at.load(std::memory_order_acquire)) {
      // Traced blocks trace and replay every other step; the replay
      // disturbs caches, so the step after it is timed but not used.
      const long pos = s - s_window;
      const bool traced_step =
          traced && (pos / kTraceBlock) % 2 == 1 && pos % 2 == 1;
      if (rec) rec->set_active(traced_step);
      const std::int64_t t0 = now_ns();
      rep->step(s);
      const std::int64_t t1 = now_ns();
      if (traced_step) replay->run(s);
      if (rec) rec->set_active(false);
      if (rank == 0) {
        r.step_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
        r.step_kind.push_back(traced_step ? StepKind::kTraced
                              : after_replay ? StepKind::kAfterReplay
                                             : StepKind::kPlain);
        plain += r.step_kind.back() == StepKind::kPlain ? 1 : 0;
        if (s == s_loss && !r.snapshot.empty()) {
          std::size_t off = 0;
          for (const nn::Parameter* q : rep->params()) {
            std::memcpy(r.snapshot.data() + off, q->value.data(),
                        q->value.nbytes());
            off += q->value.size();
          }
        }
      }
      after_replay = traced_step;
      ++s;
      if (rank == 0 && stop_at.load(std::memory_order_relaxed) == LONG_MAX &&
          static_cast<double>(now_ns() - w0) * 1e-9 >= seconds &&
          plain >= kMinWindowSteps && s > s_loss)
        stop_at.store(s + 1, std::memory_order_release);
    }
    if (rank == 0) {
      r.window_s = static_cast<double>(now_ns() - w0) * 1e-9;
      r.window_steps = s - s_window;
      r.attempted = s;
    }
    r.hashes[rank] = fnv1a(rep->params());
    r.finite[rank] = all_finite(rep->params()) ? 1 : 0;
    skipped[rank] = rep->dopt().skipped_rounds();
    degraded[rank] = rep->dopt().degraded_rounds();
    if (traced) {
      std::vector<double> small = ping_pong(comm, 24, 2000, false);
      std::vector<double> large =
          ping_pong(comm, replay->largest_message_bytes(), 100, true);
      if (rank == 0) {
        r.p2p_small_us = std::move(small);
        r.p2p_large_us = std::move(large);
        r.p2p_large_bytes = replay->largest_message_bytes();
        r.buckets = replay->buckets();
        r.wire_ratio = replay->wire_ratio();
      }
    }
  });
  const std::int64_t all_done =
      *std::max_element(first_done.begin(), first_done.end());
  r.setup_s = static_cast<double>(all_done - t_start) * 1e-9;
  const double n = static_cast<double>(w.count_steps);
  for (std::size_t i = 0; i < p; ++i) {
    r.per_step.messages +=
        static_cast<double>(c1[i].messages_sent - c0[i].messages_sent) / n;
    r.per_step.bytes +=
        static_cast<double>(c1[i].bytes_sent - c0[i].bytes_sent) / n;
  }
  r.per_step.pool_allocs =
      static_cast<double>(pool1.allocations - pool0.allocations) / n;
  r.per_step.heap_allocs = static_cast<double>(heap1 - heap0) / n;
  r.skipped = *std::max_element(skipped.begin(), skipped.end());
  r.degraded = *std::max_element(degraded.begin(), degraded.end());
  const int helpers = std::max(0, parallel::threads() - 1);
  r.total_threads =
      p + (w.background ? p : 0) + static_cast<std::size_t>(helpers);
  return r;
}

// ---- correctness checks ----------------------------------------------------

// The first Adasum step equals adasum_rvh_allreduce_reference on the same
// effective gradients, bit for bit.
bool check_adasum_reference(const Workload& w, const Inputs& in,
                            std::string* detail) {
  World world(w.ranks);
  world.set_transport(w.transport);
  std::vector<char> ok(static_cast<std::size_t>(w.ranks), 0);
  world.run([&](Comm& comm) {
    InventoryReplica rep(comm, w, in, nullptr);
    const auto& params = rep.params();
    const std::vector<float>& g = in.grads(w, comm.rank(), 0);
    // Effective gradient of step 0, computed on a shadow copy with the same
    // inner optimizer: (w0 - update) - w0, as the optimizer forms it.
    std::vector<nn::Parameter> shadow;
    shadow.reserve(params.size());
    std::vector<nn::Parameter*> shadow_ptrs;
    for (std::size_t i = 0; i < params.size(); ++i) {
      shadow.emplace_back(params[i]->name, params[i]->value.shape());
      std::memcpy(shadow.back().value.data(), params[i]->value.data(),
                  params[i]->value.nbytes());
      std::memcpy(shadow.back().grad.data(), g.data() + in.offsets[i],
                  shadow.back().grad.nbytes());
    }
    for (nn::Parameter& q : shadow) shadow_ptrs.push_back(&q);
    std::vector<Tensor> w0, eff;
    for (const nn::Parameter* q : params) w0.push_back(q->value.clone());
    make_inner(w.inner, shadow_ptrs)->step(w.lr);
    std::vector<const Tensor*> eff_views;
    std::vector<Tensor*> eff_ptrs;
    for (std::size_t i = 0; i < params.size(); ++i) {
      eff.push_back(shadow[i].value.clone());
      kernels::axpy(-1.0, w0[i].span<float>(), eff[i].span<float>());
    }
    for (Tensor& t : eff) {
      eff_views.push_back(&t);
      eff_ptrs.push_back(&t);
    }
    FusedTensor fused = fuse(eff_views);
    rep.step(0);
    adasum_rvh_allreduce_reference(comm, fused.flat, fused.slices, kRefTag);
    unfuse(fused, eff_ptrs);
    bool same = true;
    for (std::size_t i = 0; i < params.size(); ++i) {
      Tensor expect = w0[i].clone();
      kernels::add(std::span<const float>(eff[i].span<float>()),
                   expect.span<float>());
      same = same && std::memcmp(expect.data(), params[i]->value.data(),
                                 expect.nbytes()) == 0;
    }
    ok[static_cast<std::size_t>(comm.rank())] = same ? 1 : 0;
  });
  const bool all =
      std::all_of(ok.begin(), ok.end(), [](char c) { return c != 0; });
  *detail = all ? "first step bit-identical to adasum_rvh_allreduce_reference"
                : "first step differs from adasum_rvh_allreduce_reference";
  return all;
}

// The reduced gradients of the first int8 step are within the codec's error
// bound of the fp32 average: per bucket, stochastic int8 rounding moves an
// element by less than one quantum (block max / 127) on each of the two
// encoded hops, so |err| <= 2 * sum_r max|g_r| / 127 / p.
bool check_codec_bound(const Workload& w, const Inputs& in,
                       std::string* detail) {
  World world(w.ranks);
  world.set_transport(w.transport);
  std::vector<std::vector<float>> captured;
  world.run([&](Comm& comm) {
    std::vector<std::vector<float>> mine;
    InventoryReplica rep(comm, w, in, nullptr, &mine);
    rep.step(0);
    if (comm.rank() == 0) captured = std::move(mine);
  });
  std::vector<std::size_t> nbytes;
  for (const TensorShape& t : in.inv)
    nbytes.push_back(t.count() * sizeof(float));
  double worst = 0.0, max_err = 0.0;
  const double p = static_cast<double>(w.ranks);
  for (const auto& [first, last] : bucket_layout(nbytes, w.bucket_bytes)) {
    const std::size_t lo = in.offsets[first];
    const std::size_t hi =
        last < in.offsets.size() ? in.offsets[last] : in.total;
    double bound = 0.0;
    for (int r = 0; r < w.ranks; ++r) {
      const std::vector<float>& g = in.grads(w, r, 0);
      double m = 0.0;
      for (std::size_t j = lo; j < hi; ++j)
        m = std::max(m, std::fabs(static_cast<double>(g[j])));
      bound += m;
    }
    bound = 2.0 * bound / 127.0 / p + 1e-6;
    for (std::size_t i = first; i < last; ++i) {
      for (std::size_t j = 0; j < captured[i].size(); ++j) {
        double exact = 0.0;
        for (int r = 0; r < w.ranks; ++r)
          exact += static_cast<double>(in.grads(w, r, 0)[in.offsets[i] + j]);
        exact /= p;
        const double err =
            std::fabs(static_cast<double>(captured[i][j]) - exact);
        max_err = std::max(max_err, err);
        worst = std::max(worst, err / bound);
      }
    }
  }
  std::ostringstream os;
  os << "int8 step within codec bound: max error " << max_err
     << ", worst error/bound " << worst;
  *detail = os.str();
  return worst <= 1.0 && max_err > 0.0;
}

double eval_loss(const Workload& w, const Inputs& in,
                 const std::vector<float>* values) {
  Rng rng(in.model_seed);
  std::unique_ptr<nn::Sequential> model = nn::make_tiny_bert(w.model, rng);
  if (values != nullptr) {
    std::size_t off = 0;
    for (nn::Parameter* q : model->parameters()) {
      std::memcpy(q->value.data(), values->data() + off, q->value.nbytes());
      off += q->value.size();
    }
  }
  double sum = 0.0;
  int batches = 0;
  for (std::size_t i = 0; i < in.eval->size(); i += 64) {
    std::vector<std::size_t> idx(
        std::min<std::size_t>(64, in.eval->size() - i));
    std::iota(idx.begin(), idx.end(), i);
    const data::Batch b = data::make_batch(*in.eval, idx);
    const Tensor logits = model->forward(b.inputs, /*train=*/false);
    sum += nn::softmax_cross_entropy(logits, b.labels).loss;
    ++batches;
  }
  return sum / batches;
}

// ---- reporting -------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    s += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
         json_num(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return s + "}";
}

struct Provenance {
  std::string git_rev = "unknown", source_digest = "unknown";
};

std::string config_json(const Workload& w, const Inputs& in, std::uint64_t seed,
                        double seconds, bool traced, const Provenance& prov,
                        std::size_t threads) {
  std::ostringstream os;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  os << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
     << ", \"seconds\": " << seconds
     << ", \"trace\": " << (traced ? 1 : 0)
     << ", \"host\": " << bench::host_json()
     << ", \"nproc\": " << nproc << ", \"threads_total\": " << threads
     << ", \"compiler\": \"" << __VERSION__ << "\", \"build_type\": \""
     << PERFBENCH_BUILD_TYPE << "\", \"git_rev\": \"" << prov.git_rev
     << "\", \"source_digest\": \"" << prov.source_digest << "\""
     << ", \"ranks\": " << w.ranks << ", \"transport\": \"" << w.transport
     << "\", \"op\": \"" << reduce_op_name(w.op) << "\", \"algo\": \"auto\""
     << ", \"layerwise\": true, \"wire\": \"" << compression_mode_name(w.wire)
     << "\", \"bucket_bytes\": " << w.bucket_bytes
     << ", \"background\": " << (w.background ? "true" : "false")
     << ", \"inner_optimizer\": \"" << inner_name(w.inner)
     << "\", \"lr\": " << w.lr
     << ", \"warmup_steps\": " << w.warmup_steps
     << ", \"count_steps\": " << w.count_steps
     << ", \"setup_repeats\": " << kSetupRepeats
     << ", \"min_window_steps\": " << kMinWindowSteps;
  if (w.kind == Kind::kTinyBert) {
    Rng rng(in.model_seed);
    const std::unique_ptr<nn::Sequential> model =
        nn::make_tiny_bert(w.model, rng);
    std::size_t nparams = 0;
    for (const nn::Parameter* q : model->parameters())
      nparams += q->value.size();
    os << ", \"model\": {\"vocab\": " << w.model.vocab << ", \"seq_len\": "
       << w.model.max_len << ", \"dim\": " << w.model.dim << ", \"ffn_dim\": "
       << w.model.ffn_dim << ", \"layers\": " << w.model.layers
       << ", \"params\": " << nparams << "}, \"microbatch\": " << w.microbatch
       << ", \"global_batch\": "
       << w.microbatch * static_cast<std::size_t>(w.ranks)
       << ", \"train_examples\": " << w.train_examples
       << ", \"eval_examples\": " << w.eval_examples
       << ", \"final_loss_step\": "
       << w.warmup_steps + w.count_steps + kFinalLossStep;
  } else {
    os << ", \"inventory\": \"" << w.inventory << "\", \"width_divisor\": "
       << w.width_divisor << ", \"tensors\": " << in.inv.size()
       << ", \"params\": " << in.total
       << ", \"payload_bytes\": " << in.total * sizeof(float)
       << ", \"param_order\": \""
       << (w.backprop_order ? "last_layer_first" : "forward")
       << "\", \"bank_variants\": " << w.bank_variants;
  }
  os << "}";
  return os.str();
}

// Per-step aggregates of rank 0's traced spans.
struct StepAgg {
  std::map<std::string, double> ms;     // summed duration per span name
  std::map<std::string, double> bytes;  // summed bytes per span name
  std::map<std::string, int> calls;
  double step_ms = 0, step_self_ms = 0;
};

std::map<long, StepAgg> aggregate(const Recorder& rec) {
  std::map<long, StepAgg> out;
  const std::vector<Span>& spans = rec.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    StepAgg& a = out[s.step];
    if (std::string(s.name) == "step") {
      a.step_ms = s.dur_ms();
      a.step_self_ms =
          static_cast<double>(self_ns(spans, static_cast<int>(i))) * 1e-6;
      continue;
    }
    a.ms[s.name] += s.dur_ms();
    a.bytes[s.name] += s.bytes;
    a.calls[s.name] += 1;
  }
  return out;
}

// Max over the step's replayed allreduce calls of (latest - earliest) rank
// exit time, per step.
std::map<long, double> rank_skew(
    const std::vector<std::unique_ptr<Recorder>>& recs) {
  // step -> call -> per-rank end times
  std::map<long, std::vector<std::vector<std::int64_t>>> ends;
  for (const auto& rec : recs) {
    std::map<long, std::size_t> call;
    for (const Span& s : rec->spans()) {
      if (std::string(s.name) != "collectives.allreduce") continue;
      auto& v = ends[s.step];
      const std::size_t c = call[s.step]++;
      if (v.size() <= c) v.resize(c + 1);
      v[c].push_back(s.end_ns);
    }
  }
  std::map<long, double> out;
  for (const auto& [step, calls] : ends) {
    double worst = 0.0;
    for (const auto& e : calls) {
      if (e.size() != recs.size()) continue;
      const auto [mn, mx] = std::minmax_element(e.begin(), e.end());
      worst = std::max(worst, static_cast<double>(*mx - *mn) * 1e-6);
    }
    out[step] = worst;
  }
  return out;
}

std::vector<Metric> per_layer_metrics(const Workload& w, const MainResult& r,
                                      double final_loss) {
  std::map<long, StepAgg> agg = aggregate(*r.recorders[0]);
  std::map<long, double> skew = rank_skew(r.recorders);
  auto med = [&](const std::function<double(const StepAgg&)>& f) {
    std::vector<double> v;
    for (const auto& [step, a] : agg)
      if (a.step_ms > 0) v.push_back(f(a));
    return median(std::move(v));
  };
  auto get = [](const std::map<std::string, double>& m, const char* k) {
    auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  auto ms = [&](const char* k) {
    return med([&](const StepAgg& a) { return get(a.ms, k); });
  };
  auto gbps = [&](const char* k) {
    return med([&](const StepAgg& a) {
      const double t = get(a.ms, k);
      return t > 0 ? get(a.bytes, k) / (t * 1e-3) * 1e-9 : 0.0;
    });
  };
  auto optim_ms = [&](const StepAgg& a) {
    return get(a.ms, "optim.step") + get(a.ms, "optim.notify_grad_ready");
  };
  std::vector<double> untraced, tracedv;
  for (std::size_t i = 0; i < r.step_ms.size(); ++i)
    if (r.step_kind[i] == StepKind::kTraced) tracedv.push_back(r.step_ms[i]);
    else if (r.step_kind[i] == StepKind::kPlain)
      untraced.push_back(r.step_ms[i]);
  std::vector<double> skews;
  for (const auto& [step, v] : skew) skews.push_back(v);

  // Share of the optimizer's time explained by the replayed pieces.
  auto covered = [&](const StepAgg& a) {
    double c = 0.0;
    for (const char* k :
         {"optim.inner_step", "optim.snapshot", "optim.delta",
          "tensor.fusion.pack", "collectives.allreduce",
          "tensor.fusion.unpack", "optim.apply", "optim.zero_grad"})
      c += get(a.ms, k);
    const double t = optim_ms(a);
    return t > 0 ? 100.0 * c / t : 0.0;
  };
  // Share of the bucket allreduce time not exposed in optim.step.
  auto overlap = [&](const StepAgg& a) {
    const double ar = get(a.ms, "collectives.allreduce");
    const double exposed = get(a.ms, "optim.step") -
                           get(a.ms, "optim.inner_step") -
                           get(a.ms, "tensor.fusion.unpack");
    return ar > 0 ? 100.0 * std::clamp((ar - exposed) / ar, 0.0, 1.0) : 0.0;
  };
  const double p2p_s = median(r.p2p_large_us) * 1e-6;

  std::vector<Metric> m;
  auto add = [&m](const char* name, const char* unit, double value) {
    m.push_back({name, unit, value});
  };
  add("data.batch_ms", "ms", ms("data.batch"));
  add("nn.forward_ms", "ms", ms("nn.forward"));
  add("nn.loss_ms", "ms", ms("nn.loss"));
  add("nn.backward_ms", "ms", ms("nn.backward"));
  add("nn.final_loss", "loss", final_loss);
  add("replay.fill_ms", "ms", ms("replay.fill"));
  add("optim.step_ms", "ms", med(optim_ms));
  add("optim.inner_step_ms", "ms", ms("optim.inner_step"));
  add("optim.covered_pct", "%", med(covered));
  add("optim.heap_allocs_per_step", "count", r.per_step.heap_allocs);
  add("optim.skipped_rounds", "count", static_cast<double>(r.skipped));
  add("optim.degraded_rounds", "count", static_cast<double>(r.degraded));
  add("tensor.fusion.pack_ms", "ms", ms("tensor.fusion.pack"));
  add("tensor.fusion.unpack_ms", "ms", ms("tensor.fusion.unpack"));
  add("tensor.fusion.pack_gbps", "GB/s", gbps("tensor.fusion.pack"));
  add("tensor.simd.dot_triple_gbps", "GB/s", gbps("tensor.simd.dot_triple"));
  add("tensor.simd.scaled_sum_gbps", "GB/s", gbps("tensor.simd.scaled_sum"));
  add("tensor.simd.add_gbps", "GB/s", gbps("tensor.simd.add"));
  add("tensor.compress.encode_gbps", "GB/s", gbps("tensor.compress.encode"));
  add("tensor.compress.decode_add_gbps", "GB/s",
      gbps("tensor.compress.decode_add"));
  add("tensor.compress.wire_ratio", "x", r.wire_ratio);
  add("collectives.allreduce_ms", "ms", ms("collectives.allreduce"));
  add("collectives.algbw_gbps", "GB/s", gbps("collectives.allreduce"));
  add("collectives.calls_per_step", "count", static_cast<double>(r.buckets));
  add("collectives.rank_skew_ms", "ms", median(skews));
  add("collectives.overlap_pct", "%", w.background ? med(overlap) : 0.0);
  add("comm.p2p_small_us", "us", median(r.p2p_small_us));
  add("comm.p2p_gbps", "GB/s",
      static_cast<double>(r.p2p_large_bytes) / p2p_s * 1e-9);
  add("comm.bytes_per_step", "B", r.per_step.bytes);
  add("comm.messages_per_step", "count", r.per_step.messages);
  add("comm.pool_allocs_per_step", "count", r.per_step.pool_allocs);
  add("trace.overhead_pct", "%",
      100.0 * (median(tracedv) / median(untraced) - 1.0));
  add("trace.covered_pct", "%", med([](const StepAgg& a) {
        return 100.0 * (a.step_ms - a.step_self_ms) / a.step_ms;
      }));
  add("trace.steps", "count", static_cast<double>(tracedv.size()));
  return m;
}

int usage() {
  std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--out-dir <dir>] [--git-rev <rev>] "
               "[--source-digest <digest>]\n  workloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  return 2;
}

int run(int argc, char** argv) {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "ADASUM_", 7) == 0) {
      std::cerr << "perfbench: refusing to run with " << *e
                << " set; configuration goes through the World and "
                   "DistributedOptions API only\n";
      return 2;
    }
  }
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0 || !args.count("workload") || !args.count("seed") ||
      !args.count("seconds") || !args.count("trace"))
    return usage();
  const std::vector<Workload> all = workloads();
  const Workload* wp = nullptr;
  for (const Workload& w : all)
    if (args["workload"] == w.name) wp = &w;
  if (wp == nullptr) return usage();
  const Workload& w = *wp;
  const std::uint64_t seed = std::stoull(args["seed"]);
  const double seconds = std::stod(args["seconds"]);
  const bool traced = args["trace"] == "1";
  const std::string out_dir =
      args.count("out-dir") ? args["out-dir"] : ".bench_out";
  Provenance prov;
  if (args.count("git-rev")) prov.git_rev = args["git-rev"];
  if (args.count("source-digest")) prov.source_digest = args["source-digest"];

  // Inventory fidelity: the unscaled tables match the published totals.
  const bool inventories_ok =
      resnet50_inventory(1).size() == 161 &&
      total_count(resnet50_inventory(1)) == 25557032 &&
      bert_large_inventory(1).size() == 391 &&
      total_count(bert_large_inventory(1)) == 335141888;

  const Inputs in = make_inputs(w, seed);
  // The main session runs first, on a heap holding only the inputs, so the
  // peak resident set is the training loop's and not a leftover of the
  // set-up or check sessions; free memory is returned to the system between
  // sessions so each one starts from the same heap state.
  malloc_trim(0);
  MainResult r = main_session(w, in, seconds, traced);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;

  std::vector<double> setups{r.setup_s};
  while (setups.size() < kSetupRepeats) {
    malloc_trim(0);
    setups.push_back(setup_session(w, in));
  }

  std::vector<std::pair<std::string, bool>> checks;
  checks.emplace_back("inventory tables match published counts",
                      inventories_ok);
  if (w.kind == Kind::kInventory && w.op == ReduceOp::kAdasum) {
    std::string d;
    const bool ok = check_adasum_reference(w, in, &d);
    checks.emplace_back(d, ok);
  }
  if (w.kind == Kind::kInventory && w.wire == CompressionMode::kInt8) {
    std::string d;
    const bool ok = check_codec_bound(w, in, &d);
    checks.emplace_back(d, ok);
  }

  const bool replicas_equal =
      std::all_of(r.hashes.begin(), r.hashes.end(),
                  [&](std::uint64_t h) { return h == r.hashes[0]; });
  const bool finite = std::all_of(r.finite.begin(), r.finite.end(),
                                  [](char c) { return c != 0; });
  checks.emplace_back("parameters bit-identical on all ranks after the window",
                      replicas_equal);
  checks.emplace_back("parameters finite after the window", finite);
  checks.emplace_back("no skipped or degraded rounds",
                      r.skipped == 0 && r.degraded == 0);
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  checks.emplace_back("total threads <= nproc",
                      static_cast<long>(r.total_threads) <= nproc);
  double final_loss = 0.0;
  if (w.kind == Kind::kTinyBert) {
    const double initial = eval_loss(w, in, nullptr);
    final_loss = eval_loss(w, in, &r.snapshot);
    std::ostringstream os;
    os << "final_loss " << final_loss << " finite and below initial "
       << initial;
    checks.emplace_back(os.str(),
                        std::isfinite(final_loss) && final_loss < initial);
  }

  std::vector<Metric> metrics;
  // The tail comes from untraced steps only: all of the window in the
  // untraced run, the untraced blocks in the traced one.
  std::vector<double> untraced;
  for (std::size_t i = 0; i < r.step_ms.size(); ++i)
    if (r.step_kind[i] == StepKind::kPlain) untraced.push_back(r.step_ms[i]);
  checks.emplace_back("p90 has >= 10 samples beyond it",
                      tail_supported(untraced.size(), kTailQ));
  if (!traced) {
    metrics.push_back({"step_ms_p50", "ms", median(untraced)});
    metrics.push_back({"setup_s", "s", median(setups)});
    metrics.push_back({"peak_rss_mb", "MiB", peak_rss_mb});
  } else {
    std::size_t dropped = 0;
    for (const auto& rec : r.recorders) dropped += rec->dropped();
    checks.emplace_back("trace holds every span (" + std::to_string(dropped) +
                            " dropped)",
                        dropped == 0);
    metrics = per_layer_metrics(w, r, final_loss);
    for (const Metric& m : metrics)
      if (m.name == "trace.covered_pct")
        checks.emplace_back("step spans cover >= 90% of step wall time",
                            m.value >= 90.0);
    // The tail and the throughput are set by host stalls more than by the
    // program, so they are per-layer metrics here, over the untraced steps.
    const double untraced_s =
        std::accumulate(untraced.begin(), untraced.end(), 0.0) * 1e-3;
    metrics.insert(metrics.begin(),
                   {Metric{"step_ms_p90", "ms", percentile(untraced, kTailQ)},
                    Metric{"steps_per_s", "1/s",
                           static_cast<double>(untraced.size()) / untraced_s}});
  }

  long failed = r.skipped + r.degraded;
  bool correct = true;
  for (const auto& [what, ok] : checks) {
    std::cout << "check: " << (ok ? "ok    " : "FAILED") << " " << what << "\n";
    if (!ok) {
      correct = false;
      ++failed;
    }
  }
  failed = std::min(failed, r.attempted);

  const std::string config =
      config_json(w, in, seed, seconds, traced, prov, r.total_threads);
  std::cout << "config: " << config << "\n";
  std::cout << "window: " << r.window_steps << " steps in "
            << json_num(r.window_s) << " s; setup samples (s):";
  for (double v : setups) std::cout << " " << json_num(v);
  std::cout << "\n";
  if (w.kind == Kind::kTinyBert)
    std::cout << "final_loss: " << json_num(final_loss) << " loss\n";
  std::cout << "counts per step: messages " << r.per_step.messages << ", bytes "
            << r.per_step.bytes << ", pool allocs " << r.per_step.pool_allocs
            << ", heap allocs " << r.per_step.heap_allocs << "\n";
  for (const Metric& m : metrics)
    std::cout << "metric: " << m.name << " = " << json_num(m.value) << " "
              << m.unit << "\n";

  std::filesystem::create_directories(out_dir);
  const std::string stem =
      out_dir + "/" + w.name + "_seed" + std::to_string(seed);
  if (traced) {
    std::vector<const Recorder*> recs;
    for (const auto& rec : r.recorders) recs.push_back(rec.get());
    const std::string path = stem + ".trace.json";
    if (write_chrome_trace(path, recs, config))
      std::cout << "trace: " << path << "\n";
  }
  const std::string result =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(r.attempted) +
      ", \"failed\": " + std::to_string(failed) +
      ", \"metrics\": " + metrics_json(metrics) + "}";
  const std::string result_path =
      stem + (traced ? "_trace" : "") + ".result.json";
  if (std::FILE* f = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(f, "{\"config\": %s,\n\"result\": %s}\n", config.c_str(),
                 result.c_str());
    std::fclose(f);
  }
  std::cout << result << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
