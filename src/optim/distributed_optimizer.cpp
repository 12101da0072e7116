#include "optim/distributed_optimizer.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>
#include <span>

#include "base/check.h"
#include "comm/buffer_pool.h"
#include "tensor/kernels.h"

namespace adasum::optim {

DistributedOptimizer::DistributedOptimizer(Comm& comm,
                                           std::unique_ptr<Optimizer> inner,
                                           DistributedOptions options)
    : comm_(comm), inner_(std::move(inner)), options_(options) {
  ADASUM_CHECK_GE(options_.local_steps, 1);
  if (autotune_enabled_from_env()) options_.autotune = true;
}

void DistributedOptimizer::resolve_autotune() {
  tuned_resolved_ = true;
  const auto& params = inner_->params();
  AutotuneRequest req;
  for (const nn::Parameter* p : params)
    req.payload_bytes += static_cast<double>(p->value.nbytes());
  req.num_layers =
      options_.layerwise ? std::max<int>(1, static_cast<int>(params.size()))
                         : 1;
  req.adasum = options_.op == ReduceOp::kAdasum;
  // The optimizer tunes the ALGORITHM for the world as configured: the
  // pipeline chunk is World-level state it does not own and the fusion
  // bucket is caller policy, so both enter as the single current value and
  // the pick's chunk/bucket merely echo them (see TunedConfig docs).
  const std::size_t chunk[1] = {comm_.pipeline().chunk_bytes_for(1)};
  const std::size_t bucket[1] = {options_.bucket_bytes};
  req.chunk_grid = chunk;
  req.bucket_grid = bucket;
  const Topology topo = Topology::from_env().value_or(Topology::cluster(
      comm_.size(), 1, links::infiniband100(), links::infiniband100()));
  tuned_ = autotune_allreduce(topo, req);
  if (options_.algo != AllreduceAlgo::kAuto) return;  // explicit choice wins
  switch (tuned_.algo) {
    case TunedAlgo::kRing:
      options_.algo = AllreduceAlgo::kRing;
      options_.ranks_per_node = 1;
      break;
    case TunedAlgo::kRvh:
      if (std::has_single_bit(static_cast<unsigned>(comm_.size()))) {
        options_.algo = AllreduceAlgo::kRvh;
        options_.ranks_per_node = 1;
      } else {
        // Flat RVH on a non-power-of-two world runs as the hierarchical
        // path with single-rank nodes: identical schedule plus the fold,
        // which plain kRvh cannot express.
        options_.algo = AllreduceAlgo::kHierarchical;
        options_.ranks_per_node = 1;
      }
      break;
    case TunedAlgo::kHierarchical:
      options_.algo = AllreduceAlgo::kHierarchical;
      options_.ranks_per_node = std::min(tuned_.ranks_per_node, comm_.size());
      break;
  }
}

bool DistributedOptimizer::step(double lr) {
  const auto& params = inner_->params();
  ADASUM_CHECK(!params.empty());
  if (options_.autotune && !tuned_resolved_) resolve_autotune();

  if (options_.op == ReduceOp::kSum || options_.op == ReduceOp::kAverage) {
    // Synchronous SGD: gradients accumulate across local steps; on the
    // communication step they are reduced and the optimizer runs once.
    if (++micro_step_ < options_.local_steps) return false;
    micro_step_ = 0;
    if (communicate_gradients() == ReduceOutcome::kSkipped) {
      // Recovery exhausted: no agreed-on gradient exists, so applying the
      // local one would diverge the replicas. Documented skip-step.
      ++skipped_rounds_;
    } else {
      inner_->step(lr);
    }
    inner_->zero_grad();
    ++rounds_;
    return true;
  }

  // Adasum mode (Figure 3): optimizer first, allreduce the effective
  // gradient after.
  if (micro_step_ == 0) {
    // Snapshot the round start. Warm rounds refresh the existing snapshot
    // tensors in place (same values as a fresh clone, no allocation).
    bool reuse = round_start_.size() == params.size();
    for (std::size_t i = 0; reuse && i < params.size(); ++i)
      reuse = round_start_[i].nbytes() == params[i]->value.nbytes();
    if (reuse) {
      for (std::size_t i = 0; i < params.size(); ++i)
        std::memcpy(round_start_[i].data(), params[i]->value.data(),
                    params[i]->value.nbytes());
    } else {
      round_start_.clear();
      round_start_.reserve(params.size());
      for (const nn::Parameter* p : params)
        round_start_.push_back(p->value.clone());
    }
  }
  inner_->step(lr);
  inner_->zero_grad();
  if (++micro_step_ < options_.local_steps) return false;
  micro_step_ = 0;
  communicate_effective_gradient();
  ++rounds_;
  return true;
}

CommEngine& DistributedOptimizer::engine() {
  if (!engine_)
    engine_ = std::make_unique<CommEngine>(
        comm_, std::max<std::size_t>(buckets_.size(), 64));
  return *engine_;
}

const std::vector<Tensor*>& DistributedOptimizer::param_views(
    std::vector<Tensor*>& cache, Tensor nn::Parameter::*member) {
  const auto& params = inner_->params();
  if (cache.size() != params.size()) {
    cache.clear();
    cache.reserve(params.size());
    for (nn::Parameter* p : params) cache.push_back(&(p->*member));
  }
  return cache;
}

void DistributedOptimizer::ensure_buckets(
    const std::vector<Tensor*>& tensors) {
  bool same = bucket_signature_.size() == tensors.size();
  for (std::size_t i = 0; same && i < tensors.size(); ++i)
    same = bucket_signature_[i] == tensors[i]->nbytes();
  if (same && !buckets_.empty()) return;
  // A layout change mid-round would orphan in-flight buckets.
  ADASUM_CHECK_EQ(next_unlaunched_, std::size_t{0});
  ADASUM_CHECK_EQ(round_index_, -1);
  bucket_signature_.assign(tensors.size(), 0);
  for (std::size_t i = 0; i < tensors.size(); ++i)
    bucket_signature_[i] = tensors[i]->nbytes();
  buckets_.clear();
  // Greedy packing in parameter order (the Horovod fusion-threshold rule):
  // a bucket closes once adding the next tensor would push it over
  // bucket_bytes; an oversized tensor forms its own bucket. bucket_bytes==0
  // keeps one bucket for the whole model — the seed layout.
  std::size_t first = 0, bytes = 0;
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const std::size_t nb = tensors[i]->nbytes();
    if (i > first && options_.bucket_bytes > 0 &&
        bytes + nb > options_.bucket_bytes) {
      Bucket bk;
      bk.first = first;
      bk.last = i;
      buckets_.push_back(std::move(bk));
      first = i;
      bytes = 0;
    }
    bytes += nb;
  }
  Bucket tail;
  tail.first = first;
  tail.last = tensors.size();
  buckets_.push_back(std::move(tail));
  for (Bucket& bk : buckets_) {
    bk.opts.algo = options_.algo;
    bk.opts.ranks_per_node = options_.ranks_per_node;
    bk.opts.compression = options_.wire_compression;
    bk.opts.slices.clear();
    bk.launched = false;
  }
  grad_ready_.assign(tensors.size(), 0);
  bucket_views_.reserve(tensors.size());
  unpack_views_.reserve(tensors.size());
  // A round queues every bucket before joining, so the engine ring must
  // hold a whole round. Safe to swap here: the CHECKs above proved the
  // engine is idle.
  if (options_.background && engine_ && engine_->capacity() < buckets_.size())
    engine_.reset();
}

const std::vector<const Tensor*>& DistributedOptimizer::bucket_views(
    std::size_t b, const std::vector<Tensor*>& tensors) {
  const Bucket& bk = buckets_[b];
  bucket_views_.assign(
      tensors.begin() + static_cast<std::ptrdiff_t>(bk.first),
      tensors.begin() + static_cast<std::ptrdiff_t>(bk.last));
  return bucket_views_;
}

int DistributedOptimizer::acquire_round_index() {
  if (round_index_ < 0) round_index_ = tag_round_++ % 64;
  return round_index_;
}

int DistributedOptimizer::bucket_tag_base(int round_index,
                                          std::size_t bucket) const {
  // Each (round, bucket) gets its own tag namespace out of the same 64
  // slots the seed cycled through per round, so engines of different ranks
  // can be on different buckets concurrently without cross-talk, and each
  // bucket lands in a distinct recovery-tag slot. With one bucket this is
  // exactly the seed's (tag_round_ % 64) * 65536.
  const std::size_t slot =
      (static_cast<std::size_t>(round_index) * buckets_.size() + bucket) % 64;
  return static_cast<int>(slot) * 65536;
}

void DistributedOptimizer::launch_bucket(std::size_t b, ReduceOp op,
                                         int round_index) {
  Bucket& bk = buckets_[b];
  ADASUM_CHECK(!bk.launched);
  FusedTensor& fused = bk.fusion.fused();
  bk.opts.op = op;
  // The slice table depends only on the layout, which ensure_buckets pinned;
  // copy it once per layout instead of once per round (steady state must
  // not allocate). An empty table already means "one layer", so the
  // non-layerwise case leaves it empty.
  if (options_.layerwise && bk.opts.slices.size() != fused.slices.size())
    bk.opts.slices = fused.slices;
  const int tag_base = bucket_tag_base(round_index, b);
  // resilient_allreduce is a plain allreduce when the world is not
  // fault-tolerant; otherwise peer failures degrade the group instead of
  // crashing the round.
  if (options_.background) {
    bk.ticket = engine().submit_allreduce(fused.flat, bk.opts, tag_base);
  } else {
    bk.inline_result = resilient_allreduce(comm_, fused.flat, bk.opts,
                                           tag_base);
  }
  bk.launched = true;
}

template <class Finish>
ReduceOutcome DistributedOptimizer::join_round(Finish&& finish) {
  ReduceOutcome worst = ReduceOutcome::kOk;
  bool any_degraded = false;
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    Bucket& bk = buckets_[b];
    const ResilientResult res =
        options_.background ? engine().wait(bk.ticket) : bk.inline_result;
    bk.launched = false;
    if (res.outcome == ReduceOutcome::kDegraded) {
      any_degraded = true;
      if (worst == ReduceOutcome::kOk) worst = ReduceOutcome::kDegraded;
    } else if (res.outcome == ReduceOutcome::kSkipped) {
      // One skipped bucket poisons the round: the caller must treat the
      // whole update as skipped, or replicas would diverge per bucket. The
      // outcome is uniform across survivors (PR 2 protocol), so every rank
      // takes the same branch.
      worst = ReduceOutcome::kSkipped;
    }
    finish(b);
  }
  if (any_degraded) ++degraded_rounds_;
  next_unlaunched_ = 0;
  round_index_ = -1;
  std::fill(grad_ready_.begin(), grad_ready_.end(), char{0});
  return worst;
}

ReduceOutcome DistributedOptimizer::reduce_tensors(
    const std::vector<Tensor*>& tensors, ReduceOp op) {
  ensure_buckets(tensors);
  const int round = acquire_round_index();
  // Launch whatever notify_grad_ready has not already sent. In background
  // mode the engine executes strictly in order, so queueing everything up
  // front is safe and lets the joins below overlap the later buckets.
  for (std::size_t b = next_unlaunched_; b < buckets_.size(); ++b) {
    buckets_[b].fusion.pack(bucket_views(b, tensors));
    launch_bucket(b, op, round);
  }
  return join_round([&](std::size_t b) {
    const Bucket& bk = buckets_[b];
    unpack_views_.assign(
        tensors.begin() + static_cast<std::ptrdiff_t>(bk.first),
        tensors.begin() + static_cast<std::ptrdiff_t>(bk.last));
    bk.fusion.unpack(unpack_views_);
  });
}

void DistributedOptimizer::notify_grad_ready(std::size_t param_index) {
  if (!options_.background) return;
  if (options_.op != ReduceOp::kSum && options_.op != ReduceOp::kAverage)
    return;
  // Only the communicating microstep reduces; earlier microsteps are still
  // accumulating, so their "ready" gradients are not final.
  if (micro_step_ != options_.local_steps - 1) return;
  ADASUM_CHECK_LT(param_index, inner_->params().size());
  const std::vector<Tensor*>& grads =
      param_views(grads_view_, &nn::Parameter::grad);
  ensure_buckets(grads);
  grad_ready_[param_index] = 1;
  const int round = acquire_round_index();
  // Buckets launch in order the moment every tensor in them is ready —
  // communication overlaps the rest of backprop; step() only joins.
  while (next_unlaunched_ < buckets_.size()) {
    const Bucket& bk = buckets_[next_unlaunched_];
    bool ready = true;
    for (std::size_t i = bk.first; ready && i < bk.last; ++i)
      ready = grad_ready_[i] != 0;
    if (!ready) break;
    buckets_[next_unlaunched_].fusion.pack(
        bucket_views(next_unlaunched_, grads));
    launch_bucket(next_unlaunched_, options_.op, round);
    ++next_unlaunched_;
  }
}

ReduceOutcome DistributedOptimizer::communicate_gradients() {
  return reduce_tensors(param_views(grads_view_, &nn::Parameter::grad),
                        options_.op);
}

bool DistributedOptimizer::round_overflowed_globally(bool local_overflow) {
  if (comm_.fault_tolerant()) {
    // The wire allreduce below would hang on a dead rank; the liveness-aware
    // vote is the same OR over exactly the ranks still participating.
    return comm_.vote_failure(local_overflow);
  }
  std::vector<int> everyone(static_cast<std::size_t>(comm_.size()));
  for (int r = 0; r < comm_.size(); ++r)
    everyone[static_cast<std::size_t>(r)] = r;
  const std::vector<double> overflow_sum = comm_.allreduce_sum_doubles(
      std::vector<double>{local_overflow ? 1.0 : 0.0}, everyone,
      /*tag=*/(tag_round_ % 64) * 65536 + 60000);
  return overflow_sum[0] > 0.0;
}

void DistributedOptimizer::revert_to_round_start() {
  const auto& params = inner_->params();
  for (std::size_t i = 0; i < params.size(); ++i) {
    std::memcpy(params[i]->value.data(), round_start_[i].data(),
                round_start_[i].nbytes());
  }
}

namespace {

// Tensor `s`'s slice of a fused fp32 staging buffer.
std::span<float> slice_of(FusedTensor& fused, const TensorSlice& s) {
  return fused.flat.span<float>().subspan(s.offset, s.count);
}

}  // namespace

void DistributedOptimizer::communicate_effective_gradient() {
  if (options_.compression == GradientCompression::kFp16) {
    communicate_effective_gradient_fp16();
    return;
  }
  // Resolve the wire codec the collectives will apply; the error-feedback
  // pass below must mirror it exactly.
  CompressionOptions wirec = options_.wire_compression;
  if (wirec.mode == CompressionMode::kAuto) wirec = comm_.compression();
  const bool legacy_int8 = options_.compression == GradientCompression::kInt8;
  const bool wire_ef =
      !legacy_int8 && wirec.active() && options_.error_feedback;
  const auto& params = inner_->params();
  const std::vector<Tensor*>& values =
      param_views(values_view_, &nn::Parameter::value);
  ensure_buckets(values);

  // Error-feedback scratch: pooled and sized once for the largest layer, so
  // warm rounds lease the same blocks back and allocate nothing.
  std::optional<PooledBuffer> sent_buf, code_buf;
  if (legacy_int8 || wire_ef) {
    std::size_t max_elems = 0;
    for (const Tensor* t : values) max_elems = std::max(max_elems, t->size());
    if (!error_feedback_) {
      std::vector<std::size_t> sizes;
      for (const Tensor* t : values) sizes.push_back(t->size());
      error_feedback_ = std::make_unique<ErrorFeedback>(std::move(sizes));
    }
    sent_buf.emplace(comm_.pool(), max_elems * sizeof(float));
    code_buf.emplace(comm_.pool(), wire_ef
                                       ? compressed_wire_bytes(max_elems, wirec)
                                       : max_elems);
  }

  // The pipeline: compute bucket b's deltas straight into its fused slices,
  // submit, move on — in background mode the engine reduces bucket b while
  // this thread computes bucket b+1 (Figure 3's compute/communication
  // overlap, applied to the local-SGD delta).
  const int round = acquire_round_index();
  for (std::size_t b = 0; b < buckets_.size(); ++b) {
    FusedTensor& fused = buckets_[b].fusion.layout(bucket_views(b, values));
    for (std::size_t i = buckets_[b].first; i < buckets_[b].last; ++i) {
      // effective_gradient = current - round_start (Figure 3).
      const std::span<float> delta =
          slice_of(fused, fused.slices[i - buckets_[b].first]);
      kernels::scaled_sum<float>(params[i]->value.span<float>(), 1.0,
                                 round_start_[i].span<float>(), -1.0, delta);
      if (!sent_buf) continue;
      // Error feedback: compensate with last round's residual, snap the
      // delta through the exact codec the wire applies (or the legacy
      // per-tensor int8), and bank what the snap dropped. The collective
      // then re-quantizes grid-point values, so the transfer adds no error
      // beyond what the residual already captured.
      error_feedback_->compensate(i, delta);
      const std::span<float> sent = sent_buf->as<float>(delta.size());
      if (wire_ef) {
        compress_f32(delta, wirec, code_buf->data());
        decompress_f32(code_buf->data(), wirec, sent);
      } else {
        const std::span<std::int8_t> q =
            code_buf->as<std::int8_t>(delta.size());
        dequantize_int8(q, quantize_int8_into(delta, q), sent);
      }
      error_feedback_->record(i, delta, sent);
      std::memcpy(delta.data(), sent.data(), delta.size_bytes());
    }
    launch_bucket(b, ReduceOp::kAdasum, round);
  }

  // w = round_start + reduced effective gradient, per bucket as it joins.
  const ReduceOutcome outcome = join_round([&](std::size_t b) {
    Bucket& bk = buckets_[b];
    FusedTensor& fused = bk.fusion.fused();
    for (std::size_t i = bk.first; i < bk.last; ++i)
      kernels::scaled_sum<float>(round_start_[i].span<float>(), 1.0,
                                 slice_of(fused, fused.slices[i - bk.first]),
                                 1.0, params[i]->value.span<float>());
  });
  if (outcome == ReduceOutcome::kSkipped) {
    // No agreed-on effective gradient: every rank reverts to the round
    // start, exactly like an fp16 overflow skip.
    revert_to_round_start();
    ++skipped_rounds_;
  }
}

void DistributedOptimizer::communicate_effective_gradient_fp16() {
  // Scale into fp16 (§4.4.1). Overflow on any rank skips the round on all.
  // The vote runs on this thread BEFORE anything reaches the engine, so
  // the single-threaded vote protocol is undisturbed by background mode.
  // The fp32 delta is computed in place in the parameter: nothing reads the
  // parameter again before the apply overwrites it, and a skipped round
  // restores it from the round start. The buckets are laid out over the
  // fp16 tensors, so no fp32 staging buffer is involved.
  const auto& params = inner_->params();
  const double scale = scaler_.scale();
  std::vector<Tensor> compressed;
  compressed.reserve(params.size());
  bool local_overflow = false;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const std::span<float> w = params[i]->value.span<float>();
    kernels::scaled_sum<float>(w, 1.0, round_start_[i].span<float>(), -1.0,
                               w);
    Tensor h = cast_to_fp16_scaled(params[i]->value, scale);
    if (tensor_overflowed(h)) local_overflow = true;
    compressed.push_back(std::move(h));
  }
  const bool overflowed = round_overflowed_globally(local_overflow);
  if (!scaler_.update(overflowed) || overflowed) {
    // Revert to the round start: the round is skipped consistently
    // everywhere (all ranks saw the same summed flag).
    revert_to_round_start();
    ++skipped_rounds_;
    return;
  }
  std::vector<Tensor*> ptrs;
  ptrs.reserve(compressed.size());
  for (Tensor& t : compressed) ptrs.push_back(&t);
  if (reduce_tensors(ptrs, ReduceOp::kAdasum) == ReduceOutcome::kSkipped) {
    revert_to_round_start();
    ++skipped_rounds_;
    return;
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    const Tensor reduced = cast_from_fp16_scaled(compressed[i], scale);
    // w = round_start + reduced_effective_gradient.
    kernels::scaled_sum<float>(round_start_[i].span<float>(), 1.0,
                               reduced.span<float>(), 1.0,
                               params[i]->value.span<float>());
  }
}

}  // namespace adasum::optim
