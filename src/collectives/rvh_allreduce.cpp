// Recursive vector halving (RVH) for both elementwise sum and AdasumRVH.
//
// One halving/unwind skeleton, templated on a combiner (DESIGN.md §8). The
// skeleton owns the schedule: group mapping, chunk and codec resolution, the
// pooled half and the per-level plan, the halving send, the allgather unwind
// and the closing fence. It derives the analyzer declaration from the same
// plan the executor walks. A combiner owns only what happens to the
// partner's half once it arrives:
//   arrive(level, kept, theirs, off, len)  an uncompressed span landed;
//   arrive_blob(level, kept, blob)         the whole compressed half landed;
//   finish(level, kept, theirs, blob)      level end, operand still held;
//   declare(ex, level)                     the analyzer traffic of finish.
// Dispatch is static: the skeleton is a template, so the per-span hook
// inlines into the receive callback.
//
// Tags: level l exchanges halves on tag_base + 8*l, the combiner may use +1
// (Adasum's dot-triple allreduce) and the unwind uses +2, for both
// combiners.
#include <algorithm>
#include <bit>
#include <utility>

#include "analysis/analyzer.h"
#include "base/check.h"
#include "collectives/adasum_rvh.h"
#include "collectives/compressed.h"
#include "collectives/sum_allreduce.h"
#include "comm/buffer_pool.h"
#include "comm/pipeline.h"
#include "core/adasum.h"
#include "tensor/kernels.h"
#include "tensor/parallel/pool.h"

namespace adasum {
namespace {

constexpr int kTagsPerLevel = 8;

// One halving level of this rank's schedule. The executor and the analyzer
// declaration both walk these records. Ranges are global element offsets.
struct RvhLevel {
  int peer;         // world rank of the partner (group index r +- d)
  int tag;          // halving exchange; the combiner uses +1, the unwind +2
  bool is_left;     // r/d even: keeps the lower half, holds the a operand
  int block_first;  // group index of the first of the 2d ranks whose
  int block_size;   // contributions this level merges
  std::size_t kept_begin, kept_count;  // reduced here, sent on the unwind
  std::size_t sent_begin, sent_count;  // shipped away, landed on the unwind
};

// What the skeleton resolved for one call, shared with its combiner.
struct RvhCall {
  Comm& comm;
  std::span<const int> group;  // empty = the whole world
  DType dtype;
  std::size_t elem;
  CompressionOptions wire;  // resolved codec of the bulk transfers
  std::byte* scratch;       // pooled room for the partner's largest half

  int world_rank(int idx) const {
    return group.empty() ? idx : group[static_cast<std::size_t>(idx)];
  }
};

// Elementwise sum: each arriving span is added where it lands, so the sum
// overlaps the rest of the stream and is bit-identical to a whole-half add.
class SumCombiner {
 public:
  explicit SumCombiner(const RvhCall& call) : call_(call) {}

  void arrive(const RvhLevel&, std::byte* kept, const std::byte* theirs,
              std::size_t off, std::size_t len) {
    kernels::add_bytes(theirs + off, kept + off, len / call_.elem, call_.dtype);
  }
  // Fused decode-add straight off the (possibly zero-copy) blob: one pass
  // over the wire bytes, no decoded staging copy, and the sum still runs on
  // decoded fp32 values with double accumulation (DESIGN.md §17).
  void arrive_blob(const RvhLevel& level, std::byte* kept,
                   const std::byte* blob) {
    decompress_add_f32(blob, call_.wire, level.kept_count, /*offset=*/0,
                       {reinterpret_cast<float*>(kept), level.kept_count});
  }
  void finish(const RvhLevel&, std::byte*, const std::byte*,
              const std::byte*) {}
#if ADASUM_ANALYZE
  void declare(analysis::EpochExpectation&, const RvhLevel&) {}
#endif

 private:
  const RvhCall& call_;
};

// Returns the intersection of [s.offset, s.offset+s.count) with
// [begin, end), as offsets relative to `begin`; count 0 if disjoint.
struct SliceLocal {
  std::size_t local_offset = 0;
  std::size_t count = 0;
};
SliceLocal intersect(const TensorSlice& s, std::size_t begin,
                     std::size_t end) {
  const std::size_t lo = std::max(s.offset, begin);
  const std::size_t hi = std::min(s.offset + s.count, end);
  if (hi <= lo) return {0, 0};
  return {lo - begin, hi - lo};
}

// Algorithm 1's combine. On arrival it accumulates each layer's partial dot
// triple [a·b, a·a, b·b] over the kept segment (line 15); at level end it
// allreduces the triples across the 2d-rank block (lines 16-17, on tag+1)
// and applies x' = ca*a + cb*b per layer in place (line 18). `a` is always
// the left subgroup's slice and `b` the right's; whichever belongs to this
// rank is the kept half of the caller's buffer.
class AdasumCombiner {
 public:
  // Leases the per-layer triples and the block's rank list from the pool
  // (no steady-state allocation).
  AdasumCombiner(const RvhCall& call, std::span<const TensorSlice> layers)
      : call_(call),
        layers_(layers),
        triples_buf_(call.comm.pool(), 3 * layers_.size() * sizeof(double)),
        triples_(triples_buf_.as<double>(3 * layers_.size())),
        block_buf_(call.comm.pool(),
                   (call.group.empty() ? static_cast<std::size_t>(
                                             call.comm.size())
                                       : call.group.size()) *
                       sizeof(int)) {}

  // The partner's half lands chunk by chunk (at pooled scratch, or as the
  // peer's view on a zero-copy transport): dot every layer whose
  // intersection with the segment is now complete. Only the overlap changes
  // with the chunk size, never the bits.
  void arrive(const RvhLevel& level, std::byte* kept, const std::byte* theirs,
              std::size_t off, std::size_t len) {
    flush_dots(level, kept, theirs, (off + len) / call_.elem);
  }

  // A compressed half decompresses only once the full blob lands (the scale
  // sideband precedes the payload), so the dot passes run once over the
  // decoded half; the wire stream itself stays chunked.
  void arrive_blob(const RvhLevel& level, std::byte* kept,
                   const std::byte* blob) {
    decompress_f32(blob, call_.wire,
                   {reinterpret_cast<float*>(call_.scratch), level.kept_count});
    flush_dots(level, kept, call_.scratch, level.kept_count);
  }

  // Completes the dot products across the block, then combines each layer
  // straight into the caller's storage. With `blob` set the partner's
  // operand is re-decoded STRAIGHT OFF THE WIRE BYTES, fused with the scaled
  // sum (DESIGN.md §17): exactly decompress + scaled_sum bit for bit, but
  // reading 1-4 bits or 1 byte per element and writing no staging copy.
  // Elements the boundary table does not cover keep this rank's own
  // contribution (they never occur when the layers tile the payload).
  void finish(const RvhLevel& level, std::byte* kept, const std::byte* theirs,
              const std::byte* blob) {
    ADASUM_CHECK_EQ(next_layer_, layers_.size());
    next_layer_ = 0;
    call_.comm.allreduce_sum_doubles_inplace(triples_, block(level),
                                             level.tag + 1);
    const std::byte* const a = level.is_left ? kept : theirs;
    const std::byte* const b = level.is_left ? theirs : kept;
    const std::size_t elem = call_.elem;
    float* const kept_f = reinterpret_cast<float*>(kept);
    for (std::size_t l = 0; l < layers_.size(); ++l) {
      const SliceLocal loc = intersect(
          layers_[l], level.kept_begin, level.kept_begin + level.kept_count);
      if (loc.count == 0) continue;
      const AdasumFactors f = adasum_factors(kernels::DotTriple{
          triples_[3 * l + 0], triples_[3 * l + 1], triples_[3 * l + 2]});
      if (blob != nullptr) {
        // The kept half takes its own operand slot; the decoded partner
        // slice takes the other, with its coefficient.
        decompress_combine_f32(
            blob, call_.wire, level.kept_count, loc.local_offset,
            {kept_f + loc.local_offset, loc.count},
            /*c_other=*/level.is_left ? f.ca : f.cb,
            /*c_deq=*/level.is_left ? f.cb : f.ca,
            /*deq_is_b=*/level.is_left,
            {kept_f + loc.local_offset, loc.count});
      } else {
        kernels::scaled_sum_bytes(a + loc.local_offset * elem, f.ca,
                                  b + loc.local_offset * elem, f.cb,
                                  kept + loc.local_offset * elem, loc.count,
                                  call_.dtype);
      }
    }
  }

#if ADASUM_ANALYZE
  void declare(analysis::EpochExpectation& ex, const RvhLevel& level) {
    ex.allreduce_doubles(block(level), call_.comm.rank(), level.tag + 1);
  }
#endif

 private:
  // World ranks of the 2d-rank block the level's triple allreduce spans.
  std::span<int> block(const RvhLevel& level) {
    const std::span<int> ranks = block_buf_.as<int>(
        static_cast<std::size_t>(level.block_size));
    for (int i = 0; i < level.block_size; ++i)
      ranks[static_cast<std::size_t>(i)] =
          call_.world_rank(level.block_first + i);
    return ranks;
  }

  // Dots every layer whose intersection with the kept segment lies within
  // the first `received` elements of the partner's half. Layers advance in
  // ascending order over the identical contiguous spans the monolithic path
  // feeds the kernel, so the accumulated doubles are bit-for-bit the same
  // for every chunk size. Layers disjoint from the segment flush at once
  // with zero triples.
  void flush_dots(const RvhLevel& level, const std::byte* kept,
                  const std::byte* theirs, std::size_t received) {
    const std::byte* const a = level.is_left ? kept : theirs;
    const std::byte* const b = level.is_left ? theirs : kept;
    const std::size_t seg_end = level.kept_begin + level.kept_count;
    const std::size_t first = next_layer_;
    while (next_layer_ < layers_.size()) {
      const SliceLocal loc =
          intersect(layers_[next_layer_], level.kept_begin, seg_end);
      if (loc.count > 0 && loc.local_offset + loc.count > received) break;
      ++next_layer_;
    }
    const auto dot_layer = [&](std::size_t l) {
      const SliceLocal loc = intersect(layers_[l], level.kept_begin, seg_end);
      kernels::DotTriple t;
      if (loc.count > 0) {
        t = kernels::dot_triple_bytes(a + loc.local_offset * call_.elem,
                                      b + loc.local_offset * call_.elem,
                                      loc.count, call_.dtype);
      }
      triples_[3 * l + 0] = t.ab;
      triples_[3 * l + 1] = t.aa;
      triples_[3 * l + 2] = t.bb;
    };
    // Layer-level fan-out (DESIGN.md §17): the dot wrappers stay monolithic
    // at every ADASUM_THREADS setting (tiling their double accumulators
    // would change the bits), so parallelism comes from distributing WHOLE
    // layers over the pool. Each layer writes only its own triples slot, so
    // the result is bit-identical whichever thread runs which layer.
    const std::size_t ready = next_layer_ - first;
    if (ready > 1 && parallel::enabled() &&
        level.kept_count * call_.elem >= (std::size_t{1} << 20)) {
      parallel::for_tiles(ready, /*grain=*/1, /*quantum=*/1,
                          [&](std::size_t, std::size_t lb, std::size_t le) {
                            for (std::size_t i = lb; i < le; ++i)
                              dot_layer(first + i);
                          });
    } else {
      for (std::size_t l = first; l < next_layer_; ++l) dot_layer(l);
    }
  }

  const RvhCall& call_;
  const std::span<const TensorSlice> layers_;
  PooledBuffer triples_buf_;
  const std::span<double> triples_;
  PooledBuffer block_buf_;
  std::size_t next_layer_ = 0;  // first layer of this level not yet dotted
};

// Zero-copy schedule: this rank's segment is always a contiguous range of
// the CALLER'S buffer, never a copy. Per level only the partner's half is
// staged (one pooled scratch reused at every level), the combiner writes
// straight into the caller's storage, and the unwind receives each half
// directly at its final offset: no steady-state allocation and no trailing
// memcpy. adasum_rvh_reference.h holds the copy-based Adasum formulation
// that tests compare bit for bit against this one.
template <class Combiner, class... Args>
void rvh_allreduce(Comm& comm, std::byte* data, std::size_t count,
                   DType dtype, int tag_base, std::span<const int> group,
                   const CompressionOptions& compression,
                   const char* epoch_name, Args&&... combiner_args) {
  const int size =
      group.empty() ? comm.size() : static_cast<int>(group.size());
  if (size == 1) return;
  ADASUM_CHECK_MSG(std::has_single_bit(static_cast<unsigned>(size)),
                   "RVH requires a power-of-two group size");
  int rank = comm.rank();
  if (!group.empty()) {
    rank = -1;
    for (std::size_t i = 0; i < group.size(); ++i)
      if (group[i] == comm.rank()) rank = static_cast<int>(i);
    ADASUM_CHECK_MSG(rank >= 0, "calling rank must belong to the group");
  }
  const std::size_t elem = dtype_size(dtype);
  // Chunk size of the bulk transfers (0 = one message each), resolved
  // through the transport: a zero-copy transport collapses every transfer
  // to one monolithic view, and the declaration below follows.
  const std::size_t chunk =
      comm.bulk_chunk_bytes(comm.pipeline().chunk_bytes_for(elem));
  // Wire compression of the bulk transfers (DESIGN.md §13); combiner
  // arithmetic always runs on decoded values (§4.4.1).
  const CompressionOptions comp = resolve_compression(comm, compression, dtype);

  const int levels = std::countr_zero(static_cast<unsigned>(size));
  BufferPool& pool = comm.pool();
  // The largest incoming half is ceil(count/2) elements, at level 0.
  PooledBuffer half_buf(pool, ((count + 1) / 2) * elem);
  const RvhCall call{comm, group, dtype, elem, comp, half_buf.data()};
  Combiner combiner(call, std::forward<Args>(combiner_args)...);
  PooledBuffer plan_buf(pool,
                        static_cast<std::size_t>(levels) * sizeof(RvhLevel));
  const std::span<RvhLevel> plan =
      plan_buf.as<RvhLevel>(static_cast<std::size_t>(levels));

  std::size_t seg_begin = 0;
  std::size_t seg_count = count;
  for (int l = 0; l < levels; ++l) {
    const int d = 1 << l;
    const bool is_left = (rank / d) % 2 == 0;
    const std::size_t mid = seg_count / 2;
    const std::size_t kept_begin = is_left ? seg_begin : seg_begin + mid;
    const std::size_t kept_count = is_left ? mid : seg_count - mid;
    plan[static_cast<std::size_t>(l)] =
        RvhLevel{call.world_rank(is_left ? rank + d : rank - d),
                 tag_base + kTagsPerLevel * l,
                 is_left,
                 rank / (2 * d) * (2 * d),
                 2 * d,
                 kept_begin,
                 kept_count,
                 is_left ? seg_begin + mid : seg_begin,
                 seg_count - kept_count};
    seg_begin = kept_begin;
    seg_count = kept_count;
  }

#if ADASUM_ANALYZE
  // The expected message schedule, declared from the plan the loops below
  // walk: per level the halving exchange, the combiner's own traffic and
  // the unwind. A drifted tag or partner becomes an expected-vs-observed
  // diff in the epoch report instead of a hang.
  analysis::EpochGuard epoch(comm.analyzer(), comm.rank(), epoch_name);
  if (epoch.declaring()) {
    analysis::EpochExpectation& ex = epoch.expect();
    // One transfer of n elements: compression shrinks the wire bytes and
    // with them the chunk count, by the formula the streams use.
    const auto stream = [&](bool send, int peer, int tag, std::size_t n) {
      for (std::size_t c =
               chunk_messages(wire_transfer_bytes(n, elem, comp), chunk);
           c > 0; --c) {
        if (send)
          ex.send(peer, tag);
        else
          ex.recv(peer, tag);
      }
    };
    for (const RvhLevel& level : plan) {
      stream(true, level.peer, level.tag, level.sent_count);
      stream(false, level.peer, level.tag, level.kept_count);
      combiner.declare(ex, level);
      stream(true, level.peer, level.tag + 2, level.kept_count);
      stream(false, level.peer, level.tag + 2, level.sent_count);
    }
  }
#else
  (void)epoch_name;
#endif

  // Compressed-wire helper (inert when comp is off); the largest single
  // transfer is the level-0 half.
  WireCompressor wc(comm, dtype, comp, (count + 1) / 2, /*bulk_views=*/true);

  for (const RvhLevel& level : plan) {
    std::byte* const kept = data + level.kept_begin * elem;
    std::byte* const sent = data + level.sent_begin * elem;
    // The outgoing half leaves this rank's working set (ownership moves to
    // the partner), so the compressed path ships a plain blob; requantizing
    // waits for the unwind. On a zero-copy transport the uncompressed send
    // publishes a VIEW of the caller's buffer. That range stays untouched
    // until this level's unwind receive, which happens-after the partner
    // released the view (its finish precedes its unwind send).
    if (wc.active()) {
      wc.send(level.peer, sent, level.sent_count, chunk, level.tag);
      // recv_apply holds the (possibly zero-copy) blob for the callback's
      // whole body, across the combiner's nested traffic.
      wc.recv_apply(level.peer, level.kept_count, chunk, level.tag,
                    [&](const std::byte* blob) {
                      combiner.arrive_blob(level, kept, blob);
                      combiner.finish(level, kept, nullptr, blob);
                    });
    } else {
      comm.send_bulk(level.peer, {sent, level.sent_count * elem}, chunk,
                     level.tag);
      // The partner's half lives in the pooled scratch on the eager path
      // and in the PEER's published span on a zero-copy transport; `held`
      // keeps the view alive through finish, and its release unblocks the
      // partner's fence.
      const std::byte* theirs = half_buf.data();
      BulkRecv held = comm.recv_bulk(
          level.peer, {half_buf.data(), level.kept_count * elem}, chunk,
          level.tag,
          [&](const std::byte* base, std::size_t off, std::size_t len) {
            theirs = base;
            combiner.arrive(level, kept, base, off, len);
          });
      combiner.finish(level, kept, theirs, nullptr);
    }
  }

  // Allgather unwind (Algorithm 1 lines 22-24): send the reduced segment,
  // receive the partner's directly at its final offset. The compressed
  // sender requantizes (ships one blob, then decodes it over its own copy),
  // so partners hold bit-identical segments at every level, and since the
  // codec is deterministic the blobs they emit upward are identical too.
  for (auto it = plan.rbegin(); it != plan.rend(); ++it) {
    const RvhLevel& level = *it;
    std::byte* const kept = data + level.kept_begin * elem;
    std::byte* const dest = data + level.sent_begin * elem;
    const int tag = level.tag + 2;
    if (wc.active()) {
      wc.send_requantize(level.peer, kept, level.kept_count, chunk, tag);
      wc.recv_into(level.peer, dest, level.sent_count, chunk, tag);
    } else {
      // Unwind segments published as views are never rewritten before the
      // closing fence. The landed segment is final output the caller reads
      // much later, so the zero-copy path deposits the peer's span with
      // non-temporal stores; the eager path already received straight into
      // `dest` (base == dest) and needs no copy at all.
      comm.send_bulk(level.peer, {kept, level.kept_count * elem}, chunk, tag);
      BulkRecv held = comm.recv_bulk(
          level.peer, {dest, level.sent_count * elem}, chunk, tag,
          [&](const std::byte* base, std::size_t off, std::size_t len) {
            if (base != dest)
              kernels::stream_copy_bytes(base + off, dest + off, len);
          });
    }
  }

  // Retire the views this rank still has published (the last unwind sends)
  // before the caller touches its buffer again. No-op on buffered
  // transports.
  comm.bulk_fence();
}

}  // namespace

void adasum_rvh_allreduce(Comm& comm, std::byte* data, std::size_t count,
                          DType dtype, std::span<const TensorSlice> slices,
                          int tag_base, std::span<const int> group,
                          const CompressionOptions& compression) {
  // Whole payload as a single layer when no boundary table is given.
  const TensorSlice whole{"all", 0, count};
  rvh_allreduce<AdasumCombiner>(
      comm, data, count, dtype, tag_base, group, compression, "adasum_rvh",
      slices.empty() ? std::span<const TensorSlice>{&whole, 1} : slices);
}

void adasum_rvh_allreduce(Comm& comm, Tensor& tensor,
                          std::span<const TensorSlice> slices, int tag_base,
                          std::span<const int> group,
                          const CompressionOptions& compression) {
  adasum_rvh_allreduce(comm, tensor.data(), tensor.size(), tensor.dtype(),
                       slices, tag_base, group, compression);
}

void rvh_allreduce_sum(Comm& comm, std::byte* data, std::size_t count,
                       DType dtype, int tag_base, std::span<const int> group,
                       const CompressionOptions& compression) {
  if (count == 0) return;
  rvh_allreduce<SumCombiner>(comm, data, count, dtype, tag_base, group,
                             compression, "rvh_allreduce_sum");
}

void rvh_allreduce_sum(Comm& comm, Tensor& tensor, int tag_base,
                       const CompressionOptions& compression) {
  rvh_allreduce_sum(comm, tensor.data(), tensor.size(), tensor.dtype(),
                    tag_base, {}, compression);
}

}  // namespace adasum
