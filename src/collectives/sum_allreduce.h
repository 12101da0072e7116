// Elementwise sum/average allreduces — the synchronous-SGD baselines.
//
// Two schedules are provided:
//  * ring: the classic bandwidth-optimal chunked ring (reduce-scatter phase
//    of p-1 steps, allgather phase of p-1 steps), works for any world size;
//  * rvh: recursive vector halving + doubling, latency-and-bandwidth optimal
//    on hypercubes (Chan et al.), power-of-two world sizes. It is the sum
//    combiner of the RVH skeleton AdasumRVH also runs on
//    (collectives/rvh_allreduce.cpp, DESIGN.md §8): level l exchanges
//    halves on tag_base + 8*l and unwinds on +2.
// Both produce the identical elementwise sum; tests assert so.
#pragma once

#include <cstddef>
#include <span>

#include "comm/world.h"
#include "tensor/tensor.h"

namespace adasum {

// In-place ring sum-allreduce. Any world size. `compression` selects the
// wire codec (DESIGN.md §13; kAuto follows the World): reduce-scatter
// segments ship as fresh blobs, while the allgather forwards each owner's
// blob VERBATIM hop to hop so every rank decodes the same stream and
// replicas stay bit-identical.
void ring_allreduce_sum(Comm& comm, std::byte* data, std::size_t count,
                        DType dtype, int tag_base = 0,
                        const CompressionOptions& compression = {});

// In-place recursive-vector-halving sum-allreduce. `group` restricts the
// reduction to a subset of world ranks (empty = the whole world; all members
// must call with the same group) — the hierarchical allreduce runs its
// cross-node sum phase this way. Power-of-two group size. Compressed
// doubling requantizes like the Adasum RVH unwind (see compressed.h).
void rvh_allreduce_sum(Comm& comm, std::byte* data, std::size_t count,
                       DType dtype, int tag_base = 0,
                       std::span<const int> group = {},
                       const CompressionOptions& compression = {});

void ring_allreduce_sum(Comm& comm, Tensor& tensor, int tag_base = 0,
                        const CompressionOptions& compression = {});
void rvh_allreduce_sum(Comm& comm, Tensor& tensor, int tag_base = 0,
                       const CompressionOptions& compression = {});

}  // namespace adasum
