// AdasumRVH — the paper's Algorithm 1.
//
// A recursive-vector-halving allreduce modified to host the (non-
// elementwise) Adasum operator. Each reduce-scatter level:
//   1. exchanges vector halves with the neighbor at distance d, so the
//      "left" rank ends up holding slices of the left subgroup's logical
//      vector (a) and the right subgroup's (b);
//   2. computes PARTIAL dot products v = [a·b, a·a, b·b] on the local slice
//      (per layer when a boundary table is supplied, §3.6);
//   3. allreduces v across the 2d-rank group so every member has the full
//      dot products (Algorithm 1 line 17 — the extra communication step the
//      elementwise MPI user-op could not express);
//   4. applies x' = a(1 - v1/2v2) + b(1 - v1/2v3) locally.
// After the recursion bottoms out, a mirrored allgather reassembles the
// combined vector on all ranks.
//
// The halving/unwind schedule is shared with the elementwise RVH sum
// (collectives/rvh_allreduce.cpp, DESIGN.md §8); steps 2-4 are the Adasum
// combiner. Level l exchanges halves on tag_base + 8*l, allreduces the dot
// triples on +1 and unwinds on +2.
//
// Requires a power-of-two world size (Algorithm 1's precondition); the
// dispatcher in allreduce.h falls back to a gather-based tree for other
// sizes.
#pragma once

#include <span>

#include "comm/world.h"
#include "tensor/fusion.h"
#include "tensor/tensor.h"

namespace adasum {

// In-place Adasum allreduce of `count` elements of `dtype` at `data`.
// `slices` — layer boundaries in elements over the full payload; pass empty
// to treat the payload as a single layer. `tag_base` namespaces this
// collective's messages so several collectives can share a Comm. `group`
// restricts the reduction to a subset of world ranks (all of whom must call
// with the same group; empty = all ranks) — the hierarchical allreduce uses
// this for its cross-node phase. `compression` selects the wire codec for
// the halving exchange and allgather transfers (DESIGN.md §13); kAuto
// follows the World, and the dot-triple allreduce always travels exact.
void adasum_rvh_allreduce(Comm& comm, std::byte* data, std::size_t count,
                          DType dtype,
                          std::span<const TensorSlice> slices = {},
                          int tag_base = 0, std::span<const int> group = {},
                          const CompressionOptions& compression = {});

// Tensor convenience overload (in place).
void adasum_rvh_allreduce(Comm& comm, Tensor& tensor,
                          std::span<const TensorSlice> slices = {},
                          int tag_base = 0, std::span<const int> group = {},
                          const CompressionOptions& compression = {});

}  // namespace adasum
