#include "collectives/sum_allreduce.h"

#include <utility>

#include "analysis/analyzer.h"
#include "collectives/compressed.h"
#include "comm/buffer_pool.h"
#include "comm/pipeline.h"
#include "tensor/kernels.h"

namespace adasum {
namespace {

// Chunk boundaries for the ring schedule: chunk c covers
// [c*count/p, (c+1)*count/p) rounded so the chunks tile the payload.
std::size_t chunk_begin(std::size_t count, int p, int c) {
  return count * static_cast<std::size_t>(c) / static_cast<std::size_t>(p);
}

}  // namespace

void ring_allreduce_sum(Comm& comm, std::byte* data, std::size_t count,
                        DType dtype, int tag_base,
                        const CompressionOptions& compression) {
  const int p = comm.size();
  if (p == 1 || count == 0) return;
  const int rank = comm.rank();
  const std::size_t elem = dtype_size(dtype);
  const int next = (rank + 1) % p;
  const int prev = (rank + p - 1) % p;
  const std::size_t chunk = comm.pipeline().chunk_bytes_for(elem);
  const CompressionOptions comp = resolve_compression(comm, compression, dtype);

#if ADASUM_ANALYZE
  // Ring schedule: p-1 reduce-scatter steps on tag_base+s, p-1 allgather
  // steps on tag_base+p+s, always to `next` / from `prev`. Each step's
  // segment may travel as a chunk stream; the declaration computes the same
  // per-step chunk counts as the transfers below.
  analysis::EpochGuard epoch(comm.analyzer(), rank, "ring_allreduce_sum");
  if (epoch.declaring()) {
    analysis::EpochExpectation& ex = epoch.expect();
    const auto seg_bytes = [&](int c) {
      // Wire bytes per segment: a compressed segment travels as a blob of
      // the same size at every hop (the allgather forwards it verbatim).
      return wire_transfer_bytes(
          chunk_begin(count, p, c + 1) - chunk_begin(count, p, c), elem, comp);
    };
    for (int s = 0; s < p - 1; ++s) {
      for (std::size_t c =
               chunk_messages(seg_bytes((rank - s + p) % p), chunk);
           c > 0; --c)
        ex.send(next, tag_base + s);
      for (std::size_t c =
               chunk_messages(seg_bytes((rank - s - 1 + p) % p), chunk);
           c > 0; --c)
        ex.recv(prev, tag_base + s);
      for (std::size_t c =
               chunk_messages(seg_bytes((rank + 1 - s + p) % p), chunk);
           c > 0; --c)
        ex.send(next, tag_base + p + s);
      for (std::size_t c =
               chunk_messages(seg_bytes((rank - s + p) % p), chunk);
           c > 0; --c)
        ex.recv(prev, tag_base + p + s);
    }
  }
#endif

  // Reduce-scatter: after step s, rank r has accumulated chunk
  // (r - s + p) % p from s+1 ranks; after p-1 steps rank r owns the full sum
  // of chunk (r + 1) % p. Incoming chunks stage in one pooled buffer sized
  // for the largest chunk.
  const std::size_t max_chunk =
      (count + static_cast<std::size_t>(p) - 1) / static_cast<std::size_t>(p);
  PooledBuffer scratch(comm.pool(), max_chunk * elem);
  WireCompressor wc(comm, dtype, comp, max_chunk);
  for (int s = 0; s < p - 1; ++s) {
    const int send_chunk = (rank - s + p) % p;
    const int recv_chunk = (rank - s - 1 + p) % p;
    const std::size_t sb = chunk_begin(count, p, send_chunk);
    const std::size_t se = chunk_begin(count, p, send_chunk + 1);
    // The outgoing partial's local copy is overwritten by the allgather, so
    // the compressed path ships a plain blob.
    if (wc.active())
      wc.send(next, data + sb * elem, se - sb, chunk, tag_base + s);
    else
      comm.send_chunks(next, {data + sb * elem, (se - sb) * elem}, chunk,
                       tag_base + s);
    const std::size_t rb = chunk_begin(count, p, recv_chunk);
    const std::size_t re = chunk_begin(count, p, recv_chunk + 1);
    if (wc.active()) {
      // Fused decode-add (DESIGN.md §17): the incoming blob is reduced into
      // the resident chunk in one pass over the wire bytes — no decoded
      // staging buffer is written or re-read. Accumulation still runs on the
      // decoded fp32 values through the double-accumulating kernel (§4.4.1),
      // bit-identical to decompress-then-add.
      wc.recv_apply(prev, re - rb, chunk, tag_base + s,
                    [&](const std::byte* blob) {
                      decompress_add_f32(
                          blob, wc.options(), re - rb, /*offset=*/0,
                          {reinterpret_cast<float*>(data + rb * elem),
                           re - rb});
                    });
    } else {
      // The sum is elementwise, so each chunk is added the moment it lands —
      // bit-identical to the whole-segment add, but overlapped with the
      // remaining transfers of the stream.
      comm.recv_chunks_into(prev, scratch.bytes((re - rb) * elem), chunk,
                            tag_base + s,
                            [&](std::size_t off, std::size_t len) {
                              kernels::add_bytes(scratch.data() + off,
                                                 data + rb * elem + off,
                                                 len / elem, dtype);
                            });
    }
  }

  // Allgather: circulate the owned (fully reduced) chunks, each received
  // directly at its final offset.
  if (wc.active()) {
    // Verbatim blob forwarding: chunk c's blob is created ONCE by its owner
    // and forwarded unchanged hop to hop; every rank (owner included, via
    // the s == 0 decode of its own blob) materializes chunk c from the same
    // bytes, so replicas end bit-identical. Re-encoding at each hop would
    // instead hand every rank a different quantization generation.
    int hold = 0;
    int incoming = 1;
    for (int s = 0; s < p - 1; ++s) {
      const int send_chunk = (rank + 1 - s + p) % p;
      const int recv_chunk = (rank - s + p) % p;
      const std::size_t sb = chunk_begin(count, p, send_chunk);
      const std::size_t se = chunk_begin(count, p, send_chunk + 1);
      if (s == 0) wc.encode(hold, data + sb * elem, se - sb);
      wc.send_blob(next, hold, se - sb, chunk, tag_base + p + s);
      if (s == 0) wc.decode(hold, data + sb * elem, se - sb);
      const std::size_t rb = chunk_begin(count, p, recv_chunk);
      const std::size_t re = chunk_begin(count, p, recv_chunk + 1);
      wc.recv_blob(prev, incoming, re - rb, chunk, tag_base + p + s);
      wc.decode(incoming, data + rb * elem, re - rb);
      std::swap(hold, incoming);
    }
  } else {
    for (int s = 0; s < p - 1; ++s) {
      const int send_chunk = (rank + 1 - s + p) % p;
      const int recv_chunk = (rank - s + p) % p;
      const std::size_t sb = chunk_begin(count, p, send_chunk);
      const std::size_t se = chunk_begin(count, p, send_chunk + 1);
      comm.send_chunks(next, {data + sb * elem, (se - sb) * elem}, chunk,
                       tag_base + p + s);
      const std::size_t rb = chunk_begin(count, p, recv_chunk);
      const std::size_t re = chunk_begin(count, p, recv_chunk + 1);
      comm.recv_chunks_into(prev, {data + rb * elem, (re - rb) * elem}, chunk,
                            tag_base + p + s);
    }
  }
}

void ring_allreduce_sum(Comm& comm, Tensor& tensor, int tag_base,
                        const CompressionOptions& compression) {
  ring_allreduce_sum(comm, tensor.data(), tensor.size(), tensor.dtype(),
                     tag_base, compression);
}

}  // namespace adasum
