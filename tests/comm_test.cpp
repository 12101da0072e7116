// Tests for the simulated MPI world (src/comm) and the cost model.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "chaos_util.h"
#include "comm/cost_model.h"
#include "comm/world.h"

namespace adasum {
namespace {

TEST(World, PointToPointDelivery) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> msg{1.5, 2.5};
      comm.send<double>(1, msg);
    } else {
      const std::vector<double> got = comm.recv<double>(0);
      ASSERT_EQ(got.size(), 2u);
      EXPECT_EQ(got[0], 1.5);
      EXPECT_EQ(got[1], 2.5);
    }
  });
}

TEST(World, TagsKeepStreamsSeparate) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> a{1}, b{2};
      comm.send<int>(1, a, /*tag=*/7);
      comm.send<int>(1, b, /*tag=*/8);
    } else {
      // Receive in the opposite order of sending.
      EXPECT_EQ(comm.recv<int>(0, 8)[0], 2);
      EXPECT_EQ(comm.recv<int>(0, 7)[0], 1);
    }
  });
}

TEST(World, SameTagIsFifo) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int i = 0; i < 10; ++i) {
        const std::vector<int> v{i};
        comm.send<int>(1, v);
      }
    } else {
      for (int i = 0; i < 10; ++i) EXPECT_EQ(comm.recv<int>(0)[0], i);
    }
  });
}

TEST(World, ExchangeSwapsValues) {
  World world(2);
  world.run([](Comm& comm) {
    const std::vector<int> mine{comm.rank()};
    const std::vector<int> theirs = comm.exchange<int>(1 - comm.rank(), mine);
    EXPECT_EQ(theirs[0], 1 - comm.rank());
  });
}

TEST(World, BarrierSynchronizes) {
  World world(4);
  std::atomic<int> before{0}, after{0};
  world.run([&](Comm& comm) {
    ++before;
    comm.barrier();
    EXPECT_EQ(before.load(), 4);
    ++after;
    comm.barrier();
    EXPECT_EQ(after.load(), 4);
  });
}

TEST(World, RethrowsRankFailureWithoutDeadlock) {
  World world(4);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 2) throw std::runtime_error("rank 2 failed");
    // Other ranks block on a message that never arrives; the abort must
    // wake them.
    comm.recv_bytes((comm.rank() + 1) % 4);
  }),
               std::runtime_error);
}

TEST(World, UsableAfterFailedRun) {
  World world(2);
  EXPECT_THROW(world.run([](Comm&) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> v{42};
      comm.send<int>(1, v);
    } else {
      EXPECT_EQ(comm.recv<int>(0)[0], 42);
    }
  });
}

TEST(World, StatsCountTraffic) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> v{1, 2, 3, 4};
      comm.send<double>(1, v);
    } else {
      comm.recv<double>(0);
    }
  });
  EXPECT_EQ(world.stats()[0].messages_sent, 1u);
  EXPECT_EQ(world.stats()[0].bytes_sent, 32u);
  EXPECT_EQ(world.stats()[1].messages_sent, 0u);
}

class AllreduceDoublesTest : public ::testing::TestWithParam<int> {};

TEST_P(AllreduceDoublesTest, SumsAcrossFullWorld) {
  const int p = GetParam();
  World world(p);
  world.run([p](Comm& comm) {
    std::vector<int> group(p);
    std::iota(group.begin(), group.end(), 0);
    const std::vector<double> mine{static_cast<double>(comm.rank()), 1.0};
    const std::vector<double> total =
        comm.allreduce_sum_doubles(mine, group);
    ASSERT_EQ(total.size(), 2u);
    EXPECT_DOUBLE_EQ(total[0], p * (p - 1) / 2.0);
    EXPECT_DOUBLE_EQ(total[1], p);
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, AllreduceDoublesTest,
                         ::testing::Values(1, 2, 3, 4, 5, 8, 16));

TEST(AllreduceDoubles, DisjointSubgroups) {
  World world(4);
  world.run([](Comm& comm) {
    const std::vector<int> group =
        comm.rank() < 2 ? std::vector<int>{0, 1} : std::vector<int>{2, 3};
    const std::vector<double> mine{static_cast<double>(comm.rank())};
    const std::vector<double> total = comm.allreduce_sum_doubles(mine, group);
    EXPECT_DOUBLE_EQ(total[0], comm.rank() < 2 ? 1.0 : 5.0);
  });
}

TEST(AllreduceDoubles, NonMemberRejected) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
    const std::vector<int> group{0};  // rank 1 calls with a group excluding it
    const std::vector<double> v{1.0};
    if (comm.rank() == 1) comm.allreduce_sum_doubles(v, group);
  }),
               CheckError);
}

// ---- buffer pool -------------------------------------------------------------

TEST(BufferPool, AcquireAllocatesThenRecycles) {
  BufferPool pool;
  std::vector<std::byte> a = pool.acquire(128);
  EXPECT_EQ(a.size(), 128u);
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().reuses, 0u);
  const std::byte* const backing = a.data();
  pool.release(std::move(a));
  EXPECT_EQ(pool.free_buffers(), 1u);
  std::vector<std::byte> b = pool.acquire(128);
  EXPECT_EQ(b.data(), backing) << "same-size acquire must reuse the buffer";
  EXPECT_EQ(pool.stats().allocations, 1u);
  EXPECT_EQ(pool.stats().reuses, 1u);
}

TEST(BufferPool, BestFitPrefersExactSize) {
  BufferPool pool;
  std::vector<std::byte> small = pool.acquire(64);
  std::vector<std::byte> big = pool.acquire(4096);
  const std::byte* const small_backing = small.data();
  pool.release(std::move(big));
  pool.release(std::move(small));
  // A 64-byte request must take the 64-byte buffer, not shrink the 4 KiB one.
  std::vector<std::byte> again = pool.acquire(64);
  EXPECT_EQ(again.data(), small_backing);
  EXPECT_EQ(pool.free_bytes(), 4096u);
}

TEST(BufferPool, SmallerRequestReusesLargerBuffer) {
  BufferPool pool;
  pool.release(pool.acquire(1024));
  std::vector<std::byte> b = pool.acquire(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(pool.stats().reuses, 1u);
  EXPECT_GE(b.capacity(), 1024u) << "reuse shrinks size, not capacity";
}

TEST(BufferPool, ZeroByteRequestDoesNotConsumePooledBuffers) {
  BufferPool pool;
  pool.release(pool.acquire(256));
  const std::vector<std::byte> empty = pool.acquire(0);
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(pool.free_buffers(), 1u);
  EXPECT_EQ(pool.free_bytes(), 256u);
}

TEST(BufferPool, StatsAndTrim) {
  BufferPool pool;
  pool.release(pool.acquire(10));
  pool.release(pool.acquire(20));
  EXPECT_EQ(pool.stats().allocations, 2u);
  EXPECT_EQ(pool.stats().releases, 2u);
  EXPECT_EQ(pool.stats().bytes_allocated, 30u);
  EXPECT_EQ(pool.free_buffers(), 2u);
  pool.trim();
  EXPECT_EQ(pool.free_buffers(), 0u);
  EXPECT_EQ(pool.free_bytes(), 0u);
  pool.reset_stats();
  EXPECT_EQ(pool.stats().allocations, 0u);
}

TEST(PooledBuffer, RaiiReturnsToPool) {
  BufferPool pool;
  {
    PooledBuffer buf(pool, 512);
    EXPECT_EQ(buf.size(), 512u);
    EXPECT_NE(buf.data(), nullptr);
  }
  EXPECT_EQ(pool.free_buffers(), 1u);
  EXPECT_EQ(pool.stats().releases, 1u);
  {
    PooledBuffer buf(pool, 512);
    EXPECT_EQ(pool.stats().reuses, 1u);
  }
}

TEST(World, RecvBytesIntoDepositsInCallerStorage) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<double> msg{3.0, 1.0, 4.0};
      comm.send<double>(1, msg);
    } else {
      std::vector<double> dest(3, 0.0);
      comm.recv_bytes_into(0, {reinterpret_cast<std::byte*>(dest.data()),
                               dest.size() * sizeof(double)});
      EXPECT_EQ(dest[0], 3.0);
      EXPECT_EQ(dest[1], 1.0);
      EXPECT_EQ(dest[2], 4.0);
    }
  });
}

TEST(World, RecvBytesIntoRejectsSizeMismatch) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<int> msg{1, 2};
      comm.send<int>(1, msg);
    } else {
      std::vector<std::byte> wrong(3);
      comm.recv_bytes_into(0, wrong);
    }
  }),
               CheckError);
}

TEST(World, SendRecvCycleRecyclesPayloads) {
  // The full ownership cycle: sender leases from the pool, recv_bytes_into
  // returns the payload to the pool, so a warm ping-pong allocates nothing.
  World world(2);
  BufferPool::Stats warm{};
  world.run([&](Comm& comm) {
    std::vector<std::byte> buf(1024);
    const int peer = 1 - comm.rank();
    comm.send_bytes(peer, buf, 0);
    comm.recv_bytes_into(peer, buf, 0);
    comm.barrier();
    if (comm.rank() == 0) world.buffer_pool().reset_stats();
    comm.barrier();
    for (int i = 1; i <= 8; ++i) {
      comm.send_bytes(peer, buf, i);
      comm.recv_bytes_into(peer, buf, i);
    }
    comm.barrier();
    if (comm.rank() == 0) warm = world.buffer_pool().stats();
  });
  EXPECT_EQ(warm.allocations, 0u);
  EXPECT_EQ(warm.reuses, 16u);
}

// ---- cost model --------------------------------------------------------------

TEST(CostModel, MonotonicInBytes) {
  CostModel m(Topology::azure_fig4());
  double prev = 0.0;
  for (double bytes = 1024; bytes <= (1 << 28); bytes *= 4) {
    const double t = m.rvh_allreduce_adasum(bytes, 64);
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(CostModel, SingleRankIsFree) {
  CostModel m(Topology::single_node(1, links::pcie3()));
  EXPECT_EQ(m.ring_allreduce_sum(1 << 20), 0.0);
  EXPECT_EQ(m.rvh_allreduce_adasum(1 << 20, 8), 0.0);
}

TEST(CostModel, AdasumOverheadSmallAtLargeMessages) {
  // Fig. 4's claim: AdasumRVH ≈ NCCL sum for large tensors. The extra dot
  // products and triple-allreduces must cost only a small relative factor.
  CostModel m(Topology::azure_fig4());
  const double bytes = 1 << 28;
  const double sum = m.nccl_allreduce_sum(bytes);
  const double ada = m.rvh_allreduce_adasum(bytes, 64);
  EXPECT_LT(ada / sum, 1.6);
  EXPECT_GT(ada / sum, 0.5);
}

TEST(CostModel, RvhBeatsRingOnLatencyForSmallMessages) {
  CostModel m(Topology::azure_fig4());  // 64 ranks
  const double small = 2048;
  // Ring pays 2(p-1) latencies, RVH only 2 log2(p).
  EXPECT_LT(m.rvh_allreduce_sum(small), m.ring_allreduce_sum(small));
}

TEST(CostModel, HierarchicalBeatsFlatOnClusters) {
  CostModel m(Topology::dgx2(16));  // 256 GPUs
  const double bytes = 64e6;
  EXPECT_LT(m.hierarchical_allreduce_adasum(bytes, 64),
            m.rvh_allreduce_adasum(bytes, 64));
}

TEST(CostModel, TcpSlowerThanInfiniband) {
  CostModel tcp(Topology::tcp_cluster());
  CostModel ib(Topology::cluster(4, 4, links::pcie3(), links::infiniband100()));
  const double bytes = 100e6;
  EXPECT_GT(tcp.ring_allreduce_sum(bytes), ib.ring_allreduce_sum(bytes));
}

// ---- fault tolerance ---------------------------------------------------------

TEST(FaultTolerance, DeadlineRecvTimesOutAndMailboxStaysReusable) {
  // Regression: a bounded receive on a peer that never sends must return
  // a timeout (not hang), and the mailbox must keep working for the real
  // message that arrives afterwards. Watchdog-wrapped so a regression shows
  // up as a test failure, not a hung suite.
  World world(2);
  std::atomic<bool> timed_out{false};
  std::atomic<int> delivered{-1};
  const chaos::WatchdogResult wr = chaos::run_with_watchdog(
      world,
      [&](Comm& comm) {
        if (comm.rank() == 1) {
          // Rank 0 has not sent anything yet on tag 5.
          const std::optional<std::vector<std::byte>> none =
              comm.try_recv_bytes_for(0, std::chrono::milliseconds(30),
                                      /*tag=*/5);
          timed_out.store(!none.has_value());
          comm.barrier();  // now let rank 0 send
          const std::vector<int> got = comm.recv<int>(0, /*tag=*/5);
          delivered.store(got.at(0));
          comm.send<int>(0, std::vector<int>{got.at(0) + 1}, /*tag=*/6);
        } else {
          comm.barrier();
          comm.send<int>(1, std::vector<int>{41}, /*tag=*/5);
          EXPECT_EQ(comm.recv<int>(1, /*tag=*/6).at(0), 42);
        }
      },
      std::chrono::seconds(10));
  ASSERT_FALSE(wr.watchdog_fired);
  ASSERT_FALSE(static_cast<bool>(wr.error));
  EXPECT_TRUE(timed_out.load());
  EXPECT_EQ(delivered.load(), 41);
}

TEST(FaultTolerance, FaultTolerantRecvThrowsCommTimeout) {
  World world(2);
  FaultToleranceOptions ft;
  ft.recv_deadline = std::chrono::milliseconds(20);
  world.enable_fault_tolerance(ft);
  std::atomic<bool> caught{false};
  world.run([&](Comm& comm) {
    if (comm.rank() == 1) {
      try {
        comm.recv_bytes(0);  // rank 0 never sends
      } catch (const CommTimeout&) {
        caught.store(true);
      }
    }
    comm.barrier();
  });
  EXPECT_TRUE(caught.load());
}

TEST(FaultTolerance, KilledPeerSurfacesAsPeerFailedAndDeadRank) {
  World world(2);
  FaultToleranceOptions ft;
  ft.recv_deadline = std::chrono::milliseconds(200);
  world.enable_fault_tolerance(ft);
  FaultSpec spec;
  spec.kill_rank = 0;
  spec.kill_after_ops = 0;  // dies on its very first comm operation
  world.set_fault_injector(std::make_shared<FaultInjector>(2, spec));
  std::atomic<bool> peer_failed{false};
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, std::vector<int>{1});  // never completes: RankKilled
    } else {
      try {
        comm.recv_bytes(0);
      } catch (const PeerFailed&) {
        peer_failed.store(true);
      }
    }
  });
  EXPECT_TRUE(peer_failed.load());
  EXPECT_EQ(world.dead_ranks(), std::vector<int>{0});
  EXPECT_FALSE(world.alive(0));
  EXPECT_EQ(world.alive_count(), 1);
}

TEST(FaultTolerance, ChecksumDetectsInjectedCorruption) {
  World world(2);
  world.enable_fault_tolerance();
  world.enable_checksums(true);
  FaultSpec spec;
  spec.corrupt_prob = 1.0;  // flip a bit in every message
  auto injector = std::make_shared<FaultInjector>(2, spec);
  world.set_fault_injector(injector);
  std::atomic<bool> detected{false};
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<double>(1, std::vector<double>{3.14, 2.71});
    } else {
      try {
        comm.recv_bytes(0);
      } catch (const CommCorrupt&) {
        detected.store(true);
      }
    }
    comm.barrier();
  });
  EXPECT_TRUE(detected.load());
  EXPECT_EQ(world.corruptions_detected(), 1u);
  EXPECT_EQ(injector->stats().corrupted, 1u);
}

TEST(FaultTolerance, SizeMismatchInFaultTolerantModeIsRecoverable) {
  // recv_bytes_into with the wrong size throws the recoverable CommProtocol
  // (instead of aborting the process) and still returns the payload to the
  // pool — no buffer may leak on the error path.
  World world(2);
  world.enable_fault_tolerance();
  std::atomic<bool> caught{false};
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      const std::vector<std::byte> payload(64);
      comm.send_bytes(1, payload);
    } else {
      std::vector<std::byte> wrong(32);
      try {
        comm.recv_bytes_into(0, wrong);
      } catch (const CommProtocol&) {
        caught.store(true);
      }
    }
    comm.barrier();
  });
  EXPECT_TRUE(caught.load());
  // The mismatched payload went back to the pool, not into the void.
  EXPECT_GE(world.buffer_pool().free_buffers(), 1u);
}

TEST(FaultTolerance, FailedRunReturnsInFlightPayloadsToPool) {
  // The BufferPool leak fix: a run abandoned with undelivered messages must
  // hand every in-flight payload back to the pool so the next run starts
  // with the full recycling set (previously the mailboxes were rebuilt and
  // the buffers silently dropped).
  World world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
                 if (comm.rank() == 0) {
                   for (int i = 0; i < 3; ++i) {
                     const std::vector<std::byte> payload(256);
                     comm.send_bytes(1, payload, /*tag=*/i);
                   }
                   throw std::runtime_error("boom");
                 }
                 // rank 1 never receives; it just waits out the abort.
                 try {
                   comm.recv_bytes(0, /*tag=*/99);
                 } catch (const WorldAborted&) {
                 }
               }),
               std::runtime_error);
  // All three undelivered payloads drained back into the pool.
  EXPECT_GE(world.buffer_pool().free_buffers(), 3u);
  // And the world is immediately reusable with recycled buffers.
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send<int>(1, std::vector<int>{7});
    } else {
      EXPECT_EQ(comm.recv<int>(0).at(0), 7);
    }
  });
}

TEST(FaultTolerance, VoteFailureIsUniformOrOverRanks) {
  World world(4);
  world.enable_fault_tolerance();
  std::atomic<int> true_votes{0};
  std::atomic<int> false_votes{0};
  world.run([&](Comm& comm) {
    // One dissenter is enough to flip everyone.
    if (comm.vote_failure(comm.rank() == 2)) true_votes.fetch_add(1);
    // Unanimous all-clear stays all-clear.
    if (!comm.vote_failure(false)) false_votes.fetch_add(1);
  });
  EXPECT_EQ(true_votes.load(), 4);
  EXPECT_EQ(false_votes.load(), 4);
}

TEST(FaultTolerance, RecoveryEnrollAgreesOnSortedAliveGroup) {
  World world(4);
  world.enable_fault_tolerance();
  std::mutex mutex;
  std::vector<std::vector<int>> groups;
  world.run([&](Comm& comm) {
    std::vector<int> group;
    comm.recovery_enroll(group);
    std::lock_guard<std::mutex> lock(mutex);
    groups.push_back(std::move(group));
  });
  ASSERT_EQ(groups.size(), 4u);
  const std::vector<int> expected{0, 1, 2, 3};
  for (const std::vector<int>& g : groups) EXPECT_EQ(g, expected);
}

TEST(CostModel, UnchunkedPipelinedPriceIsExactlyMonolithic) {
  // chunk_bytes() == 0 must price the pipelined schedule with the very same
  // expression as the monolithic one: equal to the last bit, not to a
  // tolerance, on flat, hierarchical, folding (non-power-of-two) and
  // compressed worlds alike.
  CompressionOptions int8;
  int8.mode = CompressionMode::kInt8;
  const Topology worlds[] = {
      Topology::azure_fig4(), Topology::dgx2(16),
      Topology::cluster(3, 4, links::pcie3(), links::infiniband100())};
  for (const Topology& topology : worlds) {
    for (bool compressed : {false, true}) {
      CostModel m(topology);
      if (compressed) m.set_wire_compression(int8);
      ASSERT_EQ(m.chunk_bytes(), 0.0);
      for (int exp = 10; exp <= 28; ++exp) {
        const double bytes = static_cast<double>(std::uint64_t{1} << exp);
        for (int layers : {1, 64, 391}) {
          EXPECT_EQ(m.rvh_allreduce_adasum_pipelined(bytes, layers),
                    m.rvh_allreduce_adasum(bytes, layers))
              << "gpus=" << topology.total_gpus() << " compressed="
              << compressed << " bytes=2^" << exp << " layers=" << layers;
        }
      }
    }
  }
}

TEST(CostModel, RingAdasumSlowerThanRvhAdasum) {
  // §4.2.3: the linear/ring application gave less throughput than AdasumRVH.
  CostModel m(Topology::azure_fig4());
  for (double bytes : {1 << 16, 1 << 22, 1 << 28}) {
    EXPECT_GT(m.ring_allreduce_adasum(bytes, 64),
              m.rvh_allreduce_adasum(bytes, 64));
  }
}

}  // namespace
}  // namespace adasum
