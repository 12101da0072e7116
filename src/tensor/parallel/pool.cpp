#include "tensor/parallel/pool.h"

#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace adasum::parallel {
namespace {

// The process-wide pool. All job-descriptor fields are written by the
// submitter under `m` before the epoch bump and read by helpers under `m`
// while they commit to the epoch, so they need no atomics. `fn` is null
// between jobs, which is how a helper that wakes late tells a finished
// epoch from a live one.
struct Pool {
  sync::mutex m;
  sync::condition_variable wake;  // helpers sleep here between jobs
  sync::condition_variable idle;  // submitter waits here for stragglers

  // Guarded by m -----------------------------------------------------------
  std::uint64_t epoch = 0;   // bumped once per job
  Tiling tiling;             // current job
  TileFn fn = nullptr;       // null once the job has finished
  void* ctx = nullptr;
  int committed = 0;         // helpers inside the current job's claim loop
  bool shutdown = false;
  int helpers_spawned = 0;
  // ------------------------------------------------------------------------

  // Claim/progress counters for the in-flight job. next_tile hands out tile
  // indices; done_tiles counts completed tiles. The submitter resets both
  // under m before the epoch bump, and waits for committed == 0 before
  // returning, so a reset can never race a straggler's claim loop.
  sync::atomic<std::size_t> next_tile{0};
  sync::atomic<std::size_t> done_tiles{0};

  // One job at a time: a caller that loses this try_lock runs serially.
  sync::mutex job;

  // Current budget incl. caller (0 = off). Atomic so the per-call threads()
  // read stays lock-free on the kernel hot path.
  sync::atomic<int> workers{0};
  bool oversubscribed = false;  // written in apply(), read under `job`
  std::vector<sync::thread> threads;

  ~Pool() { stop_helpers(); }

  void stop_helpers() {
    {
      sync::unique_lock<sync::mutex> lk(m);
      if (helpers_spawned == 0) return;
      shutdown = true;
    }
    wake.notify_all();
    for (auto& t : threads) t.join();
    threads.clear();
    {
      sync::unique_lock<sync::mutex> lk(m);
      shutdown = false;
      helpers_spawned = 0;
    }
  }
};

void run_tiles(const Tiling& t, TileFn fn, void* ctx,
               sync::atomic<std::size_t>& next,
               sync::atomic<std::size_t>& done) {
  for (;;) {
    const std::size_t tile = next.fetch_add(1, std::memory_order_acq_rel);
    if (tile >= t.count) return;
    const std::size_t b = t.begin(tile);
    const std::size_t e = t.end(tile);
    if (e > b) fn(ctx, tile, b, e);
    // release: the tile's output writes happen-before any observer of the
    // completed count.
    done.fetch_add(1, std::memory_order_release);
  }
}

void helper_main(Pool* p) {
  std::uint64_t seen = 0;
  for (;;) {
    Tiling t;
    TileFn fn = nullptr;
    void* ctx = nullptr;
    {
      sync::unique_lock<sync::mutex> lk(p->m);
      p->wake.wait(lk, [&] { return p->shutdown || p->epoch != seen; });
      if (p->shutdown) return;
      seen = p->epoch;
      // Woke only after the job had finished (the submitter cleared it):
      // committing now would run that dead job's fn/ctx against the next
      // job's reset next_tile. Sleep until the next epoch instead.
      if (p->fn == nullptr) continue;
      t = p->tiling;
      fn = p->fn;
      ctx = p->ctx;
      ++p->committed;  // the submitter cannot return until we drop this
    }
    run_tiles(t, fn, ctx, p->next_tile, p->done_tiles);
    bool last = false;
    {
      sync::unique_lock<sync::mutex> lk(p->m);
      last = --p->committed == 0;
    }
    if (last) p->idle.notify_one();
  }
}

Pool& pool() {
  static Pool p;
  return p;
}

int clamp_workers(long v) {
  if (v < 0) return 0;
  if (v > kMaxThreads) return kMaxThreads;
  return static_cast<int>(v);
}

const char* g_env_setting = "off";

int resolve_env() {
  const char* env = std::getenv("ADASUM_THREADS");
  if (env == nullptr || env[0] == '\0') return 0;
  g_env_setting = env;
  const std::string v(env);
  if (v == "off" || v == "0") return 0;
  if (v == "auto") {
    const unsigned hc = std::thread::hardware_concurrency();
    return clamp_workers(hc == 0 ? 1 : static_cast<long>(hc));
  }
  char* end = nullptr;
  const long n = std::strtol(env, &end, 10);
  if (end == env || *end != '\0' || n < 0) return 0;  // unparsable -> off
  return clamp_workers(n);
}

// Applies a worker budget: joins any existing helpers (they respawn lazily
// on the next submitted job). Takes the job mutex so an in-flight
// parallel_for finishes against the old pool first.
void apply(int workers) {
  Pool& p = pool();
  sync::lock_guard<sync::mutex> job_lk(p.job);
  const int n = clamp_workers(workers);
  if (p.workers.load(std::memory_order_acquire) == n) return;
  p.stop_helpers();
  const unsigned hc = std::thread::hardware_concurrency();
  p.oversubscribed = hc != 0 && static_cast<int>(hc) < n;
  p.workers.store(n, std::memory_order_release);
}

// ADASUM_THREADS is resolved exactly once, before the first read of the
// budget — including a read from inside configure(), so a programmatic
// configure() always wins over the environment regardless of call order.
void resolve_once() {
  static const bool resolved = [] {
    apply(resolve_env());
    return true;
  }();
  (void)resolved;
}

// Helpers are spawned lazily on the first submitted job, not at resolution:
// ADASUM_THREADS=auto with no parallel work must stay thread-free, and the
// one-time spawn allocation lands before any steady-state window a bench
// measures (benches run a warm-up step before arming the heap hook).
void ensure_helpers(Pool& p) {
  const int want = p.workers.load(std::memory_order_acquire) - 1;
  sync::unique_lock<sync::mutex> lk(p.m);
  if (p.helpers_spawned >= want) return;
  if (p.threads.capacity() < static_cast<std::size_t>(want)) {
    p.threads.reserve(static_cast<std::size_t>(want));
  }
  for (int i = p.helpers_spawned; i < want; ++i) {
    p.threads.emplace_back([&p] { helper_main(&p); });
  }
  p.helpers_spawned = want;
}

// Completion-wait spin budget, oversubscription-aware like the shm
// transport's progress spin: on a box with fewer cores than workers the
// helpers need the caller's core, so burn almost no cycles before yielding
// into the condition variable.
constexpr int kSpinIters = 2048;
constexpr int kOversubscribedSpinIters = 16;

}  // namespace

int threads() {
  resolve_once();
  return pool().workers.load(std::memory_order_acquire);
}

const char* env_setting() {
  resolve_once();
  return g_env_setting;
}

void configure(int workers) {
  resolve_once();
  apply(workers);
}

void parallel_for(const Tiling& t, TileFn fn, void* ctx) {
  Pool& p = pool();
  const int workers = threads();
  const bool serial_only = workers <= 1 || t.count <= 1
#if ADASUM_VERIFY
                           // Under a model-check runtime, pool helpers would
                           // register with a Runtime that dies before this
                           // process-wide pool — run the tiles in place.
                           || verify::current() != nullptr
#endif
      ;
  // Serial path: same decomposition, ascending order — bit-identical to the
  // pooled path by the quantum contract, so every fallback below is safe.
  if (serial_only || !p.job.try_lock()) {
    for (std::size_t tile = 0; tile < t.count; ++tile) {
      const std::size_t b = t.begin(tile);
      const std::size_t e = t.end(tile);
      if (e > b) fn(ctx, tile, b, e);
    }
    return;
  }
  ensure_helpers(p);
  {
    sync::unique_lock<sync::mutex> lk(p.m);
    p.tiling = t;
    p.fn = fn;
    p.ctx = ctx;
    // relaxed: both counters are republished by the epoch bump below — the
    // mutex release orders them before any helper's committed read, and no
    // thread touches them between jobs (committed == 0 was awaited).
    p.next_tile.store(0, std::memory_order_relaxed);
    p.done_tiles.store(0, std::memory_order_relaxed);
    ++p.epoch;
  }
  p.wake.notify_all();
  run_tiles(t, fn, ctx, p.next_tile, p.done_tiles);
  // Fast path: the caller usually finishes the last tile itself; spin a
  // bounded budget on the progress counter before falling back to the cv.
  const int budget =
      sync::spin_budget(p.oversubscribed ? kOversubscribedSpinIters : kSpinIters);
  for (int i = 0; i < budget; ++i) {
    if (p.done_tiles.load(std::memory_order_acquire) >= t.count) break;
    if (p.oversubscribed) {
      sync::spin_yield();
    } else {
      sync::cpu_relax();
    }
  }
  {
    // Stragglers may still sit between their last claim and committed--;
    // wait them out so the next job's counter reset cannot race their claim
    // loop.
    sync::unique_lock<sync::mutex> lk(p.m);
    p.idle.wait(lk, [&] {
      return p.committed == 0 &&
             p.done_tiles.load(std::memory_order_acquire) >= t.count;
    });
    // Retire the job: a helper that wakes for this epoch from here on finds
    // nothing to commit to.
    p.fn = nullptr;
    p.ctx = nullptr;
  }
  p.job.unlock();
}

}  // namespace adasum::parallel
