// Allocation-churn benchmark for the pooled zero-copy payload path.
//
// Drives the REAL data path of one coupled step — source Fab fill, pack /
// unpack ghost exchange through reused scratch, staging put, and two
// analysis consumers reading the staged payload — on the fig-8 base domain,
// and counts what the allocator sees:
//
//   before:  pool disabled, deep-copy semantics (payload copied into the
//            staging space, each consumer handed its own copy) — the data
//            path as it was prior to the BufferPool/shared_ptr rework.
//   after:   pool enabled, zero-copy semantics (source Fab moved into a
//            shared immutable payload, consumers read it in place).
//
// Reported per steady-state step (warm-up excluded): heap allocations, heap
// bytes, and payload bytes deep-copied (from the BufferPool copy tap). The
// two phases compute a checksum over identical values; the bench aborts if
// they differ, so the numbers always come from bit-identical work.
//
// --quick   smaller domain / fewer steps (CI smoke job)
// --json F  write the report as JSON to file F
// --check   exit non-zero unless the pooled phase meets the compiled-in
//           thresholds (allocations/step and copied-bytes reduction)
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/buffer_pool.hpp"
#include "mesh/box.hpp"
#include "mesh/fab.hpp"
#include "report.hpp"
#include "staging/space.hpp"

namespace {

// ---------------------------------------------------------------------------
// Global allocation counters. Counting only — every path still defers to the
// default operator new/delete, so behavior is unchanged.
// ---------------------------------------------------------------------------
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

}  // namespace

// The replacements stay out of line: once one side is inlined, GCC's
// -Wmismatched-new-delete pairs malloc/free with the other side's
// operator new/delete and warns, although both sides use malloc/free.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace xl;

// Pooled steady state must not heap-allocate payload storage; the residual
// per-step allocations are bookkeeping (shared_ptr control block, staging
// index node, query result vector). CI fails the smoke job above this.
constexpr double kMaxAllocsPerStepAfter = 16.0;
// The shared payload path must at least halve the deep-copied bytes.
constexpr double kMinCopiedReduction = 0.5;

constexpr int kWarmupSteps = 3;

struct PhaseReport {
  double allocs_per_step = 0.0;
  double alloc_bytes_per_step = 0.0;
  double copied_bytes_per_step = 0.0;
  double checksum = 0.0;
};

double consume(const mesh::Fab& fab) {
  double sum = 0.0;
  for (double v : fab.flat()) sum += v;
  return sum;
}

/// One coupled step on the real data path. `deep_copy` selects the
/// pre-rework semantics: payload copied into staging, each consumer handed
/// its own copy of the staged Fab.
double run_step(staging::StagingSpace& space, const mesh::Box& domain, int step,
                bool deep_copy, std::vector<double>& scratch, mesh::Fab& ghost) {
  mesh::Fab src(domain, 1);
  std::span<double> cells = src.flat();
  for (std::size_t i = 0; i < cells.size(); ++i) {
    cells[i] = 0.25 * static_cast<double>(step + 1) +
               1.0 / static_cast<double>(i % 97 + 1);
  }

  // Ghost exchange: pack into reused scratch, unpack into the persistent
  // ghost Fab (the plotfile / transport hop of the step).
  src.pack_into(domain, scratch);
  ghost.unpack(domain, scratch);

  // Hand the payload to staging: deep copy (before) vs move (after).
  std::shared_ptr<const mesh::Fab> staged =
      deep_copy ? std::make_shared<const mesh::Fab>(src)
                : std::make_shared<const mesh::Fab>(std::move(src));
  const std::size_t bytes = staged->bytes();
  space.put(step, domain, 1, bytes, std::move(staged));

  const auto hits = space.query(step, domain);
  double checksum = 0.0;
  for (const staging::StagedObject* obj : hits) {
    // Two in-transit consumers of the same staged payload. The old value
    // semantics handed each its own deep copy; shared ownership lets both
    // read the one buffer.
    for (int consumer = 0; consumer < 2; ++consumer) {
      if (deep_copy) {
        mesh::Fab private_copy(*obj->payload);
        checksum += consume(private_copy);
      } else {
        checksum += consume(*obj->payload);
      }
    }
  }
  space.erase_version(step);  // analysis done: payload refcount drops to zero
  return checksum + consume(ghost);
}

PhaseReport run_phase(const mesh::Box& domain, int steps, bool deep_copy) {
  BufferPool& pool = BufferPool::global();
  pool.clear();
  pool.set_enabled(!deep_copy);

  staging::StagingSpace space(/*num_servers=*/4,
                              /*memory_per_server=*/std::size_t{1} << 30);
  std::vector<double> scratch;
  mesh::Fab ghost(domain, 1);
  PhaseReport report;

  for (int step = 0; step < kWarmupSteps; ++step) {
    report.checksum += run_step(space, domain, step, deep_copy, scratch, ghost);
  }

  const std::uint64_t alloc_count0 = g_alloc_count.load(std::memory_order_relaxed);
  const std::uint64_t alloc_bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
  const std::uint64_t copied0 = pool.stats().copied_bytes;

  for (int step = kWarmupSteps; step < kWarmupSteps + steps; ++step) {
    report.checksum += run_step(space, domain, step, deep_copy, scratch, ghost);
  }

  const double n = static_cast<double>(steps);
  report.allocs_per_step =
      static_cast<double>(g_alloc_count.load(std::memory_order_relaxed) - alloc_count0) / n;
  report.alloc_bytes_per_step =
      static_cast<double>(g_alloc_bytes.load(std::memory_order_relaxed) - alloc_bytes0) / n;
  report.copied_bytes_per_step =
      static_cast<double>(pool.stats().copied_bytes - copied0) / n;

  pool.release(std::move(scratch));
  pool.set_enabled(true);
  return report;
}

void print_phase(const char* name, const PhaseReport& r) {
  std::printf("%-8s allocs/step %10.1f   alloc MB/step %9.3f   copied MB/step %9.3f\n",
              name, r.allocs_per_step, r.alloc_bytes_per_step / 1e6,
              r.copied_bytes_per_step / 1e6);
}

bench::Record phase_record(const char* name, const PhaseReport& r) {
  return bench::Record()
      .set("phase", name)
      .set("allocs_per_step", r.allocs_per_step)
      .set("alloc_bytes_per_step", r.alloc_bytes_per_step)
      .set("copied_bytes_per_step", r.copied_bytes_per_step);
}

}  // namespace

int main(int argc, char** argv) {
  const auto flags = bench::parse_gate_flags(argc, argv, "bench_alloc_churn");
  if (!flags) return 2;
  const bool quick = flags->quick;
  bench::Report report("alloc_churn", *flags);

  // Fig-8 base domain (2K-core Titan scale); quick mode shrinks it for CI.
  const mesh::Box domain = quick ? mesh::Box::domain({64, 32, 32})
                                 : mesh::Box::domain({128, 64, 64});
  const int steps = quick ? 6 : 12;

  const PhaseReport before = run_phase(domain, steps, /*deep_copy=*/true);
  const PhaseReport after = run_phase(domain, steps, /*deep_copy=*/false);
  const bool identical = before.checksum == after.checksum;

  const double alloc_reduction =
      before.allocs_per_step > 0.0
          ? 1.0 - after.allocs_per_step / before.allocs_per_step
          : 0.0;
  const double copied_reduction =
      before.copied_bytes_per_step > 0.0
          ? 1.0 - after.copied_bytes_per_step / before.copied_bytes_per_step
          : 0.0;

  std::printf("=== alloc churn: %d steps (+%d warm-up), domain %d x %d x %d ===\n",
              steps, kWarmupSteps, domain.size()[0], domain.size()[1],
              domain.size()[2]);
  print_phase("before", before);
  print_phase("after", after);
  std::printf("reduction: allocs %.1f%%   copied bytes %.1f%%   (values %s)\n",
              100.0 * alloc_reduction, 100.0 * copied_reduction,
              identical ? "bit-identical" : "DIFFER");

  report.set("nx", domain.size()[0])
      .set("ny", domain.size()[1])
      .set("nz", domain.size()[2])
      .set("steps", steps)
      .set("alloc_reduction", alloc_reduction)
      .set("copied_reduction", copied_reduction)
      .set("max_allocs_per_step_after", kMaxAllocsPerStepAfter)
      .set("min_copied_reduction", kMinCopiedReduction);
  report.add("phases", phase_record("before", before));
  report.add("phases", phase_record("after", after));

  report.invariant("values_identical", identical,
                   bench::strprintf("pooled phase changed values (checksum %g vs %g)",
                                    after.checksum, before.checksum));
  report.threshold("allocs_per_step_after",
                   after.allocs_per_step <= kMaxAllocsPerStepAfter,
                   bench::strprintf("pooled steady state allocates %g per step "
                                    "(threshold %g)",
                                    after.allocs_per_step, kMaxAllocsPerStepAfter));
  report.threshold("copied_reduction", copied_reduction >= kMinCopiedReduction,
                   bench::strprintf("copied-bytes reduction %g below threshold %g",
                                    copied_reduction, kMinCopiedReduction));
  return report.finish(bench::strprintf(
      "allocs/step %.1f <= %.0f, copied reduction %.0f%% >= %.0f%%",
      after.allocs_per_step, kMaxAllocsPerStepAfter, 100.0 * copied_reduction,
      100.0 * kMinCopiedReduction));
}
