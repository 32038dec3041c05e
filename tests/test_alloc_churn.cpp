// The zero-copy staging step (DESIGN.md §3.5) as the allocator sees it: fill
// a Fab, send it through a pack/unpack ghost hop, put it into the staging
// space, read it from two consumers and erase it. Once warm, the step's one
// payload allocation is the producer's Fab: the put, the query and both
// consumers share its buffer. Also: a plotfile read rejects a payload its
// stream lacks before allocating it.
//
// A test executable of its own: the counting global operator new below sees
// every allocation in the process.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "amr/plotfile.hpp"
#include "common/error.hpp"
#include "mesh/box.hpp"
#include "mesh/fab.hpp"
#include "plotfile_bytes.hpp"
#include "staging/space.hpp"

namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

}  // namespace

// Counting only: every replacement defers to malloc/free. They stay out of
// line: once one side is inlined, GCC's -Wmismatched-new-delete pairs
// malloc/free with the other side's operator new/delete and warns.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) { return ::operator new(size); }
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xl {
namespace {

/// What step `step` writes into cell `i`.
double written(int step, std::size_t i) {
  return 0.25 * static_cast<double>(step + 1) + 1.0 / static_cast<double>(i % 97 + 1);
}

double sum(std::span<const double> values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

TEST(ZeroCopyStep, StagingPathAllocatesAndCopiesNoPayload) {
  constexpr int kWarmupSteps = 3;
  constexpr int kSteadySteps = 12;
  // The Fig. 8 base domain at 2K Titan cores.
  const mesh::Box domain = mesh::Box::domain({128, 64, 64});
  staging::StagingSpace space(/*num_servers=*/4, /*memory_per_server=*/std::size_t{1} << 30);
  std::vector<double> scratch;
  mesh::Fab ghost(domain, 1);
  const std::size_t payload_bytes = ghost.bytes();

  for (int step = 0; step < kWarmupSteps + kSteadySteps; ++step) {
    const std::uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
    const std::uint64_t heap_bytes_before = g_alloc_bytes.load(std::memory_order_relaxed);

    mesh::Fab src(domain, 1);
    const std::span<double> cells = src.flat();
    for (std::size_t i = 0; i < cells.size(); ++i) cells[i] = written(step, i);
    src.pack_into(domain, scratch);
    ghost.unpack(domain, scratch);
    const double* produced = src.flat().data();
    space.put(step, domain, 1, payload_bytes, std::make_shared<const mesh::Fab>(std::move(src)));
    const double* staged = nullptr;
    double consumed[2] = {0.0, 0.0};
    for (const staging::StagedObject* obj : space.query(step, domain)) {
      staged = obj->payload->flat().data();
      for (double& consumer : consumed) consumer += sum(obj->payload->flat());
    }
    space.erase_version(step);

    const std::uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
    const std::uint64_t heap_bytes =
        g_alloc_bytes.load(std::memory_order_relaxed) - heap_bytes_before;
    if (step < kWarmupSteps) continue;

    SCOPED_TRACE(testing::Message() << "step " << step);
    // The producer's fill, plus bookkeeping: the shared_ptr control block, the
    // staging index entries and the query result.
    EXPECT_LE(allocs, 17u);
    // The fill is the one payload-sized allocation: the ghost hop reuses its
    // buffers, and the put, the query and both consumers allocate none.
    EXPECT_GE(heap_bytes, payload_bytes);
    EXPECT_LT(heap_bytes, 2 * payload_bytes);
    EXPECT_EQ(staged, produced);
    double expected = 0.0;
    for (std::size_t i = 0; i < ghost.flat().size(); ++i) expected += written(step, i);
    EXPECT_EQ(sum(ghost.flat()), expected);
    EXPECT_EQ(consumed[0], expected);
    EXPECT_EQ(consumed[1], expected);
  }
}

TEST(Plotfile, RejectsAMissingPayloadBeforeAllocatingIt) {
  const mesh::Box box = mesh::Box::domain({128, 128, 128});
  std::stringstream is(plotfile_bytes::header_claiming(box), std::ios::in | std::ios::binary);
  const std::uint64_t heap_bytes_before = g_alloc_bytes.load(std::memory_order_relaxed);
  try {
    (void)amr::read_plotfile(is);
    ADD_FAILURE() << "a 128^3 box without its payload was accepted";
  } catch (const ContractError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("level 0 box 0"), std::string::npos) << what;
    EXPECT_NE(what.find("missing 16777216 payload bytes"), std::string::npos) << what;
  }
  const std::uint64_t heap_bytes =
      g_alloc_bytes.load(std::memory_order_relaxed) - heap_bytes_before;
  EXPECT_LT(heap_bytes, std::uint64_t{16777216});
}

}  // namespace
}  // namespace xl
