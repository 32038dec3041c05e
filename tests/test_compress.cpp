// Tests for the fixed-rate lossy compressor (the application layer's second
// reduction operator): round-trip bounds, rate model exactness, degenerate
// inputs, and the bit-width/quality trade-off.
#include <algorithm>
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/compress.hpp"
#include "analysis/statistics.hpp"
#include "common/rng.hpp"

namespace xl::analysis {
namespace {

using mesh::Box;
using mesh::BoxIterator;
using mesh::Fab;

/// The rate model: the exact stream size of `cells` x `ncomp` doubles at
/// `config`, whatever their values. Each block stores four header doubles (a,
/// b, rmin, step) and its residuals packed at residual_bits each.
std::size_t compressed_bytes(std::size_t cells, int ncomp, const CompressConfig& config) {
  const auto block_bytes = [&config](std::size_t n) {
    return 4 * sizeof(double) + (n * static_cast<std::size_t>(config.residual_bits) + 7) / 8;
  };
  const std::size_t values = cells * static_cast<std::size_t>(ncomp);
  const auto block = static_cast<std::size_t>(config.block);
  std::size_t bytes = values / block * block_bytes(block);
  if (values % block > 0) bytes += block_bytes(values % block);
  return bytes + sizeof(CompressConfig) + sizeof(mesh::Box) + sizeof(int);
}

/// The error bound: half a quantization step of a block whose residual range
/// (after the linear predictor) is `residual_range`.
double max_error_for_range(double residual_range, const CompressConfig& config) {
  const auto levels = (1u << config.residual_bits) - 1u;
  return residual_range > 0.0 ? 0.5 * residual_range / levels : 0.0;
}

Fab smooth_field(int n) {
  Fab f(Box::domain({n, n, n}), 1);
  for (BoxIterator it(f.box()); it.ok(); ++it) {
    f(*it) = std::sin(0.3 * (*it)[0]) + 0.5 * std::cos(0.2 * (*it)[1]) +
             0.1 * (*it)[2];
  }
  return f;
}

TEST(Compress, RoundTripPreservesBoxAndComponents) {
  Fab f(Box::cube({2, 3, 4}, 8), 3, 1.5);
  const CompressedField c = compress(f);
  const Fab out = decompress(c);
  EXPECT_EQ(out.box(), f.box());
  EXPECT_EQ(out.ncomp(), 3);
}

TEST(Compress, ConstantFieldIsExact) {
  Fab f(Box::domain({8, 8, 8}), 2, 42.5);
  const Fab out = decompress(compress(f));
  for (BoxIterator it(f.box()); it.ok(); ++it) {
    EXPECT_DOUBLE_EQ(out(*it, 0), 42.5);
    EXPECT_DOUBLE_EQ(out(*it, 1), 42.5);
  }
}

TEST(Compress, LinearStreamIsExact) {
  // A field linear in the flattened (Fortran-order) stream has zero residual
  // under the per-block linear predictor: reconstruction is exact.
  Fab f(Box::domain({16, 4, 4}), 1);
  auto flat = f.flat();
  for (std::size_t i = 0; i < flat.size(); ++i) {
    flat[i] = 3.0 * static_cast<double>(i) + 1.0;
  }
  const Fab out = decompress(compress(f));
  auto out_flat = out.flat();
  for (std::size_t i = 0; i < out_flat.size(); ++i) {
    EXPECT_NEAR(out_flat[i], flat[i], 1e-9);
  }
}

class CompressBitsTest : public ::testing::TestWithParam<int> {};

TEST_P(CompressBitsTest, ErrorBoundedByQuantizationStep) {
  CompressConfig cfg;
  cfg.residual_bits = GetParam();
  const Fab f = smooth_field(16);
  const Fab out = decompress(compress(f, cfg));
  // Residual range per block is bounded by the field's variation in a block.
  double worst = 0.0;
  for (BoxIterator it(f.box()); it.ok(); ++it) {
    worst = std::max(worst, std::fabs(out(*it) - f(*it)));
  }
  // Conservative bound: full value range / quantization levels.
  const RunningStats stats = descriptive_stats(f, f.box());
  const double bound =
      max_error_for_range(stats.max() - stats.min(), cfg) * 2.0 + 1e-12;
  EXPECT_LE(worst, bound);
}

TEST_P(CompressBitsTest, RateModelMatchesActualSize) {
  CompressConfig cfg;
  cfg.residual_bits = GetParam();
  const Fab f = smooth_field(12);  // 1728 cells: exercises a tail block
  const CompressedField c = compress(f, cfg);
  EXPECT_EQ(c.bytes(), compressed_bytes(static_cast<std::size_t>(f.cells()), 1, cfg));
}

INSTANTIATE_TEST_SUITE_P(Bits, CompressBitsTest, ::testing::Values(4, 8, 12, 16));

TEST(Compress, MoreBitsLessError) {
  const Fab f = smooth_field(16);
  double prev = 1e300;
  for (int bits : {2, 6, 10, 14}) {
    CompressConfig cfg;
    cfg.residual_bits = bits;
    const double err = rmse(f, decompress(compress(f, cfg)));
    EXPECT_LT(err, prev);
    prev = err;
  }
}

TEST(Compress, CompressionActuallyCompresses) {
  CompressConfig cfg;
  cfg.residual_bits = 8;
  const Fab f = smooth_field(16);
  const CompressedField c = compress(f, cfg);
  // 8 bits residual + headers vs 64-bit doubles: better than 4x.
  EXPECT_LT(c.bytes(), f.bytes() / 4);
}

TEST(Compress, RandomNoiseRoundTripsWithinBound) {
  Rng rng(11);
  Fab f(Box::domain({8, 8, 8}), 1);
  for (BoxIterator it(f.box()); it.ok(); ++it) f(*it) = rng.uniform(-5.0, 5.0);
  CompressConfig cfg;
  cfg.residual_bits = 10;
  const Fab out = decompress(compress(f, cfg));
  for (BoxIterator it(f.box()); it.ok(); ++it) {
    EXPECT_NEAR(out(*it), f(*it), max_error_for_range(10.0, cfg) * 2.0);
  }
}

TEST(Compress, ValidatesConfig) {
  Fab f(Box::cube({0, 0, 0}, 4), 1);
  CompressConfig bad;
  bad.residual_bits = 0;
  EXPECT_THROW(compress(f, bad), ContractError);
  bad.residual_bits = 17;
  EXPECT_THROW(compress(f, bad), ContractError);
  bad.residual_bits = 8;
  bad.block = 1;
  EXPECT_THROW(compress(f, bad), ContractError);
}

TEST(Compress, RejectsTruncatedStream) {
  const Fab f = smooth_field(8);
  CompressedField c = compress(f);
  c.payload.resize(c.payload.size() / 2);
  EXPECT_THROW(decompress(c), ContractError);
}

TEST(Compress, MultiComponentIndependence) {
  Fab f(Box::domain({8, 8, 8}), 2);
  for (BoxIterator it(f.box()); it.ok(); ++it) {
    f(*it, 0) = (*it)[0];
    f(*it, 1) = 100.0 - (*it)[1];
  }
  const Fab out = decompress(compress(f));
  EXPECT_NEAR(out(mesh::IntVect{3, 3, 3}, 0), 3.0, 0.05);
  EXPECT_NEAR(out(mesh::IntVect{3, 3, 3}, 1), 97.0, 0.5);
}

}  // namespace
}  // namespace xl::analysis
