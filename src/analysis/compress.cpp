#include "analysis/compress.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace xl::analysis {

namespace {

constexpr std::size_t kBlockHeaderBytes = 4 * sizeof(double);  // a, b, rmin, step

std::size_t block_payload_bytes(std::size_t n, int bits) {
  return (n * static_cast<std::size_t>(bits) + 7) / 8;
}

void store_double(std::uint8_t* dst, double v) {
  std::memcpy(dst, &v, sizeof(double));
}

double read_double(const std::uint8_t*& p) {
  double v;
  std::memcpy(&v, p, sizeof(double));
  p += sizeof(double);
  return v;
}

/// Least-squares linear fit v ~ a + b*i over the block.
void linear_fit(const double* v, std::size_t n, double& a, double& b) {
  if (n == 1) {
    a = v[0];
    b = 0.0;
    return;
  }
  double sum_v = 0.0, sum_iv = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum_v += v[i];
    sum_iv += static_cast<double>(i) * v[i];
  }
  const double nn = static_cast<double>(n);
  const double sum_i = nn * (nn - 1.0) / 2.0;
  const double sum_ii = (nn - 1.0) * nn * (2.0 * nn - 1.0) / 6.0;
  const double denom = nn * sum_ii - sum_i * sum_i;
  b = denom != 0.0 ? (nn * sum_iv - sum_i * sum_v) / denom : 0.0;
  a = (sum_v - b * sum_i) / nn;
}

/// Encode one block of `n` values into `dst` (header + zeroed packed bits).
/// `q` and `t` are caller-owned scratch of at least `n` slots.
void encode_block(const double* v, std::size_t n, int bits, std::uint32_t levels,
                  std::vector<std::uint32_t>& q, std::vector<double>& t,
                  std::uint8_t* dst) {
  double a, b;
  linear_fit(v, n, a, b);
  // The residual range is a sequential scalar scan BY CONTRACT: rmin and
  // step are stored in the stream header and byte-compared by the golden
  // tests, and a lane-parallel min could legally resolve a ±0.0 tie to the
  // other sign bit. (The entropy scan has no such byte-visible artifact.)
  double rmin = 0.0, rmax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double r = v[i] - (a + b * static_cast<double>(i));
    rmin = i == 0 ? r : std::min(rmin, r);
    rmax = i == 0 ? r : std::max(rmax, r);
  }
  const double step = rmax > rmin ? (rmax - rmin) / levels : 0.0;
  store_double(dst + 0 * sizeof(double), a);
  store_double(dst + 1 * sizeof(double), b);
  store_double(dst + 2 * sizeof(double), rmin);
  store_double(dst + 3 * sizeof(double), step);
  // Stage the scaled residuals (v - (a + b*i) - rmin) / step in one
  // elementwise loop. The index is an int (a block holds at most INT_MAX
  // values): GCC vectorizes int-to-double conversion but not size_t's, and
  // both are exact, so t[i] is bit-identical to the scalar expression.
  if (step > 0.0) {
    for (int i = 0; i < static_cast<int>(n); ++i) {
      const double r = v[i] - (a + b * i);
      t[i] = (r - rmin) / step;
    }
  }
  // Quantize: lround's half-away-from-zero rounding has no exact vector
  // equivalent (floor(x + 0.5) differs one ulp below .5 boundaries), so the
  // cast stays scalar on the staged values.
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = step > 0.0
               // xl-lint: allow(float-cast): lround of a value in [0, levels] by
               // construction; the clamp below catches rounding spill.
               ? static_cast<std::uint32_t>(std::lround(t[i]))
               : 0u;
    if (q[i] > levels) q[i] = levels;
  }
  // Bit-pack word-wise: append each value LSB-first into a 64-bit
  // accumulator and flush whole bytes — the same little-endian-in-byte bit
  // order as the seed per-bit loop (bit `bit` of value i lands at stream bit
  // i*bits + bit), at ~one store per 8 bits instead of one test per bit.
  // bits <= 16 and we flush below 8 pending bits, so acc never overflows.
  std::uint8_t* packed = dst + kBlockHeaderBytes;
  std::uint64_t acc = 0;
  unsigned pending = 0;
  for (std::size_t i = 0; i < n; ++i) {
    acc |= static_cast<std::uint64_t>(q[i]) << pending;
    pending += static_cast<unsigned>(bits);
    while (pending >= 8) {
      *packed++ = static_cast<std::uint8_t>(acc);
      acc >>= 8;
      pending -= 8;
    }
  }
  if (pending > 0) *packed = static_cast<std::uint8_t>(acc);
}

void validate(const CompressConfig& config) {
  XL_REQUIRE(config.residual_bits >= 1 && config.residual_bits <= 16,
             "residual bits must be in [1,16]");
  XL_REQUIRE(config.block >= 2, "compression block must hold at least 2 values");
}

}  // namespace

CompressedField compress(const mesh::Fab& fab, const CompressConfig& config) {
  validate(config);
  CompressedField out;
  out.config = config;
  out.box = fab.box();
  out.ncomp = fab.ncomp();

  const std::span<const double> data = fab.flat();
  const auto levels = (1u << config.residual_bits) - 1u;
  const auto block = static_cast<std::size_t>(config.block);
  const std::size_t nblocks = (data.size() + block - 1) / block;
  // Every block's output size is known up front (only the tail block is
  // shorter), so blocks encode in parallel into disjoint payload slices —
  // the stream is byte-identical for any thread count.
  const std::size_t full_bytes =
      kBlockHeaderBytes + block_payload_bytes(block, config.residual_bits);
  const std::size_t tail_n = data.size() - (nblocks - 1) * block;
  out.payload.resize((nblocks - 1) * full_bytes + kBlockHeaderBytes +
                         block_payload_bytes(tail_n, config.residual_bits),
                     0);

  parallel_for(ThreadPool::global(), 0, nblocks,
               [&](std::size_t blo, std::size_t bhi) {
    // Quantizer scratch: one allocation per task-group chunk, reused across
    // every block the chunk encodes. encode_block fully writes q[0..n) and
    // t[0..n) before reading, so one block's values never leak into the next.
    std::vector<std::uint32_t> q(block);
    std::vector<double> t(block);
    for (std::size_t b = blo; b < bhi; ++b) {
      const std::size_t n = b + 1 == nblocks ? tail_n : block;
      encode_block(data.data() + b * block, n, config.residual_bits, levels,
                   q, t, out.payload.data() + b * full_bytes);
    }
  });
  return out;
}

mesh::Fab decompress(const CompressedField& field) {
  validate(field.config);
  mesh::Fab out(field.box, field.ncomp);
  std::span<double> data = out.flat();

  const auto block = static_cast<std::size_t>(field.config.block);
  const int bits = field.config.residual_bits;
  const std::size_t nblocks = (data.size() + block - 1) / block;
  const std::size_t full_bytes = kBlockHeaderBytes + block_payload_bytes(block, bits);
  const std::size_t tail_n = data.size() - (nblocks - 1) * block;
  XL_REQUIRE(field.payload.size() == (nblocks - 1) * full_bytes +
                                         kBlockHeaderBytes +
                                         block_payload_bytes(tail_n, bits),
             "compressed stream size does not match its header geometry");

  parallel_for(ThreadPool::global(), 0, nblocks,
               [&](std::size_t blo, std::size_t bhi) {
    const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
    std::vector<std::uint32_t> q(block);
    for (std::size_t b = blo; b < bhi; ++b) {
      const std::size_t n = b + 1 == nblocks ? tail_n : block;
      const std::uint8_t* p = field.payload.data() + b * full_bytes;
      const double a = read_double(p);
      const double bb = read_double(p);
      const double rmin = read_double(p);
      const double step = read_double(p);
      const std::size_t start = b * block;
      // Unpack word-wise (mirror of encode_block's packer): bytes refill a
      // 64-bit accumulator, each value is the next `bits` LSBs.
      std::uint64_t acc = 0;
      unsigned pending = 0;
      for (std::size_t i = 0; i < n; ++i) {
        while (pending < static_cast<unsigned>(bits)) {
          acc |= static_cast<std::uint64_t>(*p++) << pending;
          pending += 8;
        }
        q[i] = static_cast<std::uint32_t>(acc & mask);
        acc >>= bits;
        pending -= static_cast<unsigned>(bits);
      }
      // Reconstruct elementwise: ((a + bb*i) + rmin) + step*q, two rounded
      // operations per product-sum (-ffp-contract=off, no FMA). An int index
      // for the same reason as encode_block's.
      for (int i = 0; i < static_cast<int>(n); ++i) {
        data[start + i] = a + bb * i + rmin + step * q[i];
      }
    }
  });
  return out;
}

}  // namespace xl::analysis
