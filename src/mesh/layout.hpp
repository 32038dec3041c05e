// Disjoint box layouts: the set of boxes tiling one AMR level together with
// their rank assignment (Chombo's DisjointBoxLayout + LoadBalance). The one
// balancer walks the boxes in Morton order (locality-preserving, Chombo's
// default); its load imbalance is what drives the paper's Fig. 1 memory
// profile.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/lookup.hpp"
#include "mesh/box.hpp"

namespace xl::mesh {

/// The one balance method. It stays a type, with a defaulted parameter of
/// balance() and a field of SyntheticAmrConfig, only for callers outside the
/// library that still name it.
enum class BalanceMethod { MortonRoundRobin };

class BoxLayout {
 public:
  /// Layouts at or below this box count get a pairwise disjointness check at
  /// construction; larger ones are trusted (they come from decompose() /
  /// berger_rigoutsos(), disjoint by construction).
  static constexpr std::size_t kVerifyDisjointLimit = 512;

  /// No boxes and no ranks.
  BoxLayout();

  /// Boxes must be pairwise disjoint (checked up to kVerifyDisjointLimit) and
  /// each is assigned a rank in [0, nranks).
  BoxLayout(std::vector<Box> boxes, std::vector<int> ranks, int nranks);

  /// A layout is immutable, so copies share one allocation. There are no move
  /// operations: a moved-from layout would hold no data, and every accessor
  /// relies on the handle never being null.
  BoxLayout(const BoxLayout&) = default;
  BoxLayout& operator=(const BoxLayout&) = default;

  std::size_t num_boxes() const noexcept { return data_->boxes.size(); }
  int num_ranks() const noexcept { return data_->nranks; }
  const Box& box(std::size_t i) const { return at_index(data_->boxes, i, "BoxLayout::box"); }
  int rank_of(std::size_t i) const { return at_index(data_->ranks, i, "BoxLayout::rank_of"); }
  const std::vector<Box>& boxes() const noexcept { return data_->boxes; }

  /// Total cells across all boxes.
  std::int64_t total_cells() const noexcept { return data_->total_cells; }

  /// Cells assigned to each rank (size nranks). Ranks with no boxes get 0.
  const std::vector<std::int64_t>& cells_per_rank() const noexcept {
    return data_->cells_per_rank;
  }

 private:
  /// Everything a layout holds, totals included, fixed at construction.
  struct Data {
    std::vector<Box> boxes;
    std::vector<int> ranks;
    int nranks = 0;
    std::int64_t total_cells = 0;
    std::vector<std::int64_t> cells_per_rank;
  };
  std::shared_ptr<const Data> data_;
};

/// Chop `domain` into boxes no larger than `max_box_size` cells per side.
std::vector<Box> decompose(const Box& domain, int max_box_size);

/// Assign `boxes` to `nranks` ranks in the Morton order of their low corners,
/// each rank taking a contiguous run of about total/nranks cells. Each box
/// gets the same rank whatever the order of `boxes`, provided their low
/// corners are distinct (true of disjoint boxes).
BoxLayout balance(std::vector<Box> boxes, int nranks,
                  BalanceMethod = BalanceMethod::MortonRoundRobin);

/// Bias added to each coordinate before morton_key keeps its 21 bits: keys
/// follow Z-order for coordinates in [-kMortonBias, kMortonBias). A level
/// whose index space is wider than kMortonBias cells along an axis cannot be
/// balanced, so the config parser rejects such refinement.
constexpr int kMortonBias = 1 << 20;

/// Morton (Z-order) key of a lattice point; 21 bits per dimension.
std::uint64_t morton_key(const IntVect& p);

}  // namespace xl::mesh
