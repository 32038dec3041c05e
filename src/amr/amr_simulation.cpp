#include "amr/amr_simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "amr/interp.hpp"
#include "common/log.hpp"
#include "common/thread_pool.hpp"

namespace xl::amr {

using mesh::BoxIterator;
using mesh::Fab;

AmrSimulation::AmrSimulation(const AmrConfig& config, std::shared_ptr<Physics> physics,
                             const TagCriterion& criterion, double cfl,
                             int regrid_interval)
    : config_(config),
      physics_(std::move(physics)),
      criterion_(criterion),
      cfl_(cfl),
      regrid_interval_(regrid_interval),
      hierarchy_(config, physics_ ? physics_->ncomp() : 1) {
  XL_REQUIRE(physics_ != nullptr, "simulation needs a physics");
  XL_REQUIRE(cfl > 0.0 && cfl < 1.0, "CFL must be in (0,1)");
  XL_REQUIRE(regrid_interval >= 1, "regrid interval must be positive");
  XL_REQUIRE(config.nghost >= physics_->nghost(), "config ghost width below physics stencil");
}

double AmrSimulation::dx(std::size_t level) const {
  double d = 1.0 / static_cast<double>(config_.base_domain.size()[0]);
  for (std::size_t l = 0; l < level; ++l) d /= static_cast<double>(config_.ref_ratio);
  return d;
}

void AmrSimulation::init_level_from_physics(std::size_t lev) {
  AmrLevel& level = hierarchy_.level(lev);
  const double d = dx(lev);
  parallel_for(ThreadPool::global(), 0, level.layout.num_boxes(),
               [&](std::size_t blo, std::size_t bhi) {
    std::vector<double> value(static_cast<std::size_t>(physics_->ncomp()));
    for (std::size_t i = blo; i < bhi; ++i) {
      Fab& fab = level.data[i];
      // Fill ghosts too: cheap, and gives tagging valid one-sided stencils
      // even before the first exchange.
      for (BoxIterator it(fab.box()); it.ok(); ++it) {
        physics_->initial_value(*it, d, value.data());
        for (int c = 0; c < physics_->ncomp(); ++c) fab(*it, c) = value[c];
      }
    }
  });
}

void AmrSimulation::initialize() {
  init_level_from_physics(0);
  fill_ghosts(0);
  // Grow the hierarchy one level at a time from fresh physics data.
  while (hierarchy_.num_levels() < static_cast<std::size_t>(config_.max_levels)) {
    const std::size_t lev = hierarchy_.num_levels() - 1;
    std::vector<Box> boxes = boxes_from_tags(lev);
    if (boxes.empty()) break;
    std::vector<BoxLayout> layouts;
    for (std::size_t l = 1; l < hierarchy_.num_levels(); ++l) {
      layouts.push_back(hierarchy_.level(l).layout);
    }
    layouts.push_back(mesh::balance(std::move(boxes), config_.nranks));
    hierarchy_.regrid(layouts);
    init_level_from_physics(hierarchy_.num_levels() - 1);
    fill_ghosts(hierarchy_.num_levels() - 1);
  }
  XL_LOG_INFO("initialized " << physics_->name() << " with "
                             << hierarchy_.num_levels() << " levels, "
                             << hierarchy_.total_cells() << " cells");
}

void AmrSimulation::fill_ghosts(std::size_t lev) {
  AmrLevel& level = hierarchy_.level(lev);
  level.data.exchange(level.domain, config_.periodic);
  if (lev > 0) {
    fill_cf_ghosts(hierarchy_.level(lev - 1), level, config_.ref_ratio, config_.nghost);
  }
}

double AmrSimulation::stable_dt() const {
  // Non-subcycled: the returned dt must be stable on every level as-is.
  // Subcycled: level l advances with dt / ratio^l, so a level's constraint
  // relaxes by ratio^l when folded back to the level-0 dt.
  double dt = std::numeric_limits<double>::infinity();
  double level_scale = 1.0;
  for (std::size_t lev = 0; lev < hierarchy_.num_levels(); ++lev) {
    const AmrLevel& level = hierarchy_.level(lev);
    const double d = dx(lev);
    // min() over per-box wave speeds is exact under any partition, so the
    // parallel reduction matches the serial dt bit for bit.
    const std::size_t nboxes = level.layout.num_boxes();
    std::vector<double> box_speed(nboxes, 0.0);
    parallel_for(ThreadPool::global(), 0, nboxes,
                 [&](std::size_t blo, std::size_t bhi) {
      for (std::size_t i = blo; i < bhi; ++i) {
        box_speed[i] =
            physics_->max_wave_speed(level.data[i], level.layout.box(i), d);
      }
    });
    for (double speed : box_speed) {
      if (speed > 0.0) dt = std::min(dt, level_scale * cfl_ * d / speed);
    }
    if (config_.subcycle) level_scale *= static_cast<double>(config_.ref_ratio);
  }
  XL_CHECK(std::isfinite(dt), "no finite stable dt (all-zero wave speeds?)");
  return dt;
}

void AmrSimulation::advance_recursive(std::size_t lev, double dt) {
  fill_ghosts(lev);
  advance_level(lev, dt);
  if (lev + 1 < hierarchy_.num_levels()) {
    const double fine_dt = dt / static_cast<double>(config_.ref_ratio);
    for (int sub = 0; sub < config_.ref_ratio; ++sub) {
      advance_recursive(lev + 1, fine_dt);
    }
    restrict_average(hierarchy_.level(lev + 1), hierarchy_.level(lev),
                     config_.ref_ratio);
  }
}

void AmrSimulation::advance_level(std::size_t lev, double dt) {
  AmrLevel& level = hierarchy_.level(lev);
  const double d = dx(lev);
  // Each box reads only its own fab (ghosts were filled beforehand) and
  // writes its own updated copy, so boxes advance independently. The copy
  // keeps the old ghosts: the in-situ isosurface reads them after advance().
  const std::size_t nboxes = level.layout.num_boxes();
  std::vector<Fab> updated(nboxes);
  parallel_for(ThreadPool::global(), 0, nboxes,
               [&](std::size_t blo, std::size_t bhi) {
    for (std::size_t i = blo; i < bhi; ++i) {
      Fab out = level.data[i];
      godunov_update(*physics_, level.data[i], level.layout.box(i), d, dt, out);
      updated[i] = std::move(out);
    }
  });
  for (std::size_t i = 0; i < updated.size(); ++i) {
    level.data[i] = std::move(updated[i]);
  }
}

StepStats AmrSimulation::advance() {
  // xl-lint: allow(wallclock): StepStats.wall_seconds is a diagnostic of real
  // solver cost (calibration input); it never feeds the simulated timeline.
  const auto wall_start = std::chrono::steady_clock::now();
  const double dt = stable_dt();

  if (config_.subcycle) {
    advance_recursive(0, dt);
  } else {
    for (std::size_t lev = 0; lev < hierarchy_.num_levels(); ++lev) {
      fill_ghosts(lev);
    }
    for (std::size_t lev = 0; lev < hierarchy_.num_levels(); ++lev) {
      advance_level(lev, dt);
    }
    for (std::size_t lev = hierarchy_.num_levels(); lev-- > 1;) {
      restrict_average(hierarchy_.level(lev), hierarchy_.level(lev - 1),
                       config_.ref_ratio);
    }
  }

  ++step_;
  time_ += dt;

  StepStats stats;
  stats.step = step_;
  stats.time = time_;
  stats.dt = dt;
  if (step_ % regrid_interval_ == 0 && config_.max_levels > 1) {
    regrid_all();
    stats.regridded = true;
  }
  for (std::size_t lev = 0; lev < hierarchy_.num_levels(); ++lev) {
    stats.cells_per_level.push_back(hierarchy_.level(lev).layout.total_cells());
  }
  stats.total_cells = hierarchy_.total_cells();
  stats.bytes = hierarchy_.bytes();
  // xl-lint: allow(wallclock): measurement-only (see wall_start above).
  const auto wall_end = std::chrono::steady_clock::now();
  stats.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  return stats;
}

std::vector<Box> AmrSimulation::boxes_from_tags(std::size_t lev) {
  AmrLevel& level = hierarchy_.level(lev);
  fill_ghosts(lev);
  std::vector<IntVect> tags = tag_cells(level, criterion_);
  if (tags.empty()) return {};
  tags = buffer_tags(tags, config_.tag_buffer, level.domain);
  BrConfig br;
  br.fill_ratio = config_.fill_ratio;
  br.max_box_size = std::max(1, config_.max_box_size / config_.ref_ratio);
  br.min_box_size = std::max(1, config_.blocking_factor / config_.ref_ratio);
  std::vector<Box> coarse_boxes = berger_rigoutsos(tags, level.domain, br);
  std::vector<Box> fine_boxes;
  fine_boxes.reserve(coarse_boxes.size());
  for (const Box& b : coarse_boxes) fine_boxes.push_back(b.refine(config_.ref_ratio));
  return fine_boxes;
}

void AmrSimulation::regrid_all() {
  // Rebuild every fine level from tags on the level below, clipping for
  // proper nesting: level l+1 boxes must lie inside the union of level l.
  std::vector<BoxLayout> layouts;
  std::vector<Box> parent_union;  // union of the previous new level's boxes
  const std::size_t old_levels = hierarchy_.num_levels();
  for (std::size_t lev = 0; lev + 1 < static_cast<std::size_t>(config_.max_levels); ++lev) {
    if (lev >= old_levels) break;  // no data to tag from
    std::vector<Box> boxes = boxes_from_tags(lev);
    if (lev > 0) {
      // Clip against the refinement of the newly-chosen parent level.
      std::vector<Box> clipped;
      for (const Box& b : boxes) {
        for (const Box& p : parent_union) {
          const Box inter = b & p.refine(config_.ref_ratio);
          if (!inter.empty()) clipped.push_back(inter);
        }
      }
      boxes = std::move(clipped);
    }
    if (boxes.empty()) break;
    parent_union = boxes;
    layouts.push_back(mesh::balance(std::move(boxes), config_.nranks));
  }
  hierarchy_.regrid(layouts);
  for (std::size_t lev = 1; lev < hierarchy_.num_levels(); ++lev) fill_ghosts(lev);
}

}  // namespace xl::amr
