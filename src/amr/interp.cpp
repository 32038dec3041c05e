#include "amr/interp.hpp"

#include <vector>

namespace xl::amr {

using mesh::Fab;

namespace {

/// Floor division matching IntVect::coarsen on negative coordinates.
int floor_div(int a, int b) { return (a >= 0) ? a / b : -((-a + b - 1) / b); }

/// Copy each cell of `ftarget` in `ffab` from its coarse parent in `cfab`.
/// Each fine row reads one coarse row (the one at j/ratio, k/ratio); only the
/// x gather index changes per cell.
void gather_parents(const Fab& cfab, Fab& ffab, const Box& ftarget, int ratio) {
  const int fx0 = ftarget.lo()[0];
  const int cx0 = cfab.box().lo()[0];
  const auto nx = static_cast<std::size_t>(ftarget.size()[0]);
  const auto fxoff = static_cast<std::size_t>(fx0 - ffab.box().lo()[0]);
  for (int c = 0; c < ffab.ncomp(); ++c) {
    mesh::for_each_row(ftarget, [&](int j, int k) {
      double* fr = ffab.row(c, j, k) + fxoff;
      const double* cr = cfab.row(c, floor_div(j, ratio), floor_div(k, ratio));
      for (std::size_t i = 0; i < nx; ++i) {
        fr[i] = cr[floor_div(fx0 + static_cast<int>(i), ratio) - cx0];
      }
    });
  }
}

}  // namespace

void prolong_constant(const AmrLevel& coarse, AmrLevel& fine, int ratio) {
  const IntVect rvec = IntVect::uniform(ratio);
  for (std::size_t fi = 0; fi < fine.layout.num_boxes(); ++fi) {
    const Box fvalid = fine.layout.box(fi);
    const Box cneeded = fvalid.coarsen(rvec);
    for (std::size_t ci = 0; ci < coarse.layout.num_boxes(); ++ci) {
      const Box coverlap = cneeded & coarse.layout.box(ci);
      if (coverlap.empty()) continue;
      gather_parents(coarse.data[ci], fine.data[fi], coverlap.refine(rvec) & fvalid, ratio);
    }
  }
}

void restrict_average(const AmrLevel& fine, AmrLevel& coarse, int ratio) {
  const IntVect rvec = IntVect::uniform(ratio);
  const double inv_vol = 1.0 / static_cast<double>(ratio * ratio * ratio);
  for (std::size_t ci = 0; ci < coarse.layout.num_boxes(); ++ci) {
    Fab& cfab = coarse.data[ci];
    const Box cvalid = coarse.layout.box(ci);
    for (std::size_t fi = 0; fi < fine.layout.num_boxes(); ++fi) {
      const Box covered = fine.layout.box(fi).coarsen(rvec) & cvalid;
      if (covered.empty()) continue;
      const Fab& ffab = fine.data[fi];
      // All ratio^2 child rows of a coarse row are hoisted once; the per-cell
      // sum walks them dz -> dy -> dx, the exact BoxIterator child order, so
      // the accumulation is bit-identical to the seed per-cell loop.
      const int cx0 = covered.lo()[0];
      const auto ncx = static_cast<std::size_t>(covered.size()[0]);
      const auto cxoff = static_cast<std::size_t>(cx0 - cfab.box().lo()[0]);
      const int ffx0 = ffab.box().lo()[0];
      std::vector<const double*> frows(
          static_cast<std::size_t>(ratio) * static_cast<std::size_t>(ratio));
      for (int c = 0; c < cfab.ncomp(); ++c) {
        mesh::for_each_row(covered, [&](int j, int k) {
          for (int dz = 0; dz < ratio; ++dz) {
            for (int dy = 0; dy < ratio; ++dy) {
              frows[static_cast<std::size_t>(dz * ratio + dy)] =
                  ffab.row(c, j * ratio + dy, k * ratio + dz);
            }
          }
          double* cr = cfab.row(c, j, k) + cxoff;
          for (std::size_t i = 0; i < ncx; ++i) {
            const int fx = (cx0 + static_cast<int>(i)) * ratio;
            double sum = 0.0;
            for (int dz = 0; dz < ratio; ++dz) {
              for (int dy = 0; dy < ratio; ++dy) {
                const double* fr =
                    frows[static_cast<std::size_t>(dz * ratio + dy)] +
                    (fx - ffx0);
                for (int dx = 0; dx < ratio; ++dx) sum += fr[dx];
              }
            }
            cr[i] = sum * inv_vol;
          }
        });
      }
    }
  }
}

void fill_cf_ghosts(const AmrLevel& coarse, AmrLevel& fine, int ratio, int nghost) {
  const IntVect rvec = IntVect::uniform(ratio);
  for (std::size_t fi = 0; fi < fine.layout.num_boxes(); ++fi) {
    const Box ghosted = fine.layout.box(fi).grow(nghost);
    // Cells of the ghost halo not covered by any fine valid box.
    std::vector<Box> halo;
    ghosted.subtract(fine.layout.box(fi), halo);
    for (const Box& piece : halo) {
      // Remove parts covered by other fine boxes (exchange handles those). A
      // box that misses the ghosted box would leave every piece as it is.
      std::vector<Box> uncovered{piece};
      for (std::size_t fj = 0; fj < fine.layout.num_boxes(); ++fj) {
        if (fj == fi || !ghosted.intersects(fine.layout.box(fj))) continue;
        std::vector<Box> next;
        for (const Box& u : uncovered) u.subtract(fine.layout.box(fj), next);
        uncovered = std::move(next);
        if (uncovered.empty()) break;
      }
      for (const Box& u : uncovered) {
        const Box cneeded = u.coarsen(rvec);
        // Read through the coarse fabs' own ghosts so domain-boundary fine
        // ghosts get filled too (coarse ghosts were filled by exchange).
        // Ghosted coarse fabs overlap; the later box's value wins.
        for (std::size_t ci = 0; ci < coarse.layout.num_boxes(); ++ci) {
          const Box coverlap = cneeded & coarse.data[ci].box();
          if (coverlap.empty()) continue;
          gather_parents(coarse.data[ci], fine.data[fi], coverlap.refine(rvec) & u, ratio);
        }
      }
    }
  }
}

}  // namespace xl::amr
