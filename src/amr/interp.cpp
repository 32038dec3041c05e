#include "amr/interp.hpp"

#include <vector>

#include "common/error.hpp"

namespace xl::amr {

using mesh::Fab;

namespace {

/// Copy each cell of `ftarget` in `ffab` from its coarse parent in `cfab`.
/// The walk starts at the first fine cell and its parent, and steps the
/// coarse pointer once every `ratio` fine cells, rows and planes: a phase
/// counter per dimension, started at the first cell's offset inside its
/// parent, does IntVect::coarsen's floor division incrementally.
void gather_parents(const Fab& cfab, Fab& ffab, const Box& ftarget, int ratio) {
  if (ftarget.empty()) return;
  const IntVect rvec = IntVect::uniform(ratio);
  const IntVect n = ftarget.size();
  const IntVect clo = ftarget.lo().coarsen(rvec);
  const IntVect phase0 = ftarget.lo() - clo.refine(rvec);
  XL_REQUIRE(ffab.box().contains(ftarget), "fine fab misses the target");
  XL_REQUIRE(cfab.box().contains(ftarget.coarsen(rvec)), "coarse fab misses the parents");
  const Fab::Strides fs = ffab.strides();
  const Fab::Strides cs = cfab.strides();
  const auto nx = static_cast<std::size_t>(n[0]);
  for (int c = 0; c < ffab.ncomp(); ++c) {
    double* fz = &ffab(ftarget.lo(), c);
    const double* cz = &cfab(clo, c);
    for (int k = 0, pz = phase0[2]; k < n[2]; ++k) {
      double* fy = fz;
      const double* cy = cz;
      for (int j = 0, py = phase0[1]; j < n[1]; ++j) {
        const double* cx = cy;
        int px = phase0[0];
        for (std::size_t i = 0; i < nx; ++i) {
          fy[i] = *cx;
          if (++px == ratio) {
            px = 0;
            ++cx;
          }
        }
        fy += fs.y;
        if (++py == ratio) {
          py = 0;
          cy += cs.y;
        }
      }
      fz += fs.z;
      if (++pz == ratio) {
        pz = 0;
        cz += cs.z;
      }
    }
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
  const auto r = static_cast<std::size_t>(ratio);
  // The ratio^2 child rows of a coarse row, refilled per coarse row.
  std::vector<const double*> frows(r * r);
  for (std::size_t ci = 0; ci < coarse.layout.num_boxes(); ++ci) {
    Fab& cfab = coarse.data[ci];
    const Box cvalid = coarse.layout.box(ci);
    const Fab::Strides cs = cfab.strides();
    for (std::size_t fi = 0; fi < fine.layout.num_boxes(); ++fi) {
      const Box covered = fine.layout.box(fi).coarsen(rvec) & cvalid;
      if (covered.empty()) continue;
      const Fab& ffab = fine.data[fi];
      XL_REQUIRE(ffab.box().contains(covered.refine(rvec)), "fine fab misses the children");
      const Fab::Strides fs = ffab.strides();
      const IntVect n = covered.size();
      const auto ncx = static_cast<std::size_t>(n[0]);
      // The per-cell sum walks the children dz -> dy -> dx, the exact
      // BoxIterator child order, so the accumulation is bit-identical to the
      // seed per-cell loop.
      for (int c = 0; c < cfab.ncomp(); ++c) {
        const double* fz = &ffab(covered.lo().refine(rvec), c);
        double* cz = &cfab(covered.lo(), c);
        for (int k = 0; k < n[2]; ++k, fz += r * fs.z, cz += cs.z) {
          const double* fy = fz;
          double* cr = cz;
          for (int j = 0; j < n[1]; ++j, fy += r * fs.y, cr += cs.y) {
            for (std::size_t dz = 0; dz < r; ++dz) {
              for (std::size_t dy = 0; dy < r; ++dy) {
                frows[dz * r + dy] = fy + dz * fs.z + dy * fs.y;
              }
            }
            for (std::size_t i = 0; i < ncx; ++i) {
              double sum = 0.0;
              for (std::size_t dz = 0; dz < r; ++dz) {
                for (std::size_t dy = 0; dy < r; ++dy) {
                  const double* fr = frows[dz * r + dy] + i * r;
                  for (std::size_t dx = 0; dx < r; ++dx) sum += fr[dx];
                }
              }
              cr[i] = sum * inv_vol;
            }
          }
        }
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
