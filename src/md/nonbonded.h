// Range-limited nonbonded forces: Lennard-Jones plus the real-space
// (erfc-screened) part of Ewald electrostatics, evaluated over a Verlet
// neighbour list.  This is exactly the work Anton's HTIS pipelines perform;
// the machine model derives PPIM occupancy from the same pair counts.
#pragma once

#include <span>

#include "chem/topology.h"
#include "common/threadpool.h"
#include "common/vec3.h"
#include "geom/box.h"
#include "md/neighborlist.h"
#include "md/params.h"
#include "md/workspace.h"
#include "obs/metrics.h"

namespace anton::md {

// Accumulates LJ + real-space Coulomb forces/energies over the list.
// If `pool` is non-null the pair loop is parallelised with per-thread force
// buffers (deterministic for a fixed thread count); the list's rows are
// split at equal cumulative-pair quantiles, and the cross-thread reduction
// runs in parallel.
//
// Electrostatics mode:
//   - alpha > 0: erfc(alpha r)/r screened Coulomb (Ewald real-space part)
//   - alpha == 0: plain cutoff Coulomb (LongRangeMethod::kNone), the same
//     expressions at erfc(0) = 1
//
// With shift_at_cutoff, each pair's LJ and Coulomb energies are shifted so
// they vanish at the cutoff (forces unchanged) — the conserved quantity is
// then continuous as pairs cross the cutoff.
//
// Passing a ForceWorkspace makes steady-state evaluation allocation-free:
// the premixed LJ type-pair table, prescaled charges, per-thread buffers and
// the erfc table all persist in it.  Without one, a temporary workspace is
// built per call (convenient for tests).  With tabulate_erfc (the default),
// the vectorized kernel replaces per-pair std::erfc/std::exp by
// cubic-Hermite table lookups in r²; accuracy is bounded by the workspace's
// table build (see ForceWorkspace::build_cache).  tabulate_erfc = false runs
// the exact scalar kernel, the reference the tests compare against.
// With deterministic, every per-pair contribution is quantized to 32.32
// fixed point before accumulation (MdParams::deterministic_forces): the
// result is bitwise identical across ALL thread counts, serial included.
// A contribution or a sum beyond the format's ±2^31 range raises
// anton::Error rather than saturating or wrapping silently.
// With thread_stat, each worker records the wall-clock seconds of its own
// chunk of the threaded pair loop — the spread of that stat is the load
// imbalance across threads.
void compute_nonbonded(const Box& box, const Topology& top,
                       const NeighborList& nlist, std::span<const Vec3> pos,
                       double alpha, std::span<Vec3> forces,
                       EnergyReport& energy, ThreadPool* pool = nullptr,
                       bool shift_at_cutoff = false,
                       ForceWorkspace* ws = nullptr,
                       bool tabulate_erfc = true,
                       bool deterministic = false,
                       obs::Stat* thread_stat = nullptr);

// Ewald self-energy: -C * alpha/sqrt(pi) * sum q_i^2.  Pure energy term.
double ewald_self_energy(const Topology& top, double alpha);

// Excluded-pair correction: the reciprocal sum includes *all* pairs, so for
// every topologically excluded pair we subtract the interaction of the
// screening charges: E -= C q_i q_j erf(alpha r)/r, with matching forces.
// With a pool and workspace the atom loop runs threaded over the same
// per-thread buffers as compute_nonbonded (deterministic for a fixed thread
// count).  With deterministic, a fixed-point overflow raises anton::Error as
// in compute_nonbonded.
void compute_excluded_correction(const Box& box, const Topology& top,
                                 std::span<const Vec3> pos, double alpha,
                                 std::span<Vec3> forces, EnergyReport& energy,
                                 ThreadPool* pool = nullptr,
                                 ForceWorkspace* ws = nullptr,
                                 bool deterministic = false);

}  // namespace anton::md
