//! The simulation driver: the full PIC cycle of the paper's Fig. 3.
//!
//! Each step: gather fields onto particles → push momenta (Boris/Vay)
//! and positions (leapfrog) → deposit currents (Esirkepov) → exchange
//! guard sums → advance Maxwell (B half / E / B half, PML-terminated) →
//! redistribute particles → advance the moving window. With mesh
//! refinement enabled, particles inside the patch deposit to the fine
//! grid (restricted onto the coarse patch and the parent) and gather
//! from the auxiliary grid, per §V-B of the paper.

use crate::balance::{self, CostTracker};
use crate::laser::LaserAntenna;
use crate::mr::{MrConfig, MrLevel};
use crate::particles::{ParticleBuf, ParticleContainer};
use crate::species::{inject, Species};
use crate::telemetry::{
    scan_arrays, GuardTrip, PhaseTimes, Probes, SpeciesCount, StepRecord, Telemetry,
};
use mrpic_amr::{
    BoxArray, CommStats, DistributionMapping, Fab, FabArray, IndexBox, IntVect, Periodicity,
    Strategy,
};
use mrpic_field::cfl::dt_at;
use mrpic_field::fieldset::{
    fab_view, guard_vec, rho_stagger, view_of_fab_mut, view_over, Dim, FieldSet, GridGeom,
};
use mrpic_field::pml::Pml;
use mrpic_field::yee;
use mrpic_kernels::deposit::{deposit_rho2, deposit_rho3, esirkepov2, esirkepov3, JViews};
use mrpic_kernels::gather::{gather2, gather3, EmOut, EmViews};
use mrpic_kernels::lanes::{Lanes, DEFAULT_LANE_WIDTH, LANE_WIDTHS};
use mrpic_kernels::push::{gamma_of_u, push_position, push_position2};
use mrpic_kernels::shape::{Cubic, Linear, Quadratic};
use mrpic_kernels::view::{FieldView, FieldViewMut, Geom};
use mrpic_kernels::Real;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Runtime-selected particle shape order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShapeOrder {
    Linear,
    Quadratic,
    Cubic,
}

impl ShapeOrder {
    pub fn order(self) -> usize {
        match self {
            ShapeOrder::Linear => 1,
            ShapeOrder::Quadratic => 2,
            ShapeOrder::Cubic => 3,
        }
    }

    /// Guard cells needed by gather + Esirkepov deposition.
    pub fn ngrow(self) -> i64 {
        self.order() as i64 + 2
    }
}

/// Dispatch a generic-shape kernel call on a runtime order.
macro_rules! with_shape {
    ($order:expr, $S:ident, $body:expr) => {
        match $order {
            ShapeOrder::Linear => {
                type $S = Linear;
                $body
            }
            ShapeOrder::Quadratic => {
                type $S = Quadratic;
                $body
            }
            ShapeOrder::Cubic => {
                type $S = Cubic;
                $body
            }
        }
    };
}

/// Dispatch a lane-width-generic kernel call on a runtime width. There
/// is one arm per entry of [`LANE_WIDTHS`]; the builder rejects every
/// other width.
macro_rules! with_lanes {
    ($lw:expr, $W:ident, $body:expr) => {
        match $lw {
            4 => {
                const $W: usize = 4;
                $body
            }
            8 => {
                const $W: usize = 8;
                $body
            }
            16 => {
                const $W: usize = 16;
                $body
            }
            w => unreachable!("lane width {w} is not one of {LANE_WIDTHS:?}"),
        }
    };
}

/// Numeric precision of the particle kernels (paper §V-A mixed-precision
/// mode). `F64` is the bitwise-reproducible default. `F32Particles`
/// stages per-box field windows and particle attributes in `f32`, runs
/// gather / momentum push / deposition in single precision, and keeps
/// positions and the global field state in `f64` (positions lose too
/// much resolution in `f32` once the moving window travels far from the
/// origin; the field solve stays `f64` so Gauss-law conservation is
/// limited only by the deposited currents).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Precision {
    #[default]
    F64,
    F32Particles,
}

impl Precision {
    /// Bytes per scalar in the particle kernels (roofline `wsize`).
    pub fn wsize(self) -> f64 {
        match self {
            Precision::F64 => 8.0,
            Precision::F32Particles => 4.0,
        }
    }
}

/// Moving-window configuration: the grid follows the laser at c along +x
/// starting at `start_time` (paper Table I capability (b)).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MovingWindow {
    pub start_time: f64,
    /// Fractional cells accumulated toward the next shift.
    pub accum: f64,
    /// Inject fresh plasma in the strip exposed at the leading edge.
    pub inject_at_front: bool,
}

/// Per-step accounting.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct StepStats {
    pub pushed: usize,
    pub deleted: usize,
    pub window_shifts: u64,
    pub rebalances: u64,
    /// Wall seconds in particle kernels this step.
    pub particle_seconds: f64,
    /// Wall seconds in the field solve this step.
    pub field_seconds: f64,
    /// Wall seconds in guard/interface exchanges this step (subset of the
    /// particle/field phases above, not an additional phase).
    pub exchange_seconds: f64,
}

/// The paper's load-balance metric over one step's per-rank records:
/// max/mean of each rank's busy seconds. Busy time is particle work
/// plus exchange work *minus* the blocking recv-wait — a rank stalled
/// waiting on a hot neighbor is idle, not loaded, and counting the
/// stall used to bias the reported ratio toward 1.0 exactly when the
/// imbalance was worst. `None` for fewer than two ranks, where the
/// ratio is vacuous.
pub fn rank_imbalance(ranks: &[crate::exchange::RankStepComm]) -> Option<f64> {
    if ranks.len() < 2 {
        return None;
    }
    let busy: Vec<f64> = ranks
        .iter()
        .map(|r| (r.particle_seconds + r.exchange_seconds - r.recv_wait_seconds).max(0.0))
        .collect();
    let mean = busy.iter().sum::<f64>() / busy.len() as f64;
    let max = busy.iter().fold(0.0f64, |a, &b| a.max(b));
    (mean > 0.0).then(|| max / mean)
}

/// Serial / rayon-threaded fallback for [`StepRecord::imbalance`]: the
/// same max/mean ratio over per-*box* cost instead of per-rank busy
/// time, so single-process runs (where no rank records exist) still
/// feed the LB trigger. `None` for fewer than two boxes or all-zero
/// costs.
///
/// [`StepRecord::imbalance`]: crate::telemetry::StepRecord::imbalance
pub fn box_imbalance(costs: &[f64]) -> Option<f64> {
    if costs.len() < 2 {
        return None;
    }
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    let max = costs.iter().fold(0.0f64, |a, &b| a.max(b));
    (mean > 0.0).then(|| max / mean)
}

/// Cached handle for the per-box kernel-time histogram (nanoseconds per
/// box per species per step), fed while tracing is enabled.
fn box_kernel_hist() -> &'static mrpic_trace::metrics::Histogram {
    static H: std::sync::OnceLock<&'static mrpic_trace::metrics::Histogram> =
        std::sync::OnceLock::new();
    H.get_or_init(|| mrpic_trace::histogram("core.box_ns"))
}

/// Per-thread particle workspace, reused across boxes and steps. The
/// `f64` path borrows momenta, weights, post-push positions, field
/// windows and current targets straight from the simulation state, so
/// the buffers marked *staged* stay empty there.
#[derive(Default)]
struct Scratch<R> {
    /// Gathered Ex, Ey, Ez, Bx, By, Bz per particle.
    em: [Vec<R>; 6],
    /// Pre-push positions: the gather input and the deposit's old state.
    old: [Vec<R>; 3],
    /// Out-of-plane velocity at the half step (2-D deposition).
    vy: Vec<R>,
    /// Staged post-push positions.
    new: [Vec<R>; 3],
    /// Staged momenta.
    u: [Vec<R>; 3],
    /// Staged weights.
    w: Vec<R>,
    /// Staged field windows, same component order as `em`.
    fld: [Vec<R>; 6],
    /// Staged current tiles, accumulated into the `f64` targets.
    j: [Vec<R>; 3],
}

/// Checks a [`Scratch`] out of a pool; returns it on drop so worker
/// threads reuse warm buffers across boxes and steps.
struct ScratchGuard<'a, R: Real> {
    pool: &'a Mutex<Vec<Scratch<R>>>,
    sc: Scratch<R>,
}

impl<'a, R: Real> ScratchGuard<'a, R> {
    fn checkout(pool: &'a Mutex<Vec<Scratch<R>>>) -> Self {
        let sc = pool
            .lock()
            .expect("a particle worker panicked holding the scratch pool")
            .pop()
            .unwrap_or_default();
        Self { pool, sc }
    }
}

impl<R: Real> Drop for ScratchGuard<'_, R> {
    fn drop(&mut self) {
        // A poisoned pool only loses a warm buffer; never panic in drop.
        if let Ok(mut pool) = self.pool.lock() {
            pool.push(std::mem::take(&mut self.sc));
        }
    }
}

/// One workspace pool per particle precision.
#[derive(Default)]
struct ScratchPools {
    double: Mutex<Vec<Scratch<f64>>>,
    single: Mutex<Vec<Scratch<f32>>>,
}

/// The precision-specific part of [`Simulation::advance_species`]: how
/// the `f64` simulation state reaches the kernels (borrowed in `f64`,
/// cast in `f32`), who owns the momenta during the push, and how a
/// deposit reaches its `f64` target.
trait ParticleReal: Real {
    /// `src` in this precision: `src` itself, or a copy cast into `dst`.
    fn stage<'a>(dst: &'a mut Vec<Self>, src: &'a [f64]) -> &'a [Self];
    /// The momenta the push updates: the buffer's own, or copies staged
    /// in `dst` that [`ParticleReal::store_momenta`] writes back.
    fn momenta<'a>(dst: &'a mut [Vec<Self>; 3], buf: &'a mut ParticleBuf) -> [&'a mut [Self]; 3];
    fn store_momenta(src: &[Vec<Self>; 3], buf: &mut ParticleBuf);
    /// Run `deposit` on `target`: directly, or into zeroed `tiles` with
    /// the target's layout that are then accumulated into `target`.
    fn deposit_into(
        tiles: &mut [Vec<Self>; 3],
        target: JViews<'_, f64>,
        deposit: impl FnOnce(&mut JViews<'_, Self>),
    );
    fn pool(pools: &ScratchPools) -> &Mutex<Vec<Scratch<Self>>>;
}

impl ParticleReal for f64 {
    fn stage<'a>(_: &'a mut Vec<f64>, src: &'a [f64]) -> &'a [f64] {
        src
    }

    fn momenta<'a>(_: &'a mut [Vec<f64>; 3], buf: &'a mut ParticleBuf) -> [&'a mut [f64]; 3] {
        [&mut buf.ux, &mut buf.uy, &mut buf.uz]
    }

    fn store_momenta(_: &[Vec<f64>; 3], _: &mut ParticleBuf) {}

    fn deposit_into(
        _: &mut [Vec<f64>; 3],
        mut target: JViews<'_, f64>,
        deposit: impl FnOnce(&mut JViews<'_, f64>),
    ) {
        deposit(&mut target);
    }

    fn pool(pools: &ScratchPools) -> &Mutex<Vec<Scratch<f64>>> {
        &pools.double
    }
}

impl ParticleReal for f32 {
    fn stage<'a>(dst: &'a mut Vec<f32>, src: &'a [f64]) -> &'a [f32] {
        cast_into(dst, src);
        dst
    }

    fn momenta<'a>(dst: &'a mut [Vec<f32>; 3], buf: &'a mut ParticleBuf) -> [&'a mut [f32]; 3] {
        let [ux, uy, uz] = dst;
        cast_into(ux, &buf.ux);
        cast_into(uy, &buf.uy);
        cast_into(uz, &buf.uz);
        [ux, uy, uz]
    }

    fn store_momenta(src: &[Vec<f32>; 3], buf: &mut ParticleBuf) {
        for (dst, s) in [&mut buf.ux, &mut buf.uy, &mut buf.uz].into_iter().zip(src) {
            for (d, &v) in dst.iter_mut().zip(s) {
                *d = v as f64;
            }
        }
    }

    fn deposit_into(
        tiles: &mut [Vec<f32>; 3],
        target: JViews<'_, f64>,
        deposit: impl FnOnce(&mut JViews<'_, f32>),
    ) {
        fn tile<'a>(t: &'a mut Vec<f32>, like: &FieldViewMut<'_, f64>) -> FieldViewMut<'a, f32> {
            t.clear();
            t.resize(like.data.len(), 0.0);
            FieldViewMut {
                data: t,
                lo: like.lo,
                nx: like.nx,
                nxy: like.nxy,
                half: like.half,
            }
        }
        let [tx, ty, tz] = tiles;
        let JViews { jx, jy, jz } = target;
        deposit(&mut JViews {
            jx: tile(tx, &jx),
            jy: tile(ty, &jy),
            jz: tile(tz, &jz),
        });
        for (dst, t) in [(jx, &*tx), (jy, &*ty), (jz, &*tz)] {
            for (d, &s) in dst.data.iter_mut().zip(t) {
                *d += s as f64;
            }
        }
    }

    fn pool(pools: &ScratchPools) -> &Mutex<Vec<Scratch<f32>>> {
        &pools.single
    }
}

/// Overwrite `dst` with `src` in precision `R`.
fn cast_into<R: Real>(dst: &mut Vec<R>, src: &[f64]) {
    dst.clear();
    dst.extend(src.iter().map(|&v| R::from_f64(v)));
}

/// The six field windows of `v` in precision `R`, staged in `fld`.
fn stage_em<'a, R: ParticleReal>(fld: &'a mut [Vec<R>; 6], v: EmViews<'a, f64>) -> EmViews<'a, R> {
    fn window<'a, R: ParticleReal>(dst: &'a mut Vec<R>, f: FieldView<'a, f64>) -> FieldView<'a, R> {
        FieldView {
            data: R::stage(dst, f.data),
            lo: f.lo,
            nx: f.nx,
            nxy: f.nxy,
            half: f.half,
        }
    }
    let [ex, ey, ez, bx, by, bz] = fld;
    EmViews {
        ex: window(ex, v.ex),
        ey: window(ey, v.ey),
        ez: window(ez, v.ez),
        bx: window(bx, v.bx),
        by: window(by, v.by),
        bz: window(bz, v.bz),
    }
}

/// Output slices `[lo, hi)` of the gathered fields.
fn em_out<R>(em: &mut [Vec<R>; 6], lo: usize, hi: usize) -> EmOut<'_, R> {
    let [ex, ey, ez, bx, by, bz] = em;
    EmOut {
        ex: &mut ex[lo..hi],
        ey: &mut ey[lo..hi],
        ez: &mut ez[lo..hi],
        bx: &mut bx[lo..hi],
        by: &mut by[lo..hi],
        bz: &mut bz[lo..hi],
    }
}

/// Gather `views` onto the particles at (`x`, `y`, `z`): the lane
/// kernels at width `lanes`, or the scalar reference kernels for `None`.
#[allow(clippy::too_many_arguments)]
fn gather<R: Real>(
    dim: Dim,
    order: ShapeOrder,
    lanes: Option<usize>,
    x: &[R],
    y: &[R],
    z: &[R],
    geom: &Geom,
    views: &EmViews<'_, R>,
    out: &mut EmOut<'_, R>,
) {
    with_shape!(
        order,
        S,
        match (dim, lanes) {
            (Dim::Three, Some(lw)) => with_lanes!(
                lw,
                W,
                Lanes::<W>::gather3::<S, R>(x, y, z, geom, views, out)
            ),
            (Dim::Three, None) => gather3::<S, R>(x, y, z, geom, views, out),
            (Dim::Two, Some(lw)) =>
                with_lanes!(lw, W, Lanes::<W>::gather2::<S, R>(x, z, geom, views, out)),
            (Dim::Two, None) => gather2::<S, R>(x, z, geom, views, out),
        }
    );
}

/// What Esirkepov deposition reads for one box: positions before and
/// after the push, the half-step `vy`, and the weights.
struct Moved<'a, R> {
    old: [&'a [R]; 3],
    new: [&'a [R]; 3],
    vy: &'a [R],
    w: &'a [R],
}

/// Deposit particles `[lo, hi)` of `m` into `jv` (kernel choice as in
/// [`gather`]).
#[allow(clippy::too_many_arguments)]
fn deposit<R: Real>(
    dim: Dim,
    order: ShapeOrder,
    lanes: Option<usize>,
    m: &Moved<'_, R>,
    lo: usize,
    hi: usize,
    q: R,
    dt: R,
    geom: &Geom,
    jv: &mut JViews<'_, R>,
) {
    let [x0, y0, z0] = m.old.map(|s| &s[lo..hi]);
    let [x1, y1, z1] = m.new.map(|s| &s[lo..hi]);
    let (vy, w) = (&m.vy[lo..hi], &m.w[lo..hi]);
    with_shape!(
        order,
        S,
        match (dim, lanes) {
            (Dim::Three, Some(lw)) => with_lanes!(
                lw,
                W,
                Lanes::<W>::esirkepov3::<S, R>(x0, y0, z0, x1, y1, z1, w, q, dt, geom, jv)
            ),
            (Dim::Three, None) => {
                esirkepov3::<S, R>(x0, y0, z0, x1, y1, z1, w, q, dt, geom, jv)
            }
            (Dim::Two, Some(lw)) => with_lanes!(
                lw,
                W,
                Lanes::<W>::esirkepov2::<S, R>(x0, z0, x1, z1, vy, w, q, dt, geom, jv)
            ),
            (Dim::Two, None) => esirkepov2::<S, R>(x0, z0, x1, z1, vy, w, q, dt, geom, jv),
        }
    );
}

/// Per-box fine-patch deposition buffer. Boxes deposit into their own
/// buffer during the parallel particle loop; buffers are then reduced
/// into the shared fine-grid currents in ascending box order, so the
/// result is bitwise independent of the thread count.
#[derive(Default)]
struct FineJBuf {
    used: bool,
    j: [Vec<f64>; 3],
}

/// One box-parallel particle work item: disjoint mutable pieces of the
/// simulation state for a single (box, particle-buffer) pair.
struct BoxTask<'a> {
    bi: usize,
    buf: &'a mut crate::particles::ParticleBuf,
    jx: &'a mut Fab,
    jy: &'a mut Fab,
    jz: &'a mut Fab,
    fine_j: &'a mut FineJBuf,
    seconds: &'a mut f64,
    /// Per-box [gather, push, deposit] seconds (telemetry phase split).
    phase: &'a mut [f64; 3],
}

/// Builder for [`Simulation`].
pub struct SimulationBuilder {
    dim: Dim,
    cells: IntVect,
    dx: [f64; 3],
    x0: [f64; 3],
    periodic: [bool; 3],
    cfl: f64,
    order: ShapeOrder,
    npml: Option<i64>,
    max_box: Option<IntVect>,
    window: Option<MovingWindow>,
    lb: Option<balance::LbPolicyCfg>,
    species: Vec<Species>,
    lasers: Vec<LaserAntenna>,
    sort_interval: u64,
    seed: u64,
    filter_passes: usize,
    use_optimized_kernels: bool,
    lane_width: usize,
    precision: Precision,
}

impl SimulationBuilder {
    pub fn new(dim: Dim) -> Self {
        Self {
            dim,
            cells: IntVect::new(64, 1, 64),
            dx: [1.0e-6; 3],
            x0: [0.0; 3],
            periodic: [false; 3],
            cfl: 0.7,
            order: ShapeOrder::Quadratic,
            npml: None,
            max_box: None,
            window: None,
            lb: None,
            species: Vec::new(),
            lasers: Vec::new(),
            sort_interval: 50,
            seed: 20220101,
            filter_passes: 0,
            use_optimized_kernels: true,
            lane_width: DEFAULT_LANE_WIDTH,
            precision: Precision::default(),
        }
    }

    pub fn domain(mut self, cells: IntVect, dx: [f64; 3], x0: [f64; 3]) -> Self {
        if self.dim == Dim::Two {
            assert_eq!(cells.y, 1, "2-D runs use a single y cell");
        }
        self.cells = cells;
        self.dx = dx;
        self.x0 = x0;
        self
    }

    pub fn periodic(mut self, p: [bool; 3]) -> Self {
        self.periodic = p;
        self
    }

    pub fn cfl(mut self, cfl: f64) -> Self {
        self.cfl = cfl;
        self
    }

    pub fn order(mut self, o: ShapeOrder) -> Self {
        self.order = o;
        self
    }

    pub fn pml(mut self, npml: i64) -> Self {
        self.npml = Some(npml);
        self
    }

    pub fn max_box(mut self, mb: IntVect) -> Self {
        self.max_box = Some(mb);
        self
    }

    pub fn moving_window(mut self, start_time: f64) -> Self {
        self.window = Some(MovingWindow {
            start_time,
            accum: 0.0,
            inject_at_front: true,
        });
        self
    }

    /// Enable the online trigger → predict → adopt load-balance policy
    /// ([`balance::LbPolicy`]).
    pub fn load_balance(mut self, cfg: balance::LbPolicyCfg) -> Self {
        self.lb = Some(cfg);
        self
    }

    pub fn add_species(mut self, sp: Species) -> Self {
        self.species.push(sp);
        self
    }

    pub fn add_laser(mut self, l: LaserAntenna) -> Self {
        self.lasers.push(l);
        self
    }

    pub fn sort_interval(mut self, n: u64) -> Self {
        self.sort_interval = n;
        self
    }

    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Binomial current-smoothing passes per step (0 = off).
    pub fn filter_passes(mut self, n: usize) -> Self {
        self.filter_passes = n;
        self
    }

    /// Use the restructured (paper sec. V-A.1) gather/deposition kernels.
    /// On by default; pass `false` to fall back to the per-particle
    /// reference kernels.
    pub fn optimized_kernels(mut self, on: bool) -> Self {
        self.use_optimized_kernels = on;
        self
    }

    /// Lane width `W` of the blocked kernels (particles per SIMD tile).
    pub fn lane_width(mut self, w: usize) -> Self {
        assert!(
            LANE_WIDTHS.contains(&w),
            "lane width must be one of {LANE_WIDTHS:?}"
        );
        self.lane_width = w;
        self
    }

    /// Particle-kernel precision mode (see [`Precision`]).
    pub fn precision(mut self, p: Precision) -> Self {
        self.precision = p;
        self
    }

    /// Allocate fields, inject initial plasma, compute dt.
    pub fn build(self) -> Simulation {
        let domain = IndexBox::from_size(self.cells);
        let ba = match self.max_box {
            Some(mb) => BoxArray::chop(domain, mb),
            None => BoxArray::single(domain),
        };
        let geom = GridGeom {
            dx: self.dx,
            x0: self.x0,
        };
        let period = Periodicity::new(domain, self.periodic);
        let ngrow = self.order.ngrow();
        let fs = FieldSet::new(self.dim, ba.clone(), geom, period, ngrow);
        let pml = self
            .npml
            .map(|n| Pml::new(self.dim, domain, geom, self.periodic, n));
        let dt = dt_at(self.dim, &self.dx, self.cfl);
        let mut parts = Vec::new();
        for (si, sp) in self.species.iter().enumerate() {
            let mut pc = ParticleContainer::new(ba.len());
            inject(
                sp,
                self.dim,
                &geom,
                &ba,
                &domain,
                &mut pc,
                self.seed ^ (si as u64),
            );
            parts.push(pc);
        }
        let nranks = self.lb.map(|l| l.nranks).unwrap_or(1);
        let dm = DistributionMapping::build(&ba, nranks, Strategy::SpaceFillingCurve, &[]);
        // Seed the tracker from the fab count, not ba.len(): the step
        // loop records one sample per fab, and the two diverge as soon
        // as an MR level contributes fabs.
        let nfabs = fs.nfabs();
        Simulation {
            dim: self.dim,
            order: self.order,
            cfl: self.cfl,
            fs,
            pml,
            mr: None,
            species: self.species,
            parts,
            lasers: self.lasers,
            window: self.window,
            lb: self.lb.map(balance::LbPolicy::new),
            dm,
            cost: CostTracker::new(nfabs),
            dt,
            time: 0.0,
            istep: 0,
            sort_interval: self.sort_interval,
            seed: self.seed,
            filter_passes: self.filter_passes,
            use_optimized_kernels: self.use_optimized_kernels,
            lane_width: self.lane_width,
            precision: self.precision,
            scratch: ScratchPools::default(),
            box_seconds: Vec::new(),
            box_phase: Vec::new(),
            fine_j_pool: Vec::new(),
            metrics_mark: Vec::new(),
            stats: StepStats::default(),
            telemetry: Telemetry::default(),
        }
    }
}

/// A running PIC simulation.
pub struct Simulation {
    pub dim: Dim,
    pub order: ShapeOrder,
    pub cfl: f64,
    pub fs: FieldSet,
    pub pml: Option<Pml>,
    pub mr: Option<MrLevel>,
    pub species: Vec<Species>,
    pub parts: Vec<ParticleContainer>,
    pub lasers: Vec<LaserAntenna>,
    pub window: Option<MovingWindow>,
    /// Online load-balance policy; `None` disables live rebalancing.
    pub lb: Option<balance::LbPolicy>,
    pub dm: DistributionMapping,
    pub cost: CostTracker,
    pub dt: f64,
    pub time: f64,
    pub istep: u64,
    pub sort_interval: u64,
    pub seed: u64,
    /// Binomial current-filter passes per step.
    pub filter_passes: usize,
    /// Use the restructured gather/deposition kernels.
    pub use_optimized_kernels: bool,
    /// Lane width of the blocked kernels (one of [`LANE_WIDTHS`]).
    pub lane_width: usize,
    /// Particle-kernel precision mode.
    pub precision: Precision,
    /// Pools of per-thread particle workspaces.
    scratch: ScratchPools,
    /// Per-box particle-phase seconds of the current step (reused).
    box_seconds: Vec<f64>,
    /// Per-box [gather, push, deposit] seconds of the current step.
    box_phase: Vec<[f64; 3]>,
    /// Per-box fine-patch deposition buffers (reused).
    fine_j_pool: Vec<FineJBuf>,
    /// Metrics-registry snapshot at the end of the previous step, so a
    /// traced step can report per-step histogram deltas in telemetry.
    metrics_mark: Vec<mrpic_trace::metrics::HistSnapshot>,
    pub stats: StepStats,
    /// Step records, physics probes, and NaN/Inf guards.
    pub telemetry: Telemetry,
}

impl Simulation {
    /// Attach a mesh-refinement patch (before the first step).
    ///
    /// Without subcycling every level advances at the *fine* Courant
    /// step. With `cfg.subcycle` the parent keeps the coarse step while
    /// the patch grids take `rr` sub-steps — the particle displacement
    /// per step must then stay below one *fine* cell for the Esirkepov
    /// window, which bounds the usable Courant fraction.
    /// Patches may also be added *dynamically* at any step boundary: the
    /// parent always holds the complete coarse solution, and the fresh
    /// fine/coarse grids start at zero — by the linearity construction
    /// all pre-existing field content is attributed to "exterior"
    /// sources, which is exactly consistent.
    pub fn add_mr_patch(&mut self, cfg: MrConfig) {
        assert!(self.mr.is_none(), "one refinement patch at a time");
        assert!(
            self.precision == Precision::F64,
            "mesh refinement requires f64 precision (the fine/coarse \
             linearity construction is not validated in mixed precision)"
        );
        let lvl = MrLevel::new(&self.fs, cfg, self.order.ngrow());
        if cfg.subcycle {
            // c dt < dx_fine = dx/rr requires cfl < sqrt(d)/rr.
            let d = self.dim.axes().len() as f64;
            let max_cfl = d.sqrt() / cfg.rr as f64;
            assert!(
                self.cfl < max_cfl,
                "subcycling at rr = {} needs cfl < {max_cfl:.3}                  (particle moves must stay below one fine cell)",
                cfg.rr
            );
            self.dt = dt_at(self.dim, &self.fs.geom.dx, self.cfl);
        } else {
            self.dt = dt_at(self.dim, &lvl.fine.geom.dx, self.cfl);
        }
        self.mr = Some(lvl);
    }

    /// Remove the refinement patch (the parent holds the complete coarse
    /// solution, so this is safe at any step boundary). Restores the
    /// coarse-grid time step.
    pub fn remove_mr_patch(&mut self) {
        if self.mr.take().is_some() {
            self.dt = dt_at(self.dim, &self.fs.geom.dx, self.cfl);
        }
    }

    /// Total macroparticles.
    pub fn total_particles(&self) -> usize {
        self.parts.iter().map(|p| p.total()).sum()
    }

    /// Total cells including MR patch cells (for FOM-style accounting).
    pub fn total_cells(&self) -> i64 {
        let base = self.fs.boxarray().total_cells();
        match &self.mr {
            Some(lvl) => {
                base + lvl.fine.boxarray().total_cells() + lvl.coarse.boxarray().total_cells()
            }
            None => base,
        }
    }

    /// Total wall seconds spent in guard/interface exchanges since
    /// construction (parent grids, PML shells, MR patch grids).
    pub fn comm_seconds_total(&self) -> f64 {
        let mut s = self.fs.comm_seconds();
        if let Some(pml) = &self.pml {
            s += pml.comm_seconds();
        }
        if let Some(mr) = &self.mr {
            s += mr.comm_seconds();
        }
        s
    }

    /// Total exchange-plan constructions since start. Steady-state steps
    /// must not add to this once plans are warm.
    pub fn plan_builds_total(&self) -> u64 {
        let mut n = self.fs.plan_builds();
        if let Some(pml) = &self.pml {
            n += pml.plan_builds();
        }
        if let Some(mr) = &self.mr {
            n += mr.plan_builds();
        }
        n
    }

    /// Aggregate communication counters since construction (parent grids,
    /// PML shells, MR patch grids).
    pub fn comm_stats_total(&self) -> CommStats {
        let mut s = self.fs.comm_stats();
        if let Some(pml) = &self.pml {
            s.merge(&pml.comm_stats());
        }
        if let Some(mr) = &self.mr {
            s.merge(&mr.comm_stats());
        }
        s
    }

    /// NaN/Inf sentinel, run once per sentinel step after the field
    /// advance. The fast path scans only the E arrays of the parent and
    /// (with MR) the aux grids: every upstream non-finite value funnels
    /// into those within at most one step — a bad J enters E through the
    /// E update, a bad B through the next curl, and bad fine/coarse
    /// fields through the per-step aux rebuild. Only a hit pays for the
    /// full rescan that walks the producers in step order (deposit
    /// currents, then the field grids) to attribute the trip to the
    /// phase and grid where the value originated.
    fn sentinel_fields(&self, step: u64) -> Option<GuardTrip> {
        let e_names = ["Ex", "Ey", "Ez"];
        let b_names = ["Bx", "By", "Bz"];
        let j_names = ["Jx", "Jy", "Jz"];
        let scan_e = |e: &[FabArray; 3]| scan_arrays(e_names.into_iter().zip(e.iter()));
        let detected = scan_e(&self.fs.e).is_some()
            || self
                .mr
                .as_ref()
                .is_some_and(|mr| scan_e(&mr.aux.e).is_some());
        if !detected {
            return None;
        }
        let scan_eb = |e: &[FabArray; 3], b: &[FabArray; 3]| {
            scan_e(e).or_else(|| scan_arrays(b_names.into_iter().zip(b.iter())))
        };
        if let Some(j) = scan_arrays(j_names.into_iter().zip(self.fs.j.iter())) {
            return Some(Self::trip(step, "deposit", "parent", j));
        }
        if let Some(h) = scan_eb(&self.fs.e, &self.fs.b) {
            return Some(Self::trip(step, "maxwell", "parent", h));
        }
        if let Some(mr) = &self.mr {
            if let Some(j) = scan_arrays(j_names.into_iter().zip(mr.fine.j.iter())) {
                return Some(Self::trip(step, "deposit", "mr.fine", j));
            }
            for (grid, fs) in [
                ("mr.fine", &mr.fine),
                ("mr.coarse", &mr.coarse),
                ("mr.aux", &mr.aux),
            ] {
                if let Some(h) = scan_eb(&fs.e, &fs.b) {
                    return Some(Self::trip(step, "mr", grid, h));
                }
            }
        }
        None
    }

    fn trip(step: u64, phase: &str, grid: &str, hit: crate::telemetry::SentinelHit) -> GuardTrip {
        GuardTrip {
            step,
            phase: phase.to_string(),
            grid: grid.to_string(),
            component: hit.component,
            box_id: hit.box_id,
        }
    }

    /// Advance one full PIC step (single-rank communication backend).
    pub fn step(&mut self) -> StepStats {
        self.step_with(&mut crate::exchange::LocalComm)
    }

    /// Advance one full PIC step, routing all cross-ownership
    /// communication (guard fills, current sums, particle
    /// redistribution, rebalance adoption) through `comm`. Every
    /// conforming backend produces bitwise identical state — see the
    /// determinism contract on [`crate::exchange::StepComm`].
    pub fn step_with(&mut self, comm: &mut dyn crate::exchange::StepComm) -> StepStats {
        let mut stats = StepStats::default();
        let mut phases = PhaseTimes::default();
        let step_idx = self.istep;
        comm.begin_step(step_idx);
        let dt = self.dt;
        let comm0 = self.comm_stats_total();
        let sentinel_due = self.telemetry.sentinel_due(step_idx);
        let mut guard: Option<GuardTrip> = None;
        let _step_span = mrpic_trace::span!("step", -1, step_idx);
        let t_step = std::time::Instant::now();
        let t_part = t_step;

        // Periodic locality sort.
        let t0 = std::time::Instant::now();
        let sp = mrpic_trace::span!("sort");
        if self.sort_interval > 0 && self.istep.is_multiple_of(self.sort_interval) && self.istep > 0
        {
            let geom = self.fs.geom;
            for pc in &mut self.parts {
                for buf in &mut pc.bufs {
                    buf.sort_by_cell(&geom);
                }
            }
        }
        drop(sp);
        phases.sort = t0.elapsed().as_secs_f64();

        // 1. Zero currents.
        self.fs.zero_j();
        if let Some(mr) = &mut self.mr {
            mr.zero_j();
        }

        // 2. Particle loop: gather, push, deposit (box-parallel).
        let nfabs = self.fs.nfabs();
        self.box_seconds.resize(nfabs, 0.0);
        self.box_seconds.fill(0.0);
        self.box_phase.resize(nfabs, [0.0; 3]);
        self.box_phase.fill([0.0; 3]);
        let nspecies = self.species.len();
        let sp = mrpic_trace::span!("particle");
        for si in 0..nspecies {
            stats.pushed += match self.precision {
                Precision::F64 => self.advance_species::<f64>(si, dt),
                Precision::F32Particles => self.advance_species::<f32>(si, dt),
            };
        }
        drop(sp);
        for ph in &self.box_phase {
            phases.gather += ph[0];
            phases.push += ph[1];
            phases.deposit += ph[2];
        }

        // 3. Current exchanges, smoothing and MR coupling.
        let t0 = std::time::Instant::now();
        let sp = mrpic_trace::span!("sum");
        {
            let period = self.fs.period;
            let [j0, j1, j2] = &mut self.fs.j;
            comm.sum_group(&mut [j0, j1, j2], &period);
        }
        if self.filter_passes > 0 {
            mrpic_field::filter::filter_current(&mut self.fs, self.filter_passes);
        }
        if let Some(mr) = &mut self.mr {
            let margin = crate::mr::restriction_margin(self.order.order(), mr.cfg.rr);
            mr.couple_currents(&mut self.fs, margin);
        }

        // 4. Laser antennas (time-centered with J at n + 1/2).
        let t_half = self.time + 0.5 * dt;
        let lasers = std::mem::take(&mut self.lasers);
        for l in &lasers {
            if l.active(&self.fs) {
                l.deposit(&mut self.fs, t_half);
            }
        }
        self.lasers = lasers;
        drop(sp);
        phases.sum = t0.elapsed().as_secs_f64();
        stats.particle_seconds = t_part.elapsed().as_secs_f64();

        // 5. Field advance (B half / E / B half) with PML exchanges.
        let t_field = std::time::Instant::now();
        let sp = mrpic_trace::span!("maxwell");
        self.advance_fields(dt, comm);
        drop(sp);
        phases.maxwell = t_field.elapsed().as_secs_f64();
        let t0 = std::time::Instant::now();
        let sp = mrpic_trace::span!("mr");
        if let Some(mr) = &mut self.mr {
            mr.advance_fields(dt);
            mr.build_aux(&self.fs);
        }
        drop(sp);
        phases.mr = t0.elapsed().as_secs_f64();
        stats.field_seconds = t_field.elapsed().as_secs_f64();

        if sentinel_due {
            guard = self.sentinel_fields(step_idx);
        }

        // 6. Particle redistribution.
        let t0 = std::time::Instant::now();
        let sp = mrpic_trace::span!("redistribute");
        let geom = self.fs.geom;
        let period = self.fs.period;
        for pc in &mut self.parts {
            stats.deleted += comm.redistribute(pc, self.fs.boxarray(), &geom, &period);
        }
        drop(sp);
        phases.redistribute = t0.elapsed().as_secs_f64();

        // 7. Moving window.
        let t0 = std::time::Instant::now();
        let sp = mrpic_trace::span!("window");
        self.time += dt;
        self.istep += 1;
        if let Some(mut win) = self.window {
            if self.time >= win.start_time {
                win.accum += mrpic_kernels::constants::C * dt / self.fs.geom.dx[0];
                while win.accum >= 1.0 {
                    win.accum -= 1.0;
                    self.shift_window_once(win.inject_at_front);
                    stats.window_shifts += 1;
                }
            }
            self.window = Some(win);
        }
        drop(sp);
        phases.window = t0.elapsed().as_secs_f64();

        // 8. Cost tracking & trace-driven dynamic load balancing.
        let t0 = std::time::Instant::now();
        let sp = mrpic_trace::span!("lb");
        for s in &mut self.box_seconds {
            *s = s.max(1e-9);
        }
        match self.lb.as_ref().map(|p| p.cfg().cost_source) {
            Some(balance::CostSource::Heuristic) => {
                let ba = self.fs.boxarray();
                let cells: Vec<i64> = ba.iter().map(|b| b.num_cells()).collect();
                let particles: Vec<usize> = (0..ba.len())
                    .map(|bi| self.parts.iter().map(|pc| pc.bufs[bi].len()).sum())
                    .collect();
                self.cost.record_heuristic(&cells, &particles);
            }
            _ => self.cost.record(&self.box_seconds),
        }
        comm.note_box_seconds(&self.box_seconds);
        // The per-rank records are complete once the box seconds are
        // attributed; drain them here so *this* step's measurement can
        // drive the rebalance trigger. (Migration traffic from an
        // adoption below is accounted to the next step's records.)
        let rank_records = comm.take_rank_records();
        let fault_stats = comm.take_fault_stats();
        // Telemetry imbalance, two provenances: per-rank busy time when
        // rank records exist, per-box cost max/mean otherwise.
        let imbalance = rank_imbalance(&rank_records).or_else(|| box_imbalance(&self.box_seconds));
        let mut lb_decision: Option<balance::LbDecision> = None;
        // Take the policy out of `self` so candidate evaluation can
        // borrow the rest of the simulation state.
        if let Some(mut policy) = self.lb.take() {
            // Trigger signal: the measured wall-clock metric, except in
            // heuristic mode where the mapping imbalance over FOM costs
            // keeps decisions bit-reproducible across runs.
            let trigger_metric = match policy.cfg().cost_source {
                balance::CostSource::Heuristic => self.dm.imbalance(self.cost.costs()),
                balance::CostSource::Measured => {
                    imbalance.unwrap_or_else(|| self.dm.imbalance(self.cost.costs()))
                }
            };
            // Last step's evaluation gets its realized metric and goes
            // out with this step's record.
            lb_decision = policy.finish_pending(Some(trigger_metric));
            if policy.observe(trigger_metric) {
                let _dspan = mrpic_trace::span!("lb_decision", -1, step_idx);
                let per_box_bytes = self.migration_bytes_per_box();
                let adopt = policy.evaluate(
                    step_idx,
                    trigger_metric,
                    self.fs.boxarray(),
                    &self.dm,
                    self.cost.costs(),
                    &per_box_bytes,
                    self.fs.ngrow,
                );
                if let Some(mapping) = adopt {
                    stats.rebalances += 1;
                    // Physically migrate fab data and particle tiles to
                    // the new owners (a no-op in a single address space).
                    comm.adopt_mapping(&self.dm, &mapping, &mut self.fs, &mut self.parts);
                    // Ownership changed: conservatively drop cached plans.
                    self.fs.invalidate_plans();
                    self.dm = mapping;
                }
            }
            self.lb = Some(policy);
        }
        drop(sp);
        phases.lb = t0.elapsed().as_secs_f64();

        let comm_delta = self.comm_stats_total().delta_since(&comm0);
        phases.fill = comm_delta.seconds;
        stats.exchange_seconds = comm_delta.seconds;
        self.stats = stats;
        // Per-step deltas of the trace metrics registry (message bytes,
        // recv-wait, per-box kernel times, ...), only while tracing.
        let trace_hists = if mrpic_trace::enabled() {
            let (summaries, mark) = mrpic_trace::metrics::summaries_since(&self.metrics_mark);
            self.metrics_mark = mark;
            summaries
        } else {
            Vec::new()
        };

        if self.telemetry.cfg.enabled {
            let probes = self.telemetry.probes_due(step_idx).then(|| Probes {
                field_energy: mrpic_field::energy::field_energy(&self.fs),
                gauss_residual: self.gauss_residual_norm(),
            });
            let particles = self
                .species
                .iter()
                .enumerate()
                .map(|(si, sp)| SpeciesCount {
                    name: sp.name.clone(),
                    count: self.parts[si].total() as u64,
                })
                .collect();
            self.telemetry.record(StepRecord {
                step: step_idx,
                time: self.time,
                dt,
                seconds: t_step.elapsed().as_secs_f64(),
                phases,
                comm: comm_delta,
                particles,
                pushed: stats.pushed as u64,
                deleted: stats.deleted as u64,
                window_shifts: stats.window_shifts,
                rebalances: stats.rebalances,
                probes,
                guard,
                rank_count: (!rank_records.is_empty()).then_some(rank_records.len()),
                ranks: rank_records,
                faults: fault_stats,
                imbalance,
                lb: lb_decision,
                trace_hists,
                precision: self.precision,
            });
        }
        stats
    }

    /// Order-fixed FNV-1a digest of the complete physics state: step
    /// and time, every parent-level fab, the MR patch's fine/coarse/aux
    /// fields, and every particle component, all hashed as raw `f64`
    /// bits. Two runs whose digests agree hold bitwise-identical state
    /// (up to hash collision); `mrpic_run` writes it to `summary.json`
    /// so separate OS processes — e.g. the socket-transport rank mesh —
    /// can prove state equivalence without sharing an address space.
    pub fn state_digest(&self) -> u64 {
        fn fnv(h: &mut u64, v: u64) {
            *h ^= v;
            *h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        fn fnv_fs(h: &mut u64, fs: &FieldSet) {
            for fa in fs.e.iter().chain(&fs.b).chain(&fs.j) {
                for bi in 0..fa.nfabs() {
                    for v in fa.fab(bi).raw() {
                        fnv(h, v.to_bits());
                    }
                }
            }
        }
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        fnv(&mut h, self.istep);
        fnv(&mut h, self.time.to_bits());
        fnv_fs(&mut h, &self.fs);
        if let Some(mr) = &self.mr {
            fnv_fs(&mut h, &mr.fine);
            fnv_fs(&mut h, &mr.coarse);
            fnv_fs(&mut h, &mr.aux);
        }
        for pc in &self.parts {
            for buf in &pc.bufs {
                fnv(&mut h, buf.len() as u64);
                for comp in [&buf.x, &buf.y, &buf.z, &buf.ux, &buf.uy, &buf.uz, &buf.w] {
                    for v in comp {
                        fnv(&mut h, v.to_bits());
                    }
                }
            }
        }
        h
    }

    /// Payload bytes that would move if each box changed owner: the
    /// nine parent-level fab raw slices plus every species' 7-`f64`
    /// particle tuples — the exact wire format of the `mrpic-dist`
    /// migration frames, so the policy's migration pricing matches what
    /// an adoption actually ships.
    fn migration_bytes_per_box(&self) -> Vec<u64> {
        let nboxes = self.fs.nfabs();
        let mut out = vec![0u64; nboxes];
        for (bi, b) in out.iter_mut().enumerate() {
            for fa in self.fs.e.iter().chain(&self.fs.b).chain(&self.fs.j) {
                *b += 8 * fa.fab(bi).raw().len() as u64;
            }
            for pc in &self.parts {
                *b += 8 * 7 * pc.bufs[bi].len() as u64;
            }
        }
        out
    }

    /// Max-norm of the Gauss-law residual `div E - rho/eps0` over interior
    /// nodes, with charge deposited at the simulation's shape order.
    ///
    /// The Esirkepov + Yee combination conserves this residual pointwise,
    /// so it should hold its initial value to near machine precision; a
    /// drift flags a charge-conservation bug. Sources that bypass
    /// Esirkepov (laser antenna currents) legitimately move it near their
    /// injection plane. Nodes within `order + 3` cells of a domain edge
    /// are excluded (PML, window injection, and deposition clouds
    /// straddling the boundary).
    pub fn gauss_residual_norm(&self) -> f64 {
        let dim = self.dim;
        let order = self.order;
        let geom = self.fs.geom;
        let kg = geom.kernel_geom();
        let ngrow = guard_vec(dim, order.ngrow());
        // Fresh array: its CommStats are dropped with it, so the probe
        // does not pollute the step's comm delta.
        let mut rho = FabArray::new_vec(self.fs.boxarray().clone(), rho_stagger(dim), 1, ngrow);
        for (si, pc) in self.parts.iter().enumerate() {
            let q = self.species[si].charge;
            for (bi, buf) in pc.bufs.iter().enumerate() {
                if buf.is_empty() {
                    continue;
                }
                let mut view = view_of_fab_mut(rho.fab_mut(bi));
                with_shape!(
                    order,
                    S,
                    match dim {
                        Dim::Three => deposit_rho3::<S, f64>(
                            &buf.x, &buf.y, &buf.z, &buf.w, q, &kg, &mut view,
                        ),
                        Dim::Two =>
                            deposit_rho2::<S, f64>(&buf.x, &buf.z, &buf.w, q, &kg, &mut view,),
                    }
                );
            }
        }
        rho.sum_boundary(&self.fs.period);
        let eps0 = mrpic_kernels::constants::EPS0;
        let dom = self.fs.domain();
        let m = order.ngrow() + 1;
        let mut max_resid = 0.0f64;
        for bi in 0..self.fs.nfabs() {
            let fab = rho.fab(bi);
            // Point boxes are half-open; clip to inclusive node ranges at
            // least `m` nodes inside the domain (nodes span lo..=dom.hi).
            let vb = fab.valid_pts();
            let lo = IntVect::new(
                vb.lo.x.max(dom.lo.x + m),
                if dim == Dim::Two {
                    vb.lo.y
                } else {
                    vb.lo.y.max(dom.lo.y + m)
                },
                vb.lo.z.max(dom.lo.z + m),
            );
            let hi = IntVect::new(
                (vb.hi.x - 1).min(dom.hi.x - m),
                if dim == Dim::Two {
                    vb.hi.y - 1
                } else {
                    (vb.hi.y - 1).min(dom.hi.y - m)
                },
                (vb.hi.z - 1).min(dom.hi.z - m),
            );
            let (ex, ey, ez) = (
                self.fs.e[0].fab(bi),
                self.fs.e[1].fab(bi),
                self.fs.e[2].fab(bi),
            );
            for k in lo.z..=hi.z {
                for jy in lo.y..=hi.y {
                    for i in lo.x..=hi.x {
                        let p = IntVect::new(i, jy, k);
                        let mut dive = (ex.get(0, p) - ex.get(0, IntVect::new(i - 1, jy, k)))
                            / geom.dx[0]
                            + (ez.get(0, p) - ez.get(0, IntVect::new(i, jy, k - 1))) / geom.dx[2];
                        if dim == Dim::Three {
                            dive +=
                                (ey.get(0, p) - ey.get(0, IntVect::new(i, jy - 1, k))) / geom.dx[1];
                        }
                        let r = fab.get(0, p);
                        max_resid = max_resid.max((dive - r / eps0).abs());
                    }
                }
            }
        }
        max_resid
    }

    /// Gather/push/deposit for one species, box-parallel, with the
    /// particle kernels in precision `R` (`f64`, or `f32` for
    /// [`Precision::F32Particles`]; positions are pushed in `f64`
    /// either way, so long moving-window runs keep full cell
    /// resolution). Every (box, particle-buffer) pair is an independent
    /// work item with disjoint `&mut` views of the parent currents.
    /// Fine-patch deposition goes to per-box buffers reduced in
    /// ascending box order afterwards, and the per-box cost timers live
    /// on the work items, so the physics *and* the accounting are
    /// bitwise independent of the thread count.
    fn advance_species<R: ParticleReal>(&mut self, si: usize, dt: f64) -> usize {
        let dim = self.dim;
        let order = self.order;
        let sp_charge = self.species[si].charge;
        let sp_mass = self.species[si].mass;
        let pusher = self.species[si].pusher;
        let qmdt2 = R::from_f64(sp_charge * dt / (2.0 * sp_mass));
        let (q, dt_r) = (R::from_f64(sp_charge), R::from_f64(dt));
        let geom = self.fs.geom.kernel_geom();
        let lane_width = self.lane_width;
        let lanes = self.use_optimized_kernels.then_some(lane_width);
        // MR routing regions in physical coordinates.
        let mr_regions = self
            .mr
            .as_ref()
            .map(|mr| (mr.patch_phys(&self.fs.geom), mr.gather_phys(&self.fs.geom)));
        let nboxes = self.fs.nfabs();
        self.fine_j_pool.resize_with(nboxes, FineJBuf::default);
        // Split the state into disjoint borrows: E/B shared (gather
        // source), J components mutable per box (deposition target).
        let mr = self.mr.as_ref();
        let FieldSet { e, b, j, .. } = &mut self.fs;
        let (e, b) = (&*e, &*b);
        let [jx_arr, jy_arr, jz_arr] = j;
        let mut pushed = 0usize;
        let mut tasks: Vec<BoxTask<'_>> = Vec::with_capacity(nboxes);
        {
            let mut jxs = jx_arr.fabs_mut().iter_mut();
            let mut jys = jy_arr.fabs_mut().iter_mut();
            let mut jzs = jz_arr.fabs_mut().iter_mut();
            let mut fine = self.fine_j_pool.iter_mut();
            let mut secs = self.box_seconds.iter_mut();
            let mut phs = self.box_phase.iter_mut();
            for (bi, buf) in self.parts[si].bufs.iter_mut().enumerate() {
                let jx = jxs.next().expect("J layout matches particle boxes");
                let jy = jys.next().expect("J layout matches particle boxes");
                let jz = jzs.next().expect("J layout matches particle boxes");
                let fine_j = fine.next().expect("pool sized to nboxes");
                let seconds = secs.next().expect("box_seconds sized to nboxes");
                let phase = phs.next().expect("box_phase sized to nboxes");
                if buf.is_empty() {
                    continue;
                }
                pushed += buf.len();
                tasks.push(BoxTask {
                    bi,
                    buf,
                    jx,
                    jy,
                    jz,
                    fine_j,
                    seconds,
                    phase,
                });
            }
        }
        let pool = R::pool(&self.scratch);
        tasks.par_iter_mut().for_each_init(
            || ScratchGuard::checkout(pool),
            |guard, task| {
                let _box_span = mrpic_trace::span!("box", -1, task.bi);
                let gather_span = mrpic_trace::span!("gather", -1, task.bi);
                let t0 = std::time::Instant::now();
                // Partition for MR routing: [aux-gather | transition | outside].
                let (c_aux, c_fine) = match &mr_regions {
                    Some(((plo, phi), (glo, ghi))) => {
                        let (plo, phi, glo, ghi) = (*plo, *phi, *glo, *ghi);
                        let in_patch = move |x: f64, y: f64, z: f64| {
                            x >= plo[0]
                                && x < phi[0]
                                && (dim == Dim::Two || (y >= plo[1] && y < phi[1]))
                                && z >= plo[2]
                                && z < phi[2]
                        };
                        let in_gather = move |x: f64, y: f64, z: f64| {
                            x >= glo[0]
                                && x < ghi[0]
                                && (dim == Dim::Two || (y >= glo[1] && y < ghi[1]))
                                && z >= glo[2]
                                && z < ghi[2]
                        };
                        task.buf.partition3(in_patch, in_gather)
                    }
                    None => (0, 0),
                };
                let buf = &mut *task.buf;
                let n = buf.len();
                let Scratch {
                    em,
                    old,
                    vy,
                    new,
                    u,
                    w,
                    fld,
                    j,
                } = &mut guard.sc;
                for (dst, src) in old.iter_mut().zip([&buf.x, &buf.y, &buf.z]) {
                    cast_into(dst, src);
                }
                for v in em.iter_mut().chain([&mut *vy]) {
                    v.resize(n.max(v.len()), R::ZERO);
                }
                let [x0, y0, z0] = &*old;
                // Gather: [0..c_aux) from the MR aux grid (reference
                // kernel), rest from the parent.
                if c_aux > 0 {
                    let mr = mr.expect("partitioned => MR present");
                    let views = stage_em(fld, mr.aux.em_views(0));
                    gather(
                        dim,
                        order,
                        None,
                        &x0[..c_aux],
                        &y0[..c_aux],
                        &z0[..c_aux],
                        &mr.aux.geom.kernel_geom(),
                        &views,
                        &mut em_out(em, 0, c_aux),
                    );
                }
                if c_aux < n {
                    let bi = task.bi;
                    let parent = EmViews {
                        ex: fab_view(&e[0], bi),
                        ey: fab_view(&e[1], bi),
                        ez: fab_view(&e[2], bi),
                        bx: fab_view(&b[0], bi),
                        by: fab_view(&b[1], bi),
                        bz: fab_view(&b[2], bi),
                    };
                    let views = stage_em(fld, parent);
                    gather(
                        dim,
                        order,
                        lanes,
                        &x0[c_aux..n],
                        &y0[c_aux..n],
                        &z0[c_aux..n],
                        &geom,
                        &views,
                        &mut em_out(em, c_aux, n),
                    );
                }
                drop(gather_span);
                let push_span = mrpic_trace::span!("push", -1, task.bi);
                let t_push = std::time::Instant::now();
                task.phase[0] += t_push.duration_since(t0).as_secs_f64();
                // Momentum push (the lane tiling is bitwise identical to
                // the scalar pusher, so no `lanes` split is needed), then
                // vy at the half step.
                {
                    let [ux, uy, uz] = R::momenta(u, buf);
                    let [ex, ey, ez, bx, by, bz] = &*em;
                    with_lanes!(
                        lane_width,
                        W,
                        Lanes::<W>::push_momentum(
                            pusher,
                            ux,
                            uy,
                            uz,
                            &ex[..n],
                            &ey[..n],
                            &ez[..n],
                            &bx[..n],
                            &by[..n],
                            &bz[..n],
                            qmdt2,
                        )
                    );
                    for p in 0..n {
                        vy[p] = uy[p] / gamma_of_u(ux[p], uy[p], uz[p]);
                    }
                }
                R::store_momenta(u, buf);
                match dim {
                    Dim::Three => push_position(
                        &mut buf.x[..n],
                        &mut buf.y[..n],
                        &mut buf.z[..n],
                        &buf.ux[..n],
                        &buf.uy[..n],
                        &buf.uz[..n],
                        dt,
                    ),
                    Dim::Two => push_position2(
                        &mut buf.x[..n],
                        &mut buf.z[..n],
                        &buf.ux[..n],
                        &buf.uy[..n],
                        &buf.uz[..n],
                        dt,
                    ),
                }
                drop(push_span);
                let deposit_span = mrpic_trace::span!("deposit", -1, task.bi);
                let t_dep = std::time::Instant::now();
                task.phase[1] += t_dep.duration_since(t_push).as_secs_f64();
                let [x1, y1, z1] = new;
                let moved = Moved {
                    old: [x0, y0, z0],
                    new: [
                        R::stage(x1, &buf.x),
                        R::stage(y1, &buf.y),
                        R::stage(z1, &buf.z),
                    ],
                    vy: &vy[..n],
                    w: R::stage(w, &buf.w),
                };
                // Deposit: [0..c_fine) to the per-box fine buffer (reduced
                // in box order after the loop), rest to this box's J fabs.
                if c_fine > 0 {
                    let mr = mr.expect("partitioned => MR present");
                    let fine_geom = mr.fine.geom.kernel_geom();
                    task.fine_j.used = true;
                    let fine_fabs = [
                        mr.fine.j[0].fab(0),
                        mr.fine.j[1].fab(0),
                        mr.fine.j[2].fab(0),
                    ];
                    for (c, fab) in fine_fabs.iter().enumerate() {
                        let len = fab.comp(0).len();
                        task.fine_j.j[c].resize(len, 0.0);
                        task.fine_j.j[c].fill(0.0);
                    }
                    let [fjx, fjy, fjz] = &mut task.fine_j.j;
                    let target = JViews {
                        jx: view_over(fine_fabs[0], fjx),
                        jy: view_over(fine_fabs[1], fjy),
                        jz: view_over(fine_fabs[2], fjz),
                    };
                    R::deposit_into(j, target, |jv| {
                        deposit(
                            dim, order, lanes, &moved, 0, c_fine, q, dt_r, &fine_geom, jv,
                        )
                    });
                }
                if c_fine < n {
                    let target = JViews {
                        jx: view_of_fab_mut(task.jx),
                        jy: view_of_fab_mut(task.jy),
                        jz: view_of_fab_mut(task.jz),
                    };
                    R::deposit_into(j, target, |jv| {
                        deposit(dim, order, lanes, &moved, c_fine, n, q, dt_r, &geom, jv)
                    });
                }
                drop(deposit_span);
                task.phase[2] += t_dep.elapsed().as_secs_f64();
                let box_ns = t0.elapsed().as_nanos() as u64;
                *task.seconds += box_ns as f64 * 1e-9;
                if mrpic_trace::enabled() {
                    box_kernel_hist().record(box_ns);
                }
            },
        );
        drop(tasks);
        // Deterministic ordered reduction of the fine-patch deposition:
        // ascending box index, independent of which thread ran which box.
        if let Some(mr) = self.mr.as_mut() {
            for slot in self.fine_j_pool.iter_mut() {
                if !slot.used {
                    continue;
                }
                slot.used = false;
                for c in 0..3 {
                    let dst = mr.fine.j[c].fab_mut(0).comp_mut(0);
                    for (d, s) in dst.iter_mut().zip(slot.j[c].iter()) {
                        *d += *s;
                    }
                }
            }
        }
        pushed
    }

    /// Full leapfrog field advance with PML interface exchanges. Guard
    /// fills of E and B go through `comm`; the Yee updates and the
    /// (rank-colocated, paper §V-C) PML exchanges stay local.
    fn advance_fields(&mut self, dt: f64, comm: &mut dyn crate::exchange::StepComm) {
        fn fill3(
            comm: &mut dyn crate::exchange::StepComm,
            arrays: &mut [FabArray; 3],
            period: &Periodicity,
        ) {
            let [a0, a1, a2] = arrays;
            comm.fill_group(&mut [a0, a1, a2], period);
        }
        let period = self.fs.period;
        let fs = &mut self.fs;
        fill3(comm, &mut fs.e, &period);
        if let Some(pml) = &mut self.pml {
            pml.exchange_e(fs);
        }
        yee::advance_b(fs, 0.5 * dt);
        if let Some(pml) = &mut self.pml {
            pml.advance_b(0.5 * dt);
        }
        fill3(comm, &mut fs.b, &period);
        if let Some(pml) = &mut self.pml {
            pml.exchange_b(fs);
        }
        yee::advance_e(fs, dt);
        if let Some(pml) = &mut self.pml {
            pml.advance_e(dt);
        }
        fill3(comm, &mut fs.e, &period);
        if let Some(pml) = &mut self.pml {
            pml.exchange_e(fs);
        }
        yee::advance_b(fs, 0.5 * dt);
        if let Some(pml) = &mut self.pml {
            pml.advance_b(0.5 * dt);
        }
        fill3(comm, &mut fs.b, &period);
        if let Some(pml) = &mut self.pml {
            pml.exchange_b(fs);
        }
    }

    /// Shift the window by one cell along +x.
    fn shift_window_once(&mut self, inject_front: bool) {
        let shift = IntVect::new(1, 0, 0);
        self.fs.shift_window(shift);
        if let Some(pml) = &mut self.pml {
            pml.shift_window(shift);
        }
        if let Some(mr) = &mut self.mr {
            mr.shift_window(shift);
        }
        self.fs.geom.x0[0] += self.fs.geom.dx[0];
        // Drop particles that fell off the trailing edge, re-own the rest.
        let geom = self.fs.geom;
        let period = self.fs.period;
        let cut = geom.node(0, self.fs.domain().lo.x);
        for pc in &mut self.parts {
            pc.drop_behind(cut);
            pc.redistribute(self.fs.boxarray(), &geom, &period);
        }
        // Inject fresh plasma in the newly exposed leading strip.
        if inject_front {
            let dom = self.fs.domain();
            let strip = IndexBox::new(IntVect::new(dom.hi.x - 1, dom.lo.y, dom.lo.z), dom.hi);
            for (si, sp) in self.species.iter().enumerate() {
                inject(
                    sp,
                    self.dim,
                    &geom,
                    self.fs.boxarray(),
                    &strip,
                    &mut self.parts[si],
                    self.seed ^ (si as u64) ^ self.istep.wrapping_mul(0x9E3779B97F4A7C15),
                );
            }
        }
    }

    /// Per-box particle-phase seconds measured during the last step
    /// (empty before the first step). Distributed drivers aggregate
    /// these by owner for per-rank load records.
    pub fn box_seconds(&self) -> &[f64] {
        &self.box_seconds
    }

    /// Field + particle energy (diagnostics).
    pub fn total_energy(&self) -> (f64, f64) {
        let fe = mrpic_field::energy::field_energy(&self.fs);
        let mut ke = 0.0;
        for (si, pc) in self.parts.iter().enumerate() {
            let m = self.species[si].mass;
            for buf in &pc.bufs {
                for i in 0..buf.len() {
                    ke +=
                        buf.w[i] * crate::diag::kinetic_energy(m, buf.ux[i], buf.uy[i], buf.uz[i]);
                }
            }
        }
        (fe, ke)
    }

    /// Run `n` steps.
    pub fn run(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Drop every cached exchange plan (parent grids, PML shells, MR
    /// patch). Required whenever field data or ownership changed under
    /// the caches — a checkpoint restore rewrote state in place, or a
    /// crash recovery shrank the rank set and rebuilt the distribution
    /// mapping.
    pub fn invalidate_all_plans(&mut self) {
        self.fs.invalidate_plans();
        if let Some(pml) = &mut self.pml {
            pml.invalidate_plans();
        }
        if let Some(mr) = &mut self.mr {
            mr.invalidate_plans();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Profile;
    use mrpic_kernels::constants::{plasma_frequency, C, EPS0, Q_E};

    /// Cold plasma oscillation: displace all electrons slightly and watch
    /// the current oscillate at the plasma frequency.
    #[test]
    fn plasma_oscillation_frequency() {
        let n0 = 1.0e25;
        let wp = plasma_frequency(n0);
        let dx = 0.5e-6;
        let mut sim = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(32, 1, 8), [dx; 3], [0.0; 3])
            .periodic([true, true, true])
            .order(ShapeOrder::Quadratic)
            .cfl(0.5)
            .add_species(
                Species::electrons("e", Profile::Uniform { n0 }, [2, 1, 2])
                    .with_drift([1.0e6, 0.0, 0.0]),
            )
            .build();
        // Track Ex at a probe: should oscillate at wp.
        let mut exs: Vec<f64> = Vec::new();
        let steps = (2.5 * 2.0 * std::f64::consts::PI / wp / sim.dt) as usize;
        for _ in 0..steps {
            sim.step();
            exs.push(sim.fs.e[0].at(0, IntVect::new(16, 0, 4)).unwrap());
        }
        // The oscillation is (1 - cos)-like: detect upward crossings of
        // the mean value.
        let mean: f64 = exs.iter().sum::<f64>() / exs.len() as f64;
        let mut crossings = Vec::new();
        for i in 1..exs.len() {
            if exs[i - 1] < mean && exs[i] >= mean {
                crossings.push(i as f64);
            }
        }
        assert!(crossings.len() >= 2, "no oscillation seen");
        let period_steps =
            (crossings.last().unwrap() - crossings[0]) / (crossings.len() - 1) as f64;
        let wp_meas = 2.0 * std::f64::consts::PI / (period_steps * sim.dt);
        assert!(
            (wp_meas / wp - 1.0).abs() < 0.05,
            "measured wp {wp_meas:e} vs {wp:e}"
        );
    }

    /// A uniform drifting plasma is force-free (current is uniform): the
    /// total energy must stay nearly constant.
    #[test]
    fn uniform_plasma_energy_conservation() {
        let mut sim = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(16, 1, 16), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .order(ShapeOrder::Cubic)
            .add_species(
                Species::electrons("e", Profile::Uniform { n0: 1.0e24 }, [2, 1, 2])
                    .with_thermal([1.0e7; 3]),
            )
            .build();
        let (fe0, ke0) = sim.total_energy();
        sim.run(100);
        let (fe1, ke1) = sim.total_energy();
        let tot0 = fe0 + ke0;
        let tot1 = fe1 + ke1;
        assert!(
            (tot1 - tot0).abs() < 0.02 * tot0,
            "energy drift {tot0:e} -> {tot1:e}"
        );
    }

    /// Gauss's law is preserved by the Esirkepov + Yee combination:
    /// div E - rho/eps0 stays at its initial value to near machine
    /// precision.
    #[test]
    fn gauss_law_preservation() {
        let mut sim = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(16, 1, 16), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .order(ShapeOrder::Quadratic)
            .add_species(
                Species::electrons("e", Profile::Uniform { n0: 1.0e24 }, [2, 1, 1])
                    .with_thermal([3.0e7, 3.0e7, 3.0e7]),
            )
            .seed(5)
            .build();
        let gauss_residual = |sim: &Simulation| -> f64 {
            // rho from particles with the same quadratic shape.
            let dom = sim.fs.domain();
            let geom = sim.fs.geom;
            let n = dom.size();
            // Margin absorbs deposition clouds of the periodic images
            // (each image is a full domain length away).
            let m = n.x.max(n.z) + 5;
            let (mx, mz) = (n.x + 1 + 2 * m, n.z + 1 + 2 * m);
            let npts = (mx * mz) as usize;
            let mut rho = vec![0.0; npts];
            {
                let mut view = mrpic_kernels::view::FieldViewMut {
                    data: &mut rho,
                    lo: [-m, 0, -m],
                    nx: mx,
                    // Single y plane: the z stride equals the x row.
                    nxy: mx,
                    half: [false; 3],
                };
                // Wrap periodic images by depositing each particle at
                // its wrapped plus shifted copies near the edges.
                let kg = geom.kernel_geom();
                for buf in &sim.parts[0].bufs {
                    for img_x in [-1.0, 0.0, 1.0] {
                        for img_z in [-1.0, 0.0, 1.0] {
                            let lx = n.x as f64 * geom.dx[0];
                            let lz = n.z as f64 * geom.dx[2];
                            let xs: Vec<f64> = buf.x.iter().map(|v| v + img_x * lx).collect();
                            let zs: Vec<f64> = buf.z.iter().map(|v| v + img_z * lz).collect();
                            mrpic_kernels::deposit::deposit_rho2::<Quadratic, f64>(
                                &xs, &zs, &buf.w, -Q_E, &kg, &mut view,
                            );
                        }
                    }
                }
            }
            // div E at interior nodes minus rho/eps0 (2-D: x and z).
            let mut max_resid = 0.0f64;
            for k in 1..n.z {
                for i in 1..n.x {
                    let p = IntVect::new(i, 0, k);
                    let dive = (sim.fs.e[0].at(0, p).unwrap()
                        - sim.fs.e[0].at(0, IntVect::new(i - 1, 0, k)).unwrap())
                        / geom.dx[0]
                        + (sim.fs.e[2].at(0, p).unwrap()
                            - sim.fs.e[2].at(0, IntVect::new(i, 0, k - 1)).unwrap())
                            / geom.dx[2];
                    let r = rho[((k + m) * mx + (i + m)) as usize];
                    max_resid = max_resid.max((dive - r / EPS0).abs());
                }
            }
            max_resid
        };
        let r0 = gauss_residual(&sim);
        sim.run(25);
        let r1 = gauss_residual(&sim);
        // Scale: typical rho/eps0 magnitude.
        let scale = 1.0e24 * Q_E / EPS0 * 1.0e-6; // n q dx / eps0 ~ div E scale
        assert!(
            (r1 - r0).abs() < 1e-6 * scale,
            "Gauss residual drifted: {r0:e} -> {r1:e} (scale {scale:e})"
        );
    }

    /// The moving window keeps a vacuum laser pulse inside the domain.
    #[test]
    fn moving_window_follows_pulse() {
        let dx = 0.1e-6;
        // The window must start only after the pulse has detached from
        // the (lab-fixed) antenna: a window moving at c from t = 0 would
        // outrun light emitted at a fixed plane.
        let mut sim = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(128, 1, 8), [dx; 3], [0.0; 3])
            .periodic([false, false, true])
            .pml(8)
            .cfl(0.7)
            .moving_window(18.0e-15)
            .add_laser(crate::laser::antenna_for_a0(
                0.5,
                0.8e-6,
                5.0e-15,
                16.0 * dx,
                0.0,
                f64::INFINITY,
            ))
            .build();
        sim.lasers[0].t_peak = 8.0e-15;
        let steps = 400;
        for _ in 0..steps {
            sim.step();
        }
        // After many shifts the pulse must still be in the window with
        // its peak amplitude roughly preserved.
        assert!(sim.fs.geom.x0[0] > 10.0 * dx, "window never moved");
        let peak = sim.fs.e[1].max_abs(0);
        let e0 = sim.lasers[0].e0;
        assert!(
            peak > 0.6 * e0,
            "pulse lost by the window: {peak:e} vs {e0:e}"
        );
    }

    /// Relativistic beam in vacuum: ballistic motion across the domain.
    #[test]
    fn ballistic_beam_in_vacuum() {
        let mut sim = SimulationBuilder::new(Dim::Three)
            .domain(IntVect::new(24, 8, 8), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .order(ShapeOrder::Linear)
            .build();
        // One macroparticle, gamma ~ 10 along x.
        let g: f64 = 10.0;
        let u = C * (g * g - 1.0).sqrt();
        sim.parts = vec![ParticleContainer::new(sim.fs.nfabs())];
        sim.species = vec![Species::electrons(
            "beam",
            Profile::Uniform { n0: 0.0 },
            [1, 1, 1],
        )];
        sim.parts[0].bufs[0].push(2.5e-6, 4.5e-6, 4.5e-6, u, 0.0, 0.0, 1.0);
        let x_start = 2.5e-6;
        let steps = 40;
        for _ in 0..steps {
            sim.step();
        }
        let v = u / g;
        let expect = x_start + v * sim.dt * steps as f64;
        let l = 24.0e-6;
        let expect_wrapped = expect - l * ((expect / l).floor());
        // Find the particle.
        let mut found = None;
        for buf in &sim.parts[0].bufs {
            if buf.len() == 1 {
                found = Some(buf.x[0]);
            }
        }
        let x = found.expect("particle lost");
        assert!(
            (x - expect_wrapped).abs() < 1e-2 * l,
            "x = {x:e}, expect {expect_wrapped:e}"
        );
        assert_eq!(sim.total_particles(), 1);
    }

    #[test]
    fn step_stats_populated() {
        let mut sim = SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(16, 1, 16), [1.0e-6; 3], [0.0; 3])
            .periodic([true, true, true])
            .add_species(Species::electrons(
                "e",
                Profile::Uniform { n0: 1.0e24 },
                [1, 1, 1],
            ))
            .build();
        let st = sim.step();
        assert_eq!(st.pushed, 16 * 16);
        assert!(st.particle_seconds > 0.0);
        assert!(st.field_seconds > 0.0);
        assert_eq!(sim.istep, 1);
    }
}
