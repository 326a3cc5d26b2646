//! The traced passes: per-layer metrics through public calls.
//!
//! The workload's generated config is driven in process the way the
//! program drives it (threads, or a socket rank mesh). Every call into a
//! layer made from this file is wrapped in a span kept in memory and
//! written once at the end (`spans.json`). At fixed sample steps the
//! layer probes run on clones of the live state (`FieldSet`, `Pml`,
//! `MrLevel` and particle buffers are `Clone`; whole simulations are
//! cloned through `Checkpoint::capture`/`resume`), so the live run's
//! final digest must still equal the reference.

use crate::check::{apply_removals, digest_hex, reference, Reference};
use crate::gen::{self, Mode, Workload};
use crate::metrics::{Outcome, Values};
use crate::serve::{check_job, job_spec, start_server, submit};
use crate::stats::{median, union_len};
use crate::Ctx;
use mrpic::core::checkpoint::Checkpoint;
use mrpic::core::config::RunConfig;
use mrpic::core::diag::{electron_spectrum, write_field_slice, FieldPick};
use mrpic::core::mr::restriction_margin;
use mrpic::core::particles::ParticleBuf;
use mrpic::core::sim::{Precision, ShapeOrder, Simulation};
use mrpic::dist::{DistSim, MeshCfg};
use mrpic::field::fieldset::{fab_view, view_of_fab_mut, view_over, Dim};
use mrpic::field::{filter, yee};
use mrpic::kernels::deposit::{esirkepov2, JViews};
use mrpic::kernels::flops::KernelCosts;
use mrpic::kernels::gather::{gather2, EmOut, EmViews};
use mrpic::kernels::lanes::{Lanes, DEFAULT_LANE_WIDTH};
use mrpic::kernels::push::{gamma_of_u, push_position2};
use mrpic::kernels::shape::{Cubic, Linear, Quadratic, Shape};
use mrpic::kernels::view::Geom;
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Steps each whole-simulation probe (dist, pool, trace) runs.
const PROBE_STEPS: usize = 16;
/// Timed repetitions of each light probe per sample step.
const PROBE_REPS: usize = 3;
/// Steps of the serve probe's jobs.
const SERVE_PROBE_STEPS: u64 = 12;

// ---------------------------------------------------------------- spans

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    job: Option<u64>,
}

/// In-memory span recorder; nesting follows begin/end order.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            job: None,
        });
        self.stack.push(id);
        id
    }

    /// Close span `id`; returns its duration in seconds.
    fn end(&mut self, id: usize) -> f64 {
        let now = self.ns(Instant::now());
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        let s = &mut self.spans[id];
        s.end = now;
        (s.end - s.start) as f64 * 1e-9
    }

    /// Time `f` as a leaf span; returns its result and seconds.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.begin(name);
        let r = f();
        (r, self.end(id))
    }

    /// Record a span measured elsewhere (a client thread) under the
    /// currently open span.
    fn record(&mut self, name: &'static str, start: Instant, end: Instant, job: Option<u64>) {
        self.spans.push(Span {
            name,
            start: self.ns(start),
            end: self.ns(end),
            parent: self.stack.last().copied(),
            job,
        });
    }

    /// Per name: (calls, total seconds, self seconds). Self time is the
    /// span's duration minus the union of its children's intervals.
    fn self_times(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start, s.end));
            }
        }
        let mut agg: std::collections::BTreeMap<&str, (usize, u64, u64)> = Default::default();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end - s.start;
            let covered = union_len(&mut kids[i]).min(dur);
            let e = agg.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - covered;
        }
        let mut out: Vec<_> = agg
            .into_iter()
            .map(|(n, (c, t, s))| (n, c, t as f64 * 1e-9, s as f64 * 1e-9))
            .collect();
        out.sort_by(|a, b| b.3.total_cmp(&a.3));
        out
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"clock\": \"ns since pass start\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {}, \"job\": {}}}{}",
                s.name,
                s.start,
                s.end,
                opt(s.parent.map(|p| p as u64)),
                opt(s.job),
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

// --------------------------------------------------------------- driving

/// The step loop as the workload's program runs it.
enum Stepper {
    Serial(Box<Simulation>),
    Mesh(Box<DistSim>),
}

impl Stepper {
    fn sim(&self) -> &Simulation {
        match self {
            Stepper::Serial(s) => s,
            Stepper::Mesh(d) => &d.sim,
        }
    }

    fn sim_mut(&mut self) -> &mut Simulation {
        match self {
            Stepper::Serial(s) => s,
            Stepper::Mesh(d) => &mut d.sim,
        }
    }

    fn step(&mut self) {
        match self {
            Stepper::Serial(s) => {
                s.step();
            }
            Stepper::Mesh(d) => {
                d.step();
            }
        }
    }
}

/// Socket meshes get fresh directories and nonces.
struct MeshDirs<'a> {
    ctx: &'a Ctx,
    next: u64,
}

impl MeshDirs<'_> {
    fn cfg(&mut self, ranks: usize) -> MeshCfg {
        self.next += 1;
        let dir = self.ctx.out.join(format!("m{}", self.next));
        std::fs::create_dir_all(&dir).expect("create a mesh socket directory");
        MeshCfg::uds(
            dir,
            ranks,
            self.ctx.seed.rotate_left(17) ^ self.next ^ u64::from(std::process::id()),
        )
    }
}

fn drive(mode: Mode, sim: Simulation, mesh: &mut MeshDirs) -> Result<Stepper, String> {
    Ok(match mode {
        Mode::Socket { ranks } => Stepper::Mesh(Box::new(
            DistSim::socket_mesh(sim, mesh.cfg(ranks)).map_err(|e| format!("socket mesh: {e}"))?,
        )),
        _ => Stepper::Serial(Box::new(sim)),
    })
}

fn threads_of(mode: Mode) -> usize {
    match mode {
        Mode::Local { threads } => threads,
        // One core per rank.
        Mode::Socket { .. } => 1,
    }
}

fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(n)
        .build()
        .expect("a pinned thread count")
        .install(f)
}

fn ms(v: &[f64]) -> f64 {
    1e3 * median(v)
}

/// Failed checks, and a line for each.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, what: &str, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = ok {
            self.failed += 1;
            println!("FAILED {what}: {e}");
        }
    }
}

/// Whole traced passes, repeated while the next one is expected to end
/// within `--seconds` (at least one); each metric is the median over the
/// passes.
pub fn run(ctx: &Ctx, w: &Workload, cfg: &RunConfig, r: &Reference) -> Outcome {
    with_threads(threads_of(w.mode), || {
        let mut tr = Tracer::new();
        let mut checks = Checks::default();
        let mut mesh = MeshDirs { ctx, next: 0 };
        let mut passes = Vec::new();
        let t0 = Instant::now();
        loop {
            let start = Instant::now();
            let id = tr.begin("traced_pass");
            passes.push(pass(ctx, w, cfg, r, &mut tr, &mut mesh, &mut checks));
            tr.end(id);
            let next_end = t0.elapsed() + start.elapsed();
            if checks.failed > 0 || next_end.as_secs_f64() > ctx.seconds {
                break;
            }
        }
        println!(
            "traced passes: {} (metrics are medians over them)",
            passes.len()
        );
        finish(ctx, tr, Values::median_of(&passes), checks)
    })
}

fn pass(
    ctx: &Ctx,
    w: &Workload,
    cfg: &RunConfig,
    r: &Reference,
    tr: &mut Tracer,
    mesh: &mut MeshDirs,
    checks: &mut Checks,
) -> Values {
    let mut v = Values::default();
    let mut acc = Acc::default();

    let builds: Vec<f64> = (0..5)
        .map(|_| tr.time("config.build", || cfg.build()).1)
        .collect();
    v.set("config.build_ms", ms(&builds));
    let (sim, removals) = cfg.build().expect("the generated config builds");
    let mut removed = vec![false; removals.len()];
    let mut stepper = match drive(w.mode, sim, mesh) {
        Ok(d) => d,
        Err(e) => {
            checks.check("stepper", Err(e));
            return v;
        }
    };
    checks.check("kernel probe path", kernel_path(stepper.sim()));
    let n = r.steps;
    let samples = [n / 4, n / 2, 3 * n / 4];
    let mut step_s = Vec::new();
    let (mut phase_sum, mut rec_sum) = (0.0, 0.0);
    let mut comm_steps = 0u64;
    let mut comm0 = stepper.sim().comm_stats_total();
    for istep in 0..n {
        if samples.contains(&istep) {
            let id = tr.begin("probe.sample");
            probe_light(tr, stepper.sim(), &mut acc);
            if istep == n / 2 {
                probe_heavy(ctx, w, cfg, tr, stepper.sim(), mesh, &mut v, checks);
            }
            tr.end(id);
            // Probe-time exchanges must not count as the step's.
            comm0 = stepper.sim().comm_stats_total();
        }
        let (_, s) = tr.time("sim.step", || stepper.step());
        step_s.push(s);
        apply_removals(stepper.sim_mut(), &removals, &mut removed);
        let sim = stepper.sim();
        if sim.telemetry.tripped() {
            checks.check(
                "traced run",
                Err(format!("guard trip at step {}", sim.istep)),
            );
            break;
        }
        if let Some(rec) = sim.telemetry.records().back() {
            let p = &rec.phases;
            phase_sum += p.gather
                + p.push
                + p.deposit
                + p.sum
                + p.maxwell
                + p.fill
                + p.mr
                + p.lb
                + p.sort
                + p.redistribute
                + p.window;
            rec_sum += rec.seconds;
        }
        // Steady-state exchange counters: the second half of the run.
        let now = sim.comm_stats_total();
        if istep >= n / 2 {
            let d = now.delta_since(&comm0);
            acc.messages += d.messages;
            acc.bytes += d.bytes;
            acc.plan_builds += d.plan_builds;
            comm_steps += 1;
        }
        comm0 = now;
    }
    checks.check(
        "amr steady-state plan builds",
        (acc.plan_builds == 0).then_some(()).ok_or(format!(
            "{} exchange-plan build(s) over the last {comm_steps} steps",
            acc.plan_builds
        )),
    );
    let sim = stepper.sim();
    checks.check(
        "traced final digest",
        (digest_hex(sim) == r.digest && sim.istep == r.steps)
            .then_some(())
            .ok_or(format!(
                "digest {} after {} steps, reference {}",
                digest_hex(sim),
                sim.istep,
                r.digest
            )),
    );
    probe_diag(ctx, tr, sim, &mut v);
    drop(stepper);

    // Layers that are not on this workload's path are still probed so
    // every metric exists; say where their inputs came from.
    let mr_on_path = !acc.mr_couple.is_empty();
    if !mr_on_path {
        println!("mr.*: no refinement patch in this workload; probed on mr_hybrid inputs (off-path, predicted no change here)");
        let id = tr.begin("probe.mr_companion");
        companion_mr(ctx, tr, &mut acc);
        tr.end(id);
    }
    let step_ms = ms(&step_s);
    let c = comm_steps.max(1) as f64;
    v.set("sim.step_ms", step_ms);
    v.set("amr.messages_per_step", acc.messages as f64 / c);
    v.set("amr.bytes_per_step", acc.bytes as f64 / c);
    v.set("telemetry.phase_sum_ratio", phase_sum / rec_sum);
    let k = KernelCosts::for_order(cfg.shape_order, 2, 8.0);
    let per = |t: &[(f64, f64)]| 1e9 * median(&t.iter().map(|(s, n)| s / n).collect::<Vec<_>>());
    v.set("kernels.gather_ns_per_particle", per(&acc.gather));
    v.set("kernels.push_ns_per_particle", per(&acc.push));
    v.set("kernels.deposit_ns_per_particle", per(&acc.deposit));
    let bytes = k.gather_bytes + k.push_bytes + k.deposit_bytes;
    let kern_ns = v.get("kernels.gather_ns_per_particle").unwrap_or(f64::NAN)
        + v.get("kernels.push_ns_per_particle").unwrap_or(f64::NAN)
        + v.get("kernels.deposit_ns_per_particle").unwrap_or(f64::NAN);
    v.set("kernels.computed_gbps", bytes / kern_ns);
    for (name, xs) in [
        ("field.yee_ms", &acc.yee),
        ("field.pml_ms", &acc.pml),
        ("field.filter_ms", &acc.filter),
        ("amr.fill_ms", &acc.fill),
        ("amr.sum_ms", &acc.sum),
        ("mr.couple_currents_ms", &acc.mr_couple),
        ("mr.advance_fields_ms", &acc.mr_advance),
        ("mr.build_aux_ms", &acc.mr_aux),
    ] {
        v.set(name, ms(xs));
    }
    // Reconciliation: per-step sum of the probed layers on the path.
    let kernels_ms = median(&acc.kernel_wall) * 1e3;
    let mut parts = vec![
        ("kernels (gather+push+deposit regions)", kernels_ms),
        ("field.yee", ms(&acc.yee)),
        ("field.pml", ms(&acc.pml)),
        ("amr.fill", ms(&acc.fill)),
        ("amr.sum", ms(&acc.sum)),
    ];
    if cfg.filter_passes > 0 {
        parts.push(("field.filter", ms(&acc.filter)));
    }
    if mr_on_path {
        parts.push(("mr.couple_currents", ms(&acc.mr_couple)));
        parts.push(("mr.advance_fields", ms(&acc.mr_advance)));
        parts.push(("mr.build_aux", ms(&acc.mr_aux)));
    }
    let attributed: f64 = parts.iter().map(|p| p.1).sum();
    println!("reconciliation: sim.step_ms {step_ms:.4} ms vs probed layers on the path:");
    for (name, t) in &parts {
        println!("  {name:<40} {t:>9.4} ms");
    }
    let unattributed = 1.0 - attributed / step_ms;
    println!("  sum {attributed:.4} ms -> sim.unattributed_frac {unattributed:.4}");
    println!(
        "  telemetry.phase_sum_ratio (sum of PhaseTimes over record seconds): {:.4}",
        phase_sum / rec_sum
    );
    println!(
        "  amr exchange-plan builds over the last {comm_steps} steps: {} (must be 0)",
        acc.plan_builds
    );
    v.set("sim.unattributed_frac", unattributed);
    v
}

fn finish(ctx: &Ctx, tr: Tracer, v: Values, mut checks: Checks) -> Outcome {
    let path = ctx.out.join("spans.json");
    checks.check("spans file", tr.write(&path).map_err(|e| e.to_string()));
    println!("spans: {} -> {}", tr.spans.len(), path.display());
    println!("top spans by self time (calls, total s, self s):");
    for (name, calls, total, own) in tr.self_times().into_iter().take(14) {
        println!("  {name:<28} {calls:>6} {total:>10.4} {own:>10.4}");
    }
    Outcome {
        values: v,
        attempted: checks.attempted,
        failed: checks.failed,
    }
}

// ---------------------------------------------------------------- probes

/// Light-probe samples, in seconds unless noted.
#[derive(Default)]
struct Acc {
    /// (region seconds, particles) per kernel.
    gather: Vec<(f64, f64)>,
    push: Vec<(f64, f64)>,
    deposit: Vec<(f64, f64)>,
    /// gather + push + deposit region wall seconds of one step.
    kernel_wall: Vec<f64>,
    yee: Vec<f64>,
    pml: Vec<f64>,
    filter: Vec<f64>,
    fill: Vec<f64>,
    sum: Vec<f64>,
    mr_couple: Vec<f64>,
    mr_advance: Vec<f64>,
    mr_aux: Vec<f64>,
    messages: u64,
    bytes: u64,
    plan_builds: u64,
}

/// Time the second of two calls on a fresh clone, so a cold exchange
/// plan cache on the clone is not charged to the call.
fn warm<T: Clone>(
    tr: &mut Tracer,
    name: &'static str,
    state: &T,
    mut f: impl FnMut(&mut T),
) -> f64 {
    let mut c = state.clone();
    f(&mut c);
    tr.time(name, || f(&mut c)).1
}

fn probe_light(tr: &mut Tracer, sim: &Simulation, acc: &mut Acc) {
    let dt = sim.dt;
    for _ in 0..PROBE_REPS {
        match sim.order {
            ShapeOrder::Linear => probe_kernels::<Linear>(tr, sim, acc),
            ShapeOrder::Quadratic => probe_kernels::<Quadratic>(tr, sim, acc),
            ShapeOrder::Cubic => probe_kernels::<Cubic>(tr, sim, acc),
        }
        acc.yee.push(warm(tr, "field.yee", &sim.fs, |fs| {
            yee::advance_b(fs, 0.5 * dt);
            yee::advance_e(fs, dt);
            yee::advance_b(fs, 0.5 * dt);
        }));
        acc.pml.push(match &sim.pml {
            Some(pml) => warm(
                tr,
                "field.pml",
                &(sim.fs.clone(), pml.clone()),
                |(fs, p)| {
                    p.exchange_e(fs);
                    p.advance_b(0.5 * dt);
                    p.exchange_b(fs);
                    p.advance_e(dt);
                    p.exchange_e(fs);
                    p.advance_b(0.5 * dt);
                    p.exchange_b(fs);
                },
            ),
            None => 0.0,
        });
        let passes = sim.filter_passes.max(1);
        acc.filter.push(warm(tr, "field.filter", &sim.fs, |fs| {
            filter::filter_current(fs, passes)
        }));
        acc.fill.push(warm(tr, "amr.fill", &sim.fs, |fs| {
            fs.fill_e_boundaries();
            fs.fill_b_boundaries();
            fs.fill_e_boundaries();
            fs.fill_b_boundaries();
        }));
        acc.sum
            .push(warm(tr, "amr.sum", &sim.fs, |fs| fs.sum_j_boundaries()));
        probe_mr(tr, sim, acc);
    }
}

fn probe_mr(tr: &mut Tracer, sim: &Simulation, acc: &mut Acc) {
    let Some(mr) = &sim.mr else { return };
    let dt = sim.dt;
    let margin = restriction_margin(sim.order.order(), mr.cfg.rr);
    acc.mr_couple.push(warm(
        tr,
        "mr.couple_currents",
        &(mr.clone(), sim.fs.clone()),
        |(m, fs)| m.couple_currents(fs, margin),
    ));
    acc.mr_advance
        .push(warm(tr, "mr.advance_fields", mr, |m| m.advance_fields(dt)));
    acc.mr_aux
        .push(warm(tr, "mr.build_aux", mr, |m| m.build_aux(&sim.fs)));
}

/// MR probes for workloads without a patch: the mr_hybrid config of the
/// same seed, a few steps in.
fn companion_mr(ctx: &Ctx, tr: &mut Tracer, acc: &mut Acc) {
    let w = gen::workload("mr_hybrid").expect("mr_hybrid exists");
    let built = std::fs::read_to_string(w.base)
        .map_err(|e| e.to_string())
        .and_then(|base| gen::generate(&base, ctx.seed, w.steps))
        .and_then(|text| RunConfig::from_json(&text))
        .and_then(|cfg| cfg.build());
    let Ok((mut sim, _)) = built else {
        println!("FAILED building the mr_hybrid companion");
        return;
    };
    sim.run(10);
    for _ in 0..PROBE_REPS {
        probe_mr(tr, &sim, acc);
    }
}

/// Lane-width dispatch of the blocked kernels, as the step does it:
/// widths other than 4 and 16 run at `DEFAULT_LANE_WIDTH`.
macro_rules! with_lanes {
    ($lw:expr, $W:ident, $body:expr) => {
        match $lw {
            4 => {
                const $W: usize = 4;
                $body
            }
            16 => {
                const $W: usize = 16;
                $body
            }
            _ => {
                const $W: usize = DEFAULT_LANE_WIDTH;
                $body
            }
        }
    };
}

/// Why the kernel probes would time another path than the step runs,
/// if they would.
fn kernel_path(sim: &Simulation) -> Result<(), String> {
    if sim.dim != Dim::Two {
        return Err("the kernel probes cover 2-D runs only".into());
    }
    if sim.precision != Precision::F64 {
        return Err(format!(
            "the kernel probes time the f64 path, the run uses {:?}",
            sim.precision
        ));
    }
    Ok(())
}

/// One box's copy of the particle state the kernels work on.
struct KBox {
    bi: usize,
    buf: ParticleBuf,
    /// Particles `[0, c_aux)` gather from the MR aux grid, `[0, c_fine)`
    /// deposit to the fine patch (the step's partition).
    c_aux: usize,
    c_fine: usize,
    fields: [Vec<f64>; 6],
    x0: Vec<f64>,
    z0: Vec<f64>,
    vy: Vec<f64>,
    j: [mrpic::amr::Fab; 3],
    /// Fine-patch current buffers (empty without a patch).
    fine_j: [Vec<f64>; 3],
    charge: f64,
    qmdt2: f64,
    pusher: mrpic::kernels::push::Pusher,
}

/// A zeroed buffer whose pages are already mapped, so first-touch page
/// faults are not charged to the kernel that writes it.
fn touched(n: usize) -> Vec<f64> {
    let mut v = Vec::with_capacity(n);
    v.resize(n, 0.0);
    v
}

fn em_out(f: &mut [Vec<f64>; 6], lo: usize, hi: usize) -> EmOut<'_, f64> {
    let [ex, ey, ez, bx, by, bz] = f;
    EmOut {
        ex: &mut ex[lo..hi],
        ey: &mut ey[lo..hi],
        ez: &mut ez[lo..hi],
        bx: &mut bx[lo..hi],
        by: &mut by[lo..hi],
        bz: &mut bz[lo..hi],
    }
}

/// What the deposit reads: positions before and after the push.
struct Moved<'a> {
    x0: &'a [f64],
    z0: &'a [f64],
    vy: &'a [f64],
    buf: &'a ParticleBuf,
    charge: f64,
}

/// Esirkepov deposit of particles `[lo, hi)` on the step's path.
#[allow(clippy::too_many_arguments)]
fn deposit<S: Shape>(
    optimized: bool,
    lane_width: usize,
    m: &Moved,
    lo: usize,
    hi: usize,
    dt: f64,
    geom: &Geom,
    jv: &mut JViews<'_, f64>,
) {
    let (x0, z0, vy) = (&m.x0[lo..hi], &m.z0[lo..hi], &m.vy[lo..hi]);
    let (x, z, w) = (&m.buf.x[lo..hi], &m.buf.z[lo..hi], &m.buf.w[lo..hi]);
    if optimized {
        with_lanes!(
            lane_width,
            W,
            Lanes::<W>::esirkepov2::<S, f64>(x0, z0, x, z, vy, w, m.charge, dt, geom, jv)
        )
    } else {
        esirkepov2::<S, f64>(x0, z0, x, z, vy, w, m.charge, dt, geom, jv)
    }
}

/// Gather, push and deposit over every box, each kernel as one
/// box-parallel region at the workload's thread count. Runs on copies:
/// the live particles and currents are not touched. The path follows
/// the step's: its lane width, optimized or reference kernels, and with
/// a refinement patch the same partition into aux-grid gather and
/// fine-patch deposit.
fn probe_kernels<S: Shape>(tr: &mut Tracer, sim: &Simulation, acc: &mut Acc) {
    if kernel_path(sim).is_err() {
        return;
    }
    let dt = sim.dt;
    let (optimized, lane_width) = (sim.use_optimized_kernels, sim.lane_width);
    let kg = sim.fs.geom.kernel_geom();
    let mr = sim.mr.as_ref();
    let regions = mr.map(|m| (m.patch_phys(&sim.fs.geom), m.gather_phys(&sim.fs.geom)));
    let fine_len = |c: usize| mr.map_or(0, |m| m.fine.j[c].fab(0).comp(0).len());
    let mut boxes = Vec::new();
    for (si, pc) in sim.parts.iter().enumerate() {
        let sp = &sim.species[si];
        for (bi, buf) in pc.bufs.iter().enumerate() {
            let n = buf.len();
            if n == 0 {
                continue;
            }
            let mut buf = buf.clone();
            let (c_aux, c_fine) = match regions {
                Some(((plo, phi), (glo, ghi))) => buf.partition3(
                    |x, _, z| x >= plo[0] && x < phi[0] && z >= plo[2] && z < phi[2],
                    |x, _, z| x >= glo[0] && x < ghi[0] && z >= glo[2] && z < ghi[2],
                ),
                None => (0, 0),
            };
            boxes.push(KBox {
                bi,
                buf,
                c_aux,
                c_fine,
                fields: std::array::from_fn(|_| touched(n)),
                x0: touched(n),
                z0: touched(n),
                vy: touched(n),
                j: std::array::from_fn(|c| sim.fs.j[c].fab(bi).clone()),
                fine_j: std::array::from_fn(|c| touched(if c_fine > 0 { fine_len(c) } else { 0 })),
                charge: sp.charge,
                qmdt2: sp.charge * dt / (2.0 * sp.mass),
                pusher: sp.pusher,
            });
        }
    }
    let np: f64 = boxes.iter().map(|b| b.buf.len() as f64).sum();
    if np == 0.0 {
        return;
    }
    let (e, b) = (&sim.fs.e, &sim.fs.b);
    let ((), tg) = tr.time("kernels.gather", || {
        boxes.par_iter_mut().for_each(|k| {
            let (n, ca) = (k.buf.len(), k.c_aux);
            let (x, z) = (&k.buf.x, &k.buf.z);
            if ca > 0 {
                let m = mr.expect("partitioned => MR present");
                let mut out = em_out(&mut k.fields, 0, ca);
                gather2::<S, f64>(
                    &x[..ca],
                    &z[..ca],
                    &m.aux.geom.kernel_geom(),
                    &m.aux.em_views(0),
                    &mut out,
                );
            }
            if ca < n {
                let views = EmViews {
                    ex: fab_view(&e[0], k.bi),
                    ey: fab_view(&e[1], k.bi),
                    ez: fab_view(&e[2], k.bi),
                    bx: fab_view(&b[0], k.bi),
                    by: fab_view(&b[1], k.bi),
                    bz: fab_view(&b[2], k.bi),
                };
                let mut out = em_out(&mut k.fields, ca, n);
                let (x, z) = (&x[ca..n], &z[ca..n]);
                if optimized {
                    with_lanes!(
                        lane_width,
                        W,
                        Lanes::<W>::gather2::<S, f64>(x, z, &kg, &views, &mut out)
                    )
                } else {
                    gather2::<S, f64>(x, z, &kg, &views, &mut out)
                }
            }
        })
    });
    let ((), tp) = tr.time("kernels.push", || {
        boxes.par_iter_mut().for_each(|k| {
            let [ex, ey, ez, bx, by, bz] = &k.fields;
            let p = &mut k.buf;
            with_lanes!(
                lane_width,
                W,
                Lanes::<W>::push_momentum(
                    k.pusher, &mut p.ux, &mut p.uy, &mut p.uz, ex, ey, ez, bx, by, bz, k.qmdt2,
                )
            );
            k.x0.copy_from_slice(&p.x);
            k.z0.copy_from_slice(&p.z);
            for (i, vy) in k.vy.iter_mut().enumerate() {
                *vy = p.uy[i] / gamma_of_u(p.ux[i], p.uy[i], p.uz[i]);
            }
            push_position2(&mut p.x, &mut p.z, &p.ux, &p.uy, &p.uz, dt);
        })
    });
    let ((), td) = tr.time("kernels.deposit", || {
        boxes.par_iter_mut().for_each(|k| {
            let KBox {
                buf,
                c_fine,
                x0,
                z0,
                vy,
                j,
                fine_j,
                charge,
                ..
            } = k;
            let (n, cf) = (buf.len(), *c_fine);
            let moved = Moved {
                x0,
                z0,
                vy,
                buf,
                charge: *charge,
            };
            if cf > 0 {
                let m = mr.expect("partitioned => MR present");
                let [fx, fy, fz] = fine_j;
                for f in [&mut *fx, &mut *fy, &mut *fz] {
                    f.fill(0.0);
                }
                let mut jv = JViews {
                    jx: view_over(m.fine.j[0].fab(0), fx),
                    jy: view_over(m.fine.j[1].fab(0), fy),
                    jz: view_over(m.fine.j[2].fab(0), fz),
                };
                let fine_geom = m.fine.geom.kernel_geom();
                deposit::<S>(
                    optimized, lane_width, &moved, 0, cf, dt, &fine_geom, &mut jv,
                );
            }
            if cf < n {
                let [jx, jy, jz] = j;
                let mut jv = JViews {
                    jx: view_of_fab_mut(jx),
                    jy: view_of_fab_mut(jy),
                    jz: view_of_fab_mut(jz),
                };
                deposit::<S>(optimized, lane_width, &moved, cf, n, dt, &kg, &mut jv);
            }
        })
    });
    black_box(&boxes);
    acc.gather.push((tg, np));
    acc.push.push((tp, np));
    acc.deposit.push((td, np));
    acc.kernel_wall.push(tg + tp + td);
}

/// A fresh simulation at the live state (checkpoint round trip).
fn clone_sim(cfg: &RunConfig, ck: &Checkpoint) -> Simulation {
    ck.resume(cfg)
        .expect("a checkpoint of the live run resumes")
        .0
}

/// Step `d` `PROBE_STEPS` times under span `name`; per-step seconds.
fn run_steps(tr: &mut Tracer, name: &'static str, d: &mut Stepper) -> Vec<f64> {
    (0..PROBE_STEPS)
        .map(|_| tr.time(name, || d.step()).1)
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn probe_heavy(
    ctx: &Ctx,
    w: &Workload,
    cfg: &RunConfig,
    tr: &mut Tracer,
    sim: &Simulation,
    mesh: &mut MeshDirs,
    v: &mut Values,
    checks: &mut Checks,
) {
    // core::checkpoint
    let caps: Vec<(Checkpoint, f64)> = (0..PROBE_REPS)
        .map(|_| tr.time("checkpoint.capture", || Checkpoint::capture(sim)))
        .collect();
    v.set(
        "checkpoint.capture_ms",
        ms(&caps.iter().map(|c| c.1).collect::<Vec<_>>()),
    );
    let ck = caps.into_iter().next().expect("PROBE_REPS > 0").0;
    let (bytes, _) = tr.time("checkpoint.serialize", || {
        serde_json::to_vec(&ck).map(|b| b.len())
    });
    v.set("checkpoint.bytes", bytes.unwrap_or(0) as f64);
    let mut restores = Vec::new();
    for _ in 0..PROBE_REPS {
        let (mut s, _) = cfg.build().expect("the generated config builds");
        if ck.mr.is_none() {
            s.remove_mr_patch();
        }
        let (res, t) = tr.time("checkpoint.restore", || ck.restore(&mut s));
        checks.check("checkpoint restore", res.map_err(|e| e.to_string()));
        restores.push(t);
    }
    v.set("checkpoint.restore_ms", ms(&restores));

    // Every probe below starts from the same state and runs the same
    // steps: their final digests must agree across ranks and threads.
    let mut digests: Vec<(&str, String)> = Vec::new();

    // dist: 2 ranks in process, then 2 ranks over a Unix-socket mesh.
    let mut mem = Stepper::Mesh(Box::new(DistSim::in_process(clone_sim(cfg, &ck), 2)));
    v.set("dist.step_ms", ms(&run_steps(tr, "dist.step", &mut mem)));
    digests.push(("dist in-process", digest_hex(mem.sim())));
    drop(mem);
    match DistSim::socket_mesh(clone_sim(cfg, &ck), mesh.cfg(2)) {
        Ok(ds) => {
            let mut sock = Stepper::Mesh(Box::new(ds));
            let secs = run_steps(tr, "dist.socket_step", &mut sock);
            v.set("dist.socket_step_ms", ms(&secs));
            digests.push(("dist socket", digest_hex(sock.sim())));
            dist_counters(sock.sim(), &secs, v);
        }
        Err(e) => checks.check("socket mesh", Err(e.to_string())),
    }

    // pool: one trivial 2-thread region, and the step loop at 1 vs 2
    // threads (interleaved).
    let items: Vec<u64> = (0..64).collect();
    let (regions, _) = tr.time("pool.regions", || {
        with_threads(2, || {
            (0..200)
                .map(|_| {
                    let t = Instant::now();
                    items.par_iter().for_each(|x| {
                        black_box(x);
                    });
                    t.elapsed().as_secs_f64()
                })
                .collect::<Vec<f64>>()
        })
    });
    v.set("pool.region_us", 1e6 * median(&regions));
    let mut per_threads = [Vec::new(), Vec::new()];
    for round in 0..4 {
        let threads = 1 + round % 2;
        let mut d = match drive(w.mode, clone_sim(cfg, &ck), mesh) {
            Ok(d) => d,
            Err(e) => return checks.check("pool probe", Err(e)),
        };
        let secs = with_threads(threads, || run_steps(tr, "pool.steps", &mut d));
        per_threads[threads - 1].push(secs.iter().sum::<f64>());
        digests.push((
            if threads == 1 {
                "1 thread"
            } else {
                "2 threads"
            },
            digest_hex(d.sim()),
        ));
    }
    v.set(
        "pool.speedup_2t",
        median(&per_threads[0]) / median(&per_threads[1]),
    );

    // trace: the same steps with span tracing off and on (interleaved).
    let mut by_mode = [Vec::new(), Vec::new()];
    for round in 0..4 {
        let on = round % 2 == 1;
        let mut d = match drive(w.mode, clone_sim(cfg, &ck), mesh) {
            Ok(d) => d,
            Err(e) => return checks.check("trace probe", Err(e)),
        };
        if on {
            mrpic::trace::enable();
        }
        let secs = run_steps(
            tr,
            if on {
                "trace.on_steps"
            } else {
                "trace.off_steps"
            },
            &mut d,
        );
        if on {
            mrpic::trace::disable();
            black_box(mrpic::trace::take_trace());
        }
        by_mode[usize::from(on)].push(secs.iter().sum::<f64>());
        digests.push((if on { "traced" } else { "untraced" }, digest_hex(d.sim())));
    }
    v.set(
        "trace.overhead_frac",
        median(&by_mode[1]) / median(&by_mode[0]) - 1.0,
    );
    let first = digests[0].1.clone();
    for (what, d) in &digests {
        checks.check(
            &format!("probe digest ({what})"),
            (*d == first).then_some(()).ok_or(format!("{d} != {first}")),
        );
    }

    probe_serve(ctx, cfg, tr, v, checks);
}

/// Rank exchange counters from the socket probe's step records.
fn dist_counters(sim: &Simulation, secs: &[f64], v: &mut Values) {
    let recs: Vec<_> = sim
        .telemetry
        .records()
        .iter()
        .rev()
        .take(PROBE_STEPS)
        .collect();
    let n = recs.len().max(1) as f64;
    let (mut sent, mut wire, mut flushes, mut wait, mut migrated, mut adopted) =
        (0, 0, 0, 0.0, 0, 0);
    let mut imbalance = Vec::new();
    let mut ranks = 1;
    for rec in &recs {
        ranks = ranks.max(rec.ranks.len());
        for rk in &rec.ranks {
            sent += rk.sent_messages;
            wire += rk.wire_bytes;
            flushes += rk.wire_flushes;
            wait += rk.recv_wait_seconds;
            migrated += rk.migrated_out;
        }
        adopted += rec.rebalances;
        imbalance.extend(rec.imbalance);
    }
    let exchanges = recs.iter().map(|r| r.comm.exchanges).sum::<u64>();
    v.set("dist.exchanges_per_step", exchanges as f64 / n);
    v.set("dist.sent_messages_per_step", sent as f64 / n);
    v.set("dist.wire_bytes_per_step", wire as f64 / n);
    v.set("dist.wire_flushes_per_step", flushes as f64 / n);
    v.set(
        "dist.recv_wait_frac",
        wait / (ranks as f64 * secs.iter().sum::<f64>()),
    );
    v.set("dist.migrated_per_step", migrated as f64 / n);
    v.set("lb.adoptions", adopted as f64);
    v.set(
        "lb.mean_imbalance",
        imbalance.iter().sum::<f64>() / imbalance.len().max(1) as f64,
    );
}

/// Two tenants' jobs on a one-slot server with a short quantum.
fn probe_serve(ctx: &Ctx, cfg: &RunConfig, tr: &mut Tracer, v: &mut Values, checks: &mut Checks) {
    let mut job_cfg = cfg.clone();
    let (sim, _) = cfg.build().expect("the generated config builds");
    job_cfg.t_end = (SERVE_PROBE_STEPS as f64 - 0.5) * sim.dt;
    let job_ref = match reference(&job_cfg) {
        Ok(r) => r,
        Err(e) => return checks.check("serve job reference", Err(e)),
    };
    let dir = ctx.out.join("serve");
    let _ = std::fs::create_dir_all(&dir);
    let id = tr.begin("serve.server");
    let server = match start_server(ctx, &dir) {
        Ok(s) => s,
        Err(e) => {
            tr.end(id);
            return checks.check("serve start", Err(e));
        }
    };
    let results: Vec<_> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2)
            .map(|c| {
                let spec = job_spec(&format!("tenant{c}"), job_cfg.clone());
                let sock = &server.sock;
                s.spawn(move || submit(sock, &spec))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect()
    });
    let mut jobs = Vec::new();
    for r in results {
        match r {
            Ok(j) => {
                tr.record("serve.job", j.submit, j.done, Some(j.summary.job_id));
                if let Some(f) = j.first_step {
                    tr.record("serve.dispatch_wait", j.submit, f, Some(j.summary.job_id));
                }
                checks.check("serve job", check_job(&j.summary, &job_ref));
                jobs.push(j);
            }
            Err(e) => checks.check("serve job", Err(e)),
        }
    }
    let rtts: Vec<f64> = (0..10)
        .map(|_| {
            tr.time("serve.fetch_status", || {
                mrpic::serve::fetch_status(&server.sock)
            })
            .1
        })
        .collect();
    let fin = server.stop();
    tr.end(id);
    checks.check(
        "serve shutdown",
        (fin.code == Some(0))
            .then_some(())
            .ok_or(format!("exit {:?}", fin.code)),
    );
    let waits: Vec<f64> = jobs
        .iter()
        .filter_map(|j| {
            j.first_step
                .map(|f| f.duration_since(j.submit).as_secs_f64())
        })
        .collect();
    let preemptions: u64 = jobs.iter().map(|j| j.preemptions).sum();
    v.set("serve.dispatch_wait_s", median(&waits));
    v.set(
        "serve.preemptions_per_job",
        preemptions as f64 / jobs.len().max(1) as f64,
    );
    v.set("serve.status_rtt_ms", ms(&rtts));
}

/// End-of-run diagnostics on the final live state.
fn probe_diag(ctx: &Ctx, tr: &mut Tracer, sim: &Simulation, v: &mut Values) {
    let dir = ctx.out.join("diag");
    let _ = std::fs::create_dir_all(&dir);
    let mut slices = Vec::new();
    let mut spectra = Vec::new();
    let mut digests = Vec::new();
    for _ in 0..PROBE_REPS {
        let (res, t) = tr.time("diag.field_slice", || {
            [
                ("ex", FieldPick::E(0)),
                ("ey", FieldPick::E(1)),
                ("bz", FieldPick::B(2)),
            ]
            .into_iter()
            .try_for_each(|(name, pick)| {
                write_field_slice(&sim.fs, pick, 0, &dir.join(format!("{name}.csv")), 1)
            })
        });
        if let Err(e) = res {
            println!("FAILED field slice: {e}");
        }
        slices.push(t);
        let (res, t) = tr.time("diag.spectrum", || {
            sim.species.iter().enumerate().try_for_each(|(si, sp)| {
                electron_spectrum(&sim.parts[si], 50.0, 100)
                    .write_csv(&dir.join(format!("spectrum_{}.csv", sp.name)))
            })
        });
        if let Err(e) = res {
            println!("FAILED spectrum: {e}");
        }
        spectra.push(t);
        digests.push(
            tr.time("diag.state_digest", || black_box(sim.state_digest()))
                .1,
        );
    }
    v.set("diag.field_slice_ms", ms(&slices));
    v.set("diag.spectrum_ms", ms(&spectra));
    v.set("diag.state_digest_ms", ms(&digests));
}
