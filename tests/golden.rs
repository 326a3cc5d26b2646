//! Golden anchors: absolute `state_digest` pins for a fixed matrix of
//! runs.
//!
//! Every other equivalence suite is relative (run A == run B), so a
//! change that moves the physics the same way in every mode passes
//! them all. These tests pin the digest itself. Each case also runs
//! every kernel variant that must be bitwise identical to the scalar
//! reference — `optimized_kernels(false)` and each entry of
//! [`LANE_WIDTHS`] — and, for the committed configs, 1 and 2 threads;
//! every row must hit the same pinned digest.
//!
//! The digests depend on the host: the build uses `target-cpu=native`
//! (which decides whether `Real::mul_add` is one FMA or a mul + add),
//! and the laser and plasma profiles call the platform libm. On another
//! machine the pins may legitimately differ. Regenerate them only by
//! editing the constants below (a failing row prints the digest it
//! got), and justify every regeneration in CHANGES.md.

use mrpic::amr::IntVect;
use mrpic::core::config::RunConfig;
use mrpic::core::profile::Profile;
use mrpic::core::sim::{Precision, ShapeOrder, Simulation, SimulationBuilder};
use mrpic::core::species::Species;
use mrpic::field::fieldset::Dim;
use mrpic::kernels::constants::C;
use mrpic::kernels::LANE_WIDTHS;
use rayon::ThreadPoolBuilder;

const UNIFORM_2D_QUADRATIC_F64: u64 = 0xa428_eda4_01f8_748f;
const UNIFORM_2D_QUADRATIC_F32: u64 = 0x4bcf_13de_25e0_eb6c;
const UNIFORM_3D_CUBIC_F64: u64 = 0x621c_a8d9_0332_1e5f;
const UNIFORM_3D_CUBIC_F32: u64 = 0x9ceb_271c_e5c6_af25;
const HYBRID_TARGET_MR_2D: u64 = 0x450a_388c_1797_1b48;
const LASER_FOIL_SKEWED_2D: u64 = 0x95a3_7df4_8d28_6692;

/// Kernel variant of one matrix row: the scalar reference, or the lane
/// kernels at width `W`.
#[derive(Clone, Copy, Debug)]
enum Kernels {
    Scalar,
    Lanes(usize),
}

/// The scalar reference followed by every supported lane width.
fn kernel_rows() -> impl Iterator<Item = Kernels> {
    std::iter::once(Kernels::Scalar).chain(LANE_WIDTHS.iter().map(|&w| Kernels::Lanes(w)))
}

fn apply(b: SimulationBuilder, k: Kernels) -> SimulationBuilder {
    match k {
        Kernels::Scalar => b.optimized_kernels(false),
        Kernels::Lanes(w) => b.optimized_kernels(true).lane_width(w),
    }
}

/// Digest after `steps` steps on a pool of `threads` workers.
fn digest_after(mut sim: Simulation, steps: usize, threads: usize) -> u64 {
    ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(|| {
            for _ in 0..steps {
                sim.step();
            }
        });
    assert!(!sim.telemetry.tripped(), "NaN/Inf guard tripped");
    sim.state_digest()
}

fn check(case: &str, row: &str, got: u64, pinned: u64) {
    assert_eq!(
        got, pinned,
        "{case} [{row}]: digest {got:#018x} != pinned {pinned:#018x}"
    );
}

/// Warm drifting electrons in a fully periodic box.
fn uniform(dim: Dim, precision: Precision, k: Kernels) -> Simulation {
    let b = match dim {
        Dim::Two => SimulationBuilder::new(Dim::Two)
            .domain(IntVect::new(32, 1, 32), [1.0e-6; 3], [0.0; 3])
            .order(ShapeOrder::Quadratic)
            .add_species(
                Species::electrons("plasma", Profile::Uniform { n0: 1.0e24 }, [2, 1, 2])
                    .with_drift([0.02 * C, 0.0, 0.01 * C])
                    .with_thermal([0.01 * C; 3]),
            ),
        Dim::Three => SimulationBuilder::new(Dim::Three)
            .domain(IntVect::new(16, 16, 16), [1.0e-6; 3], [0.0; 3])
            .max_box(IntVect::new(8, 8, 8))
            .order(ShapeOrder::Cubic)
            .add_species(
                Species::electrons("plasma", Profile::Uniform { n0: 1.0e24 }, [1, 1, 1])
                    .with_drift([0.02 * C, 0.01 * C, 0.0])
                    .with_thermal([0.01 * C; 3]),
            ),
    };
    let b = b
        .periodic([true, true, true])
        .cfl(0.6)
        .seed(7)
        .precision(precision);
    apply(b, k).build()
}

fn uniform_case(case: &str, dim: Dim, precision: Precision, steps: usize, pinned: u64) {
    for k in kernel_rows() {
        let got = digest_after(uniform(dim, precision, k), steps, 1);
        check(case, &format!("{k:?}"), got, pinned);
    }
}

#[test]
fn uniform_2d_quadratic_f64() {
    uniform_case(
        "uniform_2d_quadratic_f64",
        Dim::Two,
        Precision::F64,
        20,
        UNIFORM_2D_QUADRATIC_F64,
    );
}

#[test]
fn uniform_2d_quadratic_f32() {
    uniform_case(
        "uniform_2d_quadratic_f32",
        Dim::Two,
        Precision::F32Particles,
        20,
        UNIFORM_2D_QUADRATIC_F32,
    );
}

#[test]
fn uniform_3d_cubic_f64() {
    uniform_case(
        "uniform_3d_cubic_f64",
        Dim::Three,
        Precision::F64,
        10,
        UNIFORM_3D_CUBIC_F64,
    );
}

#[test]
fn uniform_3d_cubic_f32() {
    uniform_case(
        "uniform_3d_cubic_f32",
        Dim::Three,
        Precision::F32Particles,
        10,
        UNIFORM_3D_CUBIC_F32,
    );
}

/// A committed config: every kernel row at 1 thread, then the default
/// kernels at 2 threads. The plasma starts cold and the laser starts in
/// vacuum, so the step counts are long enough for the laser's leading
/// edge to set particles moving (nonzero momenta in every digest).
fn config_case(case: &str, text: &str, steps: usize, pinned: u64) {
    let build = |k: Option<Kernels>| {
        let mut cfg = RunConfig::from_json(text).unwrap();
        match k {
            Some(Kernels::Scalar) => cfg.optimized_kernels = false,
            Some(Kernels::Lanes(w)) => cfg.lane_width = w,
            None => {}
        }
        cfg.build().unwrap().0
    };
    for k in kernel_rows() {
        let got = digest_after(build(Some(k)), steps, 1);
        check(case, &format!("{k:?}, 1 thread"), got, pinned);
    }
    let got = digest_after(build(None), steps, 2);
    check(case, "default kernels, 2 threads", got, pinned);
}

#[test]
fn hybrid_target_mr_2d() {
    config_case(
        "hybrid_target_mr_2d",
        include_str!("../configs/hybrid_target_mr_2d.json"),
        60,
        HYBRID_TARGET_MR_2D,
    );
}

#[test]
fn laser_foil_skewed_2d() {
    config_case(
        "laser_foil_skewed_2d",
        include_str!("../configs/laser_foil_skewed_2d.json"),
        120,
        LASER_FOIL_SKEWED_2D,
    );
}
