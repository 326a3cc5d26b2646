//! Mixed-precision (`f32_particles`) physics bounds.
//!
//! The single-precision particle path trades per-operation rounding
//! (~1e-7 relative) for bandwidth; these tests pin down how much that
//! rounding is allowed to move the physics against a same-seed `f64`
//! run: field-energy agreement within 1e-3 after 100 steps, a bounded
//! Gauss-residual drift, and no NaN/Inf sentinel trips.

use mrpic::amr::IntVect;
use mrpic::core::profile::Profile;
use mrpic::core::sim::{Precision, ShapeOrder, Simulation, SimulationBuilder};
use mrpic::core::species::Species;
use mrpic::field::energy::field_energy;
use mrpic::field::fieldset::Dim;
use mrpic::kernels::constants::{C, EPS0, Q_E};

const N0: f64 = 1.0e24;

/// Cold drifting uniform plasma in a fully periodic box: the uniform
/// current drives a coherent, deterministic field oscillation, so the
/// f32/f64 difference stays perturbative instead of being amplified by
/// particle noise.
fn uniform_plasma(precision: Precision) -> Simulation {
    SimulationBuilder::new(Dim::Two)
        .domain(IntVect::new(64, 1, 64), [1.0e-6; 3], [0.0; 3])
        .periodic([true, true, true])
        .cfl(0.6)
        .order(ShapeOrder::Quadratic)
        .seed(7)
        .precision(precision)
        .add_species(
            Species::electrons("plasma", Profile::Uniform { n0: N0 }, [2, 1, 2]).with_drift([
                0.02 * C,
                0.0,
                0.0,
            ]),
        )
        .build()
}

#[test]
fn f32_particles_tracks_f64_over_100_steps() {
    let mut a = uniform_plasma(Precision::F64);
    let mut b = uniform_plasma(Precision::F32Particles);
    assert_eq!(b.precision, Precision::F32Particles);
    let g64_0 = a.gauss_residual_norm();
    let g32_0 = b.gauss_residual_norm();
    for _ in 0..100 {
        a.step();
        b.step();
    }
    let fe64 = field_energy(&a.fs);
    let fe32 = field_energy(&b.fs);
    assert!(fe64 > 0.0, "drifting plasma must build field energy");
    let rel = (fe32 - fe64).abs() / fe64;
    assert!(rel < 1e-3, "f32 field-energy drift {rel:.3e} vs f64");
    // Esirkepov conserves the Gauss residual exactly in f64; the f32
    // currents round at ~1e-7 relative per step, so after 100 steps the
    // drift must stay far below the plasma's charge-density scale.
    let scale = N0 * Q_E / EPS0;
    let d64 = (a.gauss_residual_norm() - g64_0).abs();
    let d32 = (b.gauss_residual_norm() - g32_0).abs();
    assert!(d64 < 1e-9 * scale, "f64 residual drifted {d64:.3e}");
    assert!(d32 < 1e-3 * scale, "f32 residual drifted {d32:.3e}");
    // The NaN/Inf sentinel ran every step on both runs.
    assert!(!a.telemetry.tripped());
    assert!(!b.telemetry.tripped());
    // Momenta written back from the f32 push stayed finite.
    for buf in &b.parts[0].bufs {
        assert!(buf.ux.iter().all(|u| u.is_finite()));
    }
}
