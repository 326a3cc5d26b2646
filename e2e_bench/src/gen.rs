//! Workloads and seeded input generation.
//!
//! Each workload starts from a committed config under `configs/`. The
//! seed sets the config's particle RNG seed, which draws every
//! particle's thermal momentum (a fixed small spread the benchmark adds
//! to each species), so every seed is a different physical state of the
//! same size and cost. The run length is written into the generated
//! config as `t_end`, never passed on the command line: the program
//! only ever sees the generated file.

use mrpic::core::config::RunConfig;

/// How the program executes a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// `mrpic_run`, one process, `threads` rayon workers.
    Local { threads: usize },
    /// `mrpic_run --ranks N --transport socket`: N `mrpic_rank` processes.
    Socket { ranks: usize },
}

pub struct Workload {
    pub name: &'static str,
    /// Committed config the inputs are generated from.
    pub base: &'static str,
    pub mode: Mode,
    /// Steps of one run.
    pub steps: u64,
}

/// Thermal momentum spread (`u = gamma v / c`) added to every species
/// so that the seed changes the physical state.
pub const U_THERMAL: f64 = 0.01;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "mr_hybrid",
        base: "configs/hybrid_target_mr_2d.json",
        mode: Mode::Local { threads: 1 },
        steps: 200,
    },
    Workload {
        name: "foil_threads2",
        base: "configs/laser_foil_skewed_2d.json",
        mode: Mode::Local { threads: 2 },
        steps: 424,
    },
    // Half the threaded run's steps: a socket repetition costs twice as
    // much, and a run needs enough repetitions for a steady median.
    Workload {
        name: "foil_socket2",
        base: "configs/laser_foil_skewed_2d.json",
        mode: Mode::Socket { ranks: 2 },
        steps: 212,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Generate the config text of `base_text` for `seed` and `steps`.
///
/// `t_end` is placed half a step past the last step so that float
/// accumulation of `time` cannot add or drop a step. The time step is
/// taken from the built simulation (mesh refinement shrinks it).
pub fn generate(base_text: &str, seed: u64, steps: u64) -> Result<String, String> {
    let mut cfg = RunConfig::from_json(base_text)?;
    cfg.seed = seed;
    for sp in &mut cfg.species {
        sp.u_thermal = [U_THERMAL; 3];
    }
    let (sim, _) = cfg.build()?;
    cfg.t_end = (steps as f64 - 0.5) * sim.dt;
    // Progress lines every quarter run, diagnostics written at the end.
    cfg.diag_interval = (steps / 4).max(1);
    let mut text = serde_json::to_string_pretty(&cfg).map_err(|e| e.to_string())?;
    text.push('\n');
    // Round trip: the program must read back exactly this config.
    let back = RunConfig::from_json(&text)?;
    if back.t_end != cfg.t_end || back.seed != seed {
        return Err("generated config does not round-trip".into());
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(w: &Workload) -> String {
        let path = format!("{}/../{}", env!("CARGO_MANIFEST_DIR"), w.base);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn generation_is_byte_stable_per_seed() {
        for w in &WORKLOADS {
            let committed = base(w);
            let a = generate(&committed, 7, w.steps).unwrap();
            let b = generate(&committed, 7, w.steps).unwrap();
            assert_eq!(a.as_bytes(), b.as_bytes(), "{}", w.name);
            let c = generate(&committed, 8, w.steps).unwrap();
            assert_ne!(a, c, "{}: the seed must change the inputs", w.name);
            assert_eq!(committed, base(w), "the committed config is never written");
        }
    }

    #[test]
    fn generated_run_has_the_requested_steps() {
        let w = workload("foil_socket2").unwrap();
        let text = generate(&base(w), 3, w.steps).unwrap();
        let cfg = RunConfig::from_json(&text).unwrap();
        let (mut sim, _) = cfg.build().unwrap();
        while sim.time < cfg.t_end {
            sim.step();
        }
        assert_eq!(sim.istep, w.steps);
        assert_eq!(cfg.seed, 3);
    }
}
