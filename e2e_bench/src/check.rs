//! Correctness: the in-process reference every program output is
//! compared against.

use mrpic::core::config::RunConfig;
use mrpic::core::sim::Simulation;

/// Final state of the generated config, stepped in this process.
#[derive(Clone, Debug)]
pub struct Reference {
    pub steps: u64,
    pub time: f64,
    pub particles: u64,
    /// `state_digest` as `mrpic_run` prints it in `summary.json`.
    pub digest: String,
    /// Cells at the start of the run, mesh-refinement patch included.
    pub cells: f64,
    /// Seconds one `state_digest` of the final state takes here (median
    /// of five calls).
    pub digest_s: f64,
}

/// Step `cfg` to `t_end` exactly as `mrpic_run` does (patch removals
/// included) and record the final state.
pub fn reference(cfg: &RunConfig) -> Result<Reference, String> {
    let (mut sim, removals) = cfg.build()?;
    let cells = sim.total_cells() as f64;
    let mut removed = vec![false; removals.len()];
    while sim.time < cfg.t_end {
        sim.step();
        apply_removals(&mut sim, &removals, &mut removed);
        if sim.telemetry.tripped() {
            return Err(format!(
                "reference run tripped a guard at step {}",
                sim.istep
            ));
        }
    }
    let digest_s = crate::stats::median(
        &(0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                std::hint::black_box(sim.state_digest());
                t.elapsed().as_secs_f64()
            })
            .collect::<Vec<_>>(),
    );
    Ok(Reference {
        steps: sim.istep,
        time: sim.time,
        particles: sim.total_particles() as u64,
        digest: digest_hex(&sim),
        cells,
        digest_s,
    })
}

/// Remove the refinement patch once its removal time has passed.
pub fn apply_removals(sim: &mut Simulation, removals: &[f64], removed: &mut [bool]) {
    for (i, &t) in removals.iter().enumerate() {
        if !removed[i] && sim.time >= t {
            sim.remove_mr_patch();
            removed[i] = true;
        }
    }
}

pub fn digest_hex(sim: &Simulation) -> String {
    format!("{:016x}", sim.state_digest())
}

/// Compare a run's `summary.json` with the reference; `Err` says why
/// the run counts as failed.
pub fn check_summary(text: &str, r: &Reference) -> Result<Summary, String> {
    let v: serde_json::Value = serde_json::from_str(text).map_err(|e| format!("summary: {e}"))?;
    let num = |k: &str| {
        v.get(k)
            .and_then(|x| x.as_f64())
            .ok_or_else(|| format!("summary has no {k}"))
    };
    let s = Summary {
        steps: num("steps")? as u64,
        loop_s: num("wall_seconds")?,
        particles: num("particles")? as u64,
    };
    let trips = num("guard_trips")?;
    let digest = v.get("state_digest").and_then(|x| x.as_str()).unwrap_or("");
    if trips != 0.0 {
        return Err(format!("{trips} guard trip(s)"));
    }
    if s.steps != r.steps {
        return Err(format!("{} steps, reference {}", s.steps, r.steps));
    }
    if digest != r.digest {
        return Err(format!("digest {digest}, reference {}", r.digest));
    }
    Ok(s)
}

pub struct Summary {
    pub steps: u64,
    /// The step loop's wall seconds as the program measured them.
    pub loop_s: f64,
    pub particles: u64,
}
