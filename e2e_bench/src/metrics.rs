//! The benchmark's metric catalogue and its JSON result line.
//!
//! `BENCHMARK.json` at the repository root declares the same names,
//! units, directions and bounds; a unit test keeps the two in step.

use crate::stats::{median, valid_metric_name, valid_unit};
use std::collections::BTreeMap;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by every untraced run (`--trace 0`).
///
/// Bounds: the spread of the timings over ten runs on a shared 2-vCPU
/// host reaches 20%, so they get 0.24. Set-up time, a few milliseconds
/// where small jitter is a large share, gets the largest bound.
/// `output_s` and `turnaround_s.p50` are printed by a run but not
/// listed (see README.md).
pub const END_TO_END: [Metric; 4] = [
    e2e("wall_s", "s", "lower", 0.24),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("fom", "1/s", "higher", 0.24),
    e2e("peak_rss_mb", "MB", "lower", 0.1),
];

/// Reported by every traced run (`--trace 1`). Exchange-plan builds in
/// the steady state are a check, not a metric: they must be 0.
pub const PER_LAYER: [Metric; 40] = [
    layer("config.build_ms", "ms", "lower"),
    layer("sim.step_ms", "ms", "lower"),
    layer("sim.unattributed_frac", "ratio", "lower"),
    layer("mr.couple_currents_ms", "ms", "lower"),
    layer("mr.advance_fields_ms", "ms", "lower"),
    layer("mr.build_aux_ms", "ms", "lower"),
    layer("kernels.gather_ns_per_particle", "ns", "lower"),
    layer("kernels.push_ns_per_particle", "ns", "lower"),
    layer("kernels.deposit_ns_per_particle", "ns", "lower"),
    layer("kernels.computed_gbps", "GB/s", "higher"),
    layer("field.yee_ms", "ms", "lower"),
    layer("field.pml_ms", "ms", "lower"),
    layer("field.filter_ms", "ms", "lower"),
    layer("amr.fill_ms", "ms", "lower"),
    layer("amr.sum_ms", "ms", "lower"),
    layer("amr.messages_per_step", "count", "lower"),
    layer("amr.bytes_per_step", "B", "lower"),
    layer("pool.region_us", "us", "lower"),
    layer("pool.speedup_2t", "ratio", "higher"),
    layer("dist.step_ms", "ms", "lower"),
    layer("dist.socket_step_ms", "ms", "lower"),
    layer("dist.exchanges_per_step", "count", "lower"),
    layer("dist.sent_messages_per_step", "count", "lower"),
    layer("dist.wire_bytes_per_step", "B", "lower"),
    layer("dist.wire_flushes_per_step", "count", "lower"),
    layer("dist.recv_wait_frac", "ratio", "lower"),
    layer("dist.migrated_per_step", "count", "lower"),
    layer("lb.adoptions", "count", "lower"),
    layer("lb.mean_imbalance", "ratio", "lower"),
    layer("diag.field_slice_ms", "ms", "lower"),
    layer("diag.spectrum_ms", "ms", "lower"),
    layer("diag.state_digest_ms", "ms", "lower"),
    layer("checkpoint.capture_ms", "ms", "lower"),
    layer("checkpoint.restore_ms", "ms", "lower"),
    layer("checkpoint.bytes", "B", "lower"),
    layer("serve.dispatch_wait_s", "s", "lower"),
    layer("serve.preemptions_per_job", "count", "lower"),
    layer("serve.status_rtt_ms", "ms", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("telemetry.phase_sum_ratio", "ratio", "lower"),
];

/// What a run measured, and how many of its checks failed.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
}

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Per metric, the median over the runs that measured it.
    pub fn median_of(runs: &[Values]) -> Values {
        let mut all: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for run in runs {
            for (&name, &v) in &run.0 {
                all.entry(name).or_default().push(v);
            }
        }
        Values(all.into_iter().map(|(n, v)| (n, median(&v))).collect())
    }
}

/// Print every metric of `catalogue` by name with its unit, then the
/// one-line JSON result (always the
/// last line of standard output). A metric that is missing or not
/// finite makes the run incorrect.
pub fn emit(catalogue: &[Metric], o: &Outcome) -> bool {
    let mut failed = o.failed;
    let mut parts = Vec::new();
    let mut complete = true;
    for m in catalogue {
        debug_assert!(
            valid_metric_name(m.name) && valid_unit(m.unit),
            "{}",
            m.name
        );
        match o.values.get(m.name).filter(|v| v.is_finite()) {
            Some(v) => {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", bound {:.0}%", 100.0 * b));
                println!(
                    "  {:<34} {:>16} {:<6} ({} is better{bound})",
                    m.name,
                    fmt_value(v),
                    m.unit,
                    m.better
                );
                // Debug prints the shortest round-trip form, which is a
                // valid JSON number for every finite value.
                parts.push(format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                ));
            }
            None => {
                println!("  {:<34} {:>16} {}", m.name, "MISSING", m.unit);
                complete = false;
            }
        }
    }
    if !complete {
        failed = failed.max(1);
    }
    let correct = complete && failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        o.attempted,
        parts.join(", ")
    );
    correct
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}
