//! Order statistics, the metric-name grammar and the figure of merit.

/// Median of `v` (mean of the two middle values for an even count).
/// Returns NaN for an empty slice so a missing sample cannot pass as 0.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in [0, 1] of `v`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Percentiles a tail report may use, lowest first.
pub const TAIL_PERCENTILES: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples strictly beyond the nearest-rank `p`-th percentile of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    // The epsilon keeps float error in `p / 100 * n` from adding a rank.
    let rank = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    n.saturating_sub(rank.max(1))
}

/// The highest percentile in [`TAIL_PERCENTILES`] that still has at
/// least ten samples beyond it, or `None` when even the median has not.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .rev()
        .find(|&p| samples_beyond(n, p) >= 10)
}

/// Paper Eq. 1 on one rank of one machine: `(0.1 N_cells + 0.9
/// N_particles) / mean step seconds`.
pub fn fom(cells: f64, particles: f64, loop_seconds: f64, steps: u64) -> f64 {
    (0.1 * cells + 0.9 * particles) * steps as f64 / loop_seconds
}

/// A metric name: starts with a letter or digit, at most 64 letters,
/// digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Wall time covered by the union of `[start, end)` intervals.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_name_grammar() {
        for ok in [
            "wall_s",
            "turnaround_s.p50",
            "kernels.gather_ns_per_particle",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_wall",
            ".p50",
            "-x",
            "wall s",
            "wall/s",
            "wäll",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "MB", "GB/s", "%", "ns/particle"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", "seconds-per-step!", "12345678901234567"] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
    }

    #[test]
    fn every_declared_metric_obeys_the_grammar() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let mut declared = Vec::new();
        for key in ["end_to_end", "per_layer"] {
            let serde_json::Value::Array(list) = doc.get(key).expect("metric list") else {
                panic!("{key} is not a list");
            };
            for m in list {
                let name = m.get("name").and_then(|v| v.as_str()).expect("name");
                let unit = m.get("unit").and_then(|v| v.as_str()).expect("unit");
                let better = m.get("better").and_then(|v| v.as_str()).expect("better");
                let bound = m.get("bound").and_then(|v| v.as_f64());
                assert!(valid_metric_name(name), "{name}");
                assert!(valid_unit(unit), "{name}: {unit}");
                declared.push((
                    key,
                    name.to_string(),
                    unit.to_string(),
                    better.to_string(),
                    bound,
                ));
            }
        }
        let produced: Vec<_> = crate::metrics::END_TO_END
            .iter()
            .map(|m| ("end_to_end", m))
            .chain(crate::metrics::PER_LAYER.iter().map(|m| ("per_layer", m)))
            .map(|(k, m)| {
                let text = |s: &str| s.to_string();
                (k, text(m.name), text(m.unit), text(m.better), m.bound)
            })
            .collect();
        assert_eq!(declared, produced, "BENCHMARK.json and the code disagree");
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(20, 50.0), 10);
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(39), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn fom_matches_the_cluster_model() {
        for (cells, parts, secs, steps) in [
            (24_576.0, 98_304.0, 3.4, 200u64),
            (4_096.0, 0.0, 0.5, 424),
            (1.0e6, 3.3e7, 12.25, 7),
        ] {
            let ours = fom(cells, parts, secs, steps);
            let model = mrpic::cluster::fom::fom(cells, parts, secs / steps as f64, 1.0);
            assert!(
                (ours - model).abs() <= 1e-12 * model.abs(),
                "{ours} vs {model}"
            );
        }
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 30)]), 25);
        assert_eq!(union_len(&mut []), 0);
    }
}
