//! Untraced end-to-end runs of the program binaries.
//!
//! A run repeats the workload until `--seconds` have passed (at least
//! [`MIN_REPS`] times) and reports medians over the repetitions. One
//! repetition is one `mrpic_run` process.

use crate::check::{check_summary, Reference};
use crate::gen::{Mode, Workload};
use crate::metrics::{Outcome, Values};
use crate::proc;
use crate::stats::{median, quantile, tail_percentile};
use crate::Ctx;
use std::path::Path;
use std::process::Command;
use std::time::Instant;

const MIN_REPS: usize = 3;

/// One repetition's measurements (times in seconds).
#[derive(Default)]
struct Rep {
    wall: f64,
    setup: f64,
    loop_s: f64,
    output: f64,
    rss_mb: f64,
    fom: f64,
    /// Independent cross-check of the split (see the reconciliation
    /// report): the arrival of the line `mrpic_run` prints just before
    /// its step loop.
    check: Option<f64>,
}

pub fn run(ctx: &Ctx, w: &Workload, cfg_path: &Path, r: &Reference) -> Outcome {
    let mut reps = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < ctx.seconds {
        let dir = ctx.out.join(format!("rep{attempted}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the repetition directory");
        attempted += 1;
        match batch_rep(ctx, w, cfg_path, &dir, r) {
            Ok(rep) => reps.push(rep),
            Err(why) => {
                failed += 1;
                eprintln!("{}: repetition failed: {why}", w.name);
                println!("FAILED repetition: {why}");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
        // A failing program must not spin until the deadline.
        if failed > 0 && reps.is_empty() && attempted >= MIN_REPS as u64 {
            break;
        }
    }
    report(&reps);
    let pick = |f: fn(&Rep) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let walls: Vec<f64> = reps.iter().map(|r| r.wall).collect();
    let mut v = Values::default();
    v.set("wall_s", median(&walls));
    v.set("setup_s", pick(|r| r.setup));
    v.set("fom", pick(|r| r.fom));
    v.set("peak_rss_mb", pick(|r| r.rss_mb));
    println!(
        "wall_s per repetition: n = {}, p50 {:.4} s; highest percentile with >= 10 samples beyond it: {}",
        walls.len(),
        quantile(&walls, 0.5),
        tail_percentile(walls.len()).map_or("none (too few samples)".to_string(), |p| {
            format!("p{p} = {:.4} s", quantile(&walls, p / 100.0))
        }),
    );
    println!(
        "output_s: median {:.4} s over {} repetition(s)",
        pick(|r| r.output),
        reps.len()
    );
    println!(
        "error_rate: {failed}/{attempted} = {:.4}",
        failed as f64 / attempted.max(1) as f64
    );
    Outcome {
        values: v,
        attempted,
        failed,
    }
}

/// Reconciliation: does wall time split into setup + loop + output?
fn report(reps: &[Rep]) {
    println!("reconciliation ({} repetition(s)):", reps.len());
    for (i, r) in reps.iter().enumerate() {
        let sum = r.setup + r.loop_s + r.output;
        let check = r.check.map_or(String::new(), |c| {
            format!(
                " | setup by start-of-loop line {c:.4} s ({:+.4} s)",
                c - r.setup
            )
        });
        println!(
            "  rep {i}: wall {:.4} s = setup {:.4} + loop {:.4} + output {:.4} (sum {:.4}){check}",
            r.wall, r.setup, r.loop_s, r.output, sum
        );
    }
}

fn batch_rep(
    ctx: &Ctx,
    w: &Workload,
    cfg_path: &Path,
    dir: &Path,
    r: &Reference,
) -> Result<Rep, String> {
    let mut cmd = Command::new(ctx.bin("mrpic_run"));
    cmd.arg(cfg_path).arg(dir.join("out"));
    let threads = match w.mode {
        Mode::Local { threads } => threads,
        Mode::Socket { ranks } => {
            cmd.args(["--ranks", &ranks.to_string(), "--transport", "socket"]);
            // One core per rank process.
            1
        }
    };
    cmd.env("RAYON_NUM_THREADS", threads.to_string());
    let fin = proc::spawn(cmd, &dir.join("stderr.log"))
        .map_err(|e| format!("spawn mrpic_run: {e}"))?
        .finish();
    if fin.code != Some(0) {
        return Err(format!("mrpic_run exited with {:?}", fin.code));
    }
    let text = std::fs::read_to_string(dir.join("out/summary.json"))
        .map_err(|e| format!("no summary.json: {e}"))?;
    let s = check_summary(&text, r)?;
    // When the step loop ended. `mrpic_run` prints `done:` right after
    // it. A socket run's rank 0 first hashes its state for summary.json,
    // writes the file, then hashes it again for its `steps in` line, so
    // two digests (timed on the reference's final state, the same size)
    // come off that line's arrival. Writing the few hundred bytes of
    // summary.json stays in `setup_s`.
    let end = match w.mode {
        Mode::Socket { .. } => fin
            .line_time(|l| l.starts_with("rank 0: ") && l.contains(" steps in "))
            .map(|t| t - 2.0 * r.digest_s),
        Mode::Local { .. } => fin.line_time(|l| l.starts_with("done: ")),
    }
    .ok_or("no end-of-loop line on stdout")?;
    let start = match w.mode {
        Mode::Local { .. } => fin.line_time(|l| l.starts_with("mrpic_run: ")),
        _ => None,
    };
    Ok(Rep {
        wall: fin.wall_s,
        setup: end - s.loop_s,
        loop_s: s.loop_s,
        output: fin.wall_s - end,
        rss_mb: fin.peak_rss_mb,
        fom: crate::stats::fom(r.cells, s.particles as f64, s.loop_s, s.steps),
        check: start,
    })
}
