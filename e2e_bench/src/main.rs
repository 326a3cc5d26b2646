//! End-to-end benchmark of `mrpic`.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload mr_hybrid --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root. The benchmark builds `mrpic_run`,
//! `mrpic_serve` and `mrpic_rank` into its own target directory,
//! generates the workload's config from a committed config and the
//! seed, computes the reference final state in process, then either
//! times the program binaries as subprocesses (`--trace 0`, end-to-end
//! metrics) or drives the same config in process with every layer
//! probed through its public calls (`--trace 1`, per-layer metrics).
//! Every output is checked against the reference. The last line of
//! standard output is the JSON result; see `README.md` in this
//! directory for the workloads and metrics.

mod check;
mod e2e;
mod gen;
mod metrics;
mod proc;
mod serve;
mod stats;
mod traced;

use std::path::{Path, PathBuf};
use std::process::Command;

/// What every part of a run needs to know.
pub struct Ctx {
    /// Directory holding the built program binaries.
    pub bins: PathBuf,
    /// This run's output directory (relative to the repository root
    /// where possible: Unix socket paths must stay short).
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bins.join(name)
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => workload = Some(val()?),
            "--seed" => seed = Some(val()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(val()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unexpected argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if gen::workload(&workload).is_none() {
        let names: Vec<_> = gen::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload}; one of {}",
            names.join(", ")
        ));
    }
    let seconds: f64 = seconds.unwrap_or(15.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("e2e_bench: {msg}");
    std::process::exit(2);
}

/// Build the program binaries next to this executable.
fn build_program(target: &Path) -> Result<(), String> {
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--quiet", "-p", "mrpic"])
        .args([
            "--bin",
            "mrpic_run",
            "--bin",
            "mrpic_serve",
            "--bin",
            "mrpic_rank",
        ])
        .env("CARGO_TARGET_DIR", target)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the program failed ({status})"));
    }
    Ok(())
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| fail(&e));
    let w = gen::workload(&args.workload).expect("checked in parse_args");
    let root = std::env::current_dir().unwrap_or_else(|e| fail(&format!("cwd: {e}")));
    if !root.join("Cargo.toml").is_file() || !root.join(w.base).is_file() {
        fail("run from the repository root (Cargo.toml and configs/ not found)");
    }
    // <target>/release/e2e_bench: the program is built into <target> too.
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("current_exe: {e}")));
    let target = exe
        .parent()
        .and_then(Path::parent)
        .unwrap_or_else(|| fail("cannot locate the target directory"))
        .to_path_buf();
    build_program(&target).unwrap_or_else(|e| fail(&e));
    let out_abs = target.join("e2e_bench_runs").join(format!(
        "{}-s{}-t{}",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let out = out_abs
        .strip_prefix(&root)
        .map(Path::to_path_buf)
        .unwrap_or(out_abs.clone());
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap_or_else(|e| fail(&format!("{}: {e}", out.display())));
    let ctx = Ctx {
        bins: target.join("release"),
        out,
        seed: args.seed,
        seconds: args.seconds,
    };

    // Seeded inputs, written into this run's own output.
    let base = std::fs::read_to_string(root.join(w.base)).unwrap_or_else(|e| fail(&e.to_string()));
    let text = gen::generate(&base, args.seed, w.steps).unwrap_or_else(|e| fail(&e));
    let cfg_path = ctx.out.join("config.json");
    std::fs::write(&cfg_path, &text).unwrap_or_else(|e| fail(&e.to_string()));
    let cfg = mrpic::core::config::RunConfig::from_json(&text).unwrap_or_else(|e| fail(&e));
    println!(
        "workload {} ({:?}), seed {}, {} steps (t_end {:e} s), generated from {} -> {}",
        w.name,
        w.mode,
        args.seed,
        w.steps,
        cfg.t_end,
        w.base,
        cfg_path.display()
    );
    let reference = check::reference(&cfg).unwrap_or_else(|e| fail(&e));
    println!(
        "reference (in process): {} steps, {} particles, {} cells, digest {} ({:.3} ms to compute)",
        reference.steps,
        reference.particles,
        reference.cells,
        reference.digest,
        1e3 * reference.digest_s
    );

    let correct = if args.trace {
        metrics::emit(&metrics::PER_LAYER, &traced::run(&ctx, w, &cfg, &reference))
    } else {
        metrics::emit(
            &metrics::END_TO_END,
            &e2e::run(&ctx, w, &cfg_path, &reference),
        )
    };
    if !correct {
        std::process::exit(1);
    }
}
