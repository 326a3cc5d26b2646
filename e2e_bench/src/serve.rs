//! A client of `mrpic_serve` for the traced pass's serve probe.

use crate::check::Reference;
use crate::proc;
use crate::Ctx;
use mrpic::core::config::RunConfig;
use mrpic::serve::{fetch_status, read_frame, request_shutdown, write_frame};
use mrpic::serve::{Budgets, JobSpec, JobSummary, Request, Response};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Scheduler quantum (steps) of the probed server: short, so that two
/// jobs on one slot preempt each other.
const QUANTUM: u64 = 4;

/// One job as its client sees it.
pub struct Job {
    pub submit: Instant,
    pub first_step: Option<Instant>,
    pub done: Instant,
    pub preemptions: u64,
    pub summary: JobSummary,
}

pub fn job_spec(tenant: &str, cfg: RunConfig) -> JobSpec {
    JobSpec {
        tenant: tenant.to_string(),
        priority: 0,
        budgets: Budgets {
            max_steps: None,
            max_boxes: None,
            wall_ceiling_seconds: None,
        },
        config: cfg,
    }
}

/// Submit `spec` over the server's public protocol and follow its
/// event stream to the terminal frame. `mrpic::serve::submit_job` returns
/// only the summary; this client also stamps the first streamed record
/// and counts preemptions.
pub fn submit(sock: &Path, spec: &JobSpec) -> Result<Job, String> {
    let mut stream = UnixStream::connect(sock).map_err(|e| format!("connect: {e}"))?;
    let submit = Instant::now();
    write_frame(&mut stream, &Request::Submit { job: spec.clone() })
        .map_err(|e| format!("submit: {e}"))?;
    let mut first_step = None;
    let mut preemptions = 0;
    loop {
        let resp: Response = read_frame(&mut stream)
            .map_err(|e| format!("stream: {e}"))?
            .ok_or("stream ended before the job finished")?;
        match resp {
            Response::Accepted { .. } => {}
            Response::Step { .. } => {
                first_step.get_or_insert_with(Instant::now);
            }
            Response::State { state, .. } => preemptions += u64::from(state == "preempted"),
            Response::Done { summary, .. } => {
                return Ok(Job {
                    submit,
                    first_step,
                    done: Instant::now(),
                    preemptions,
                    summary,
                })
            }
            Response::Rejected { reason } | Response::Failed { reason, .. } => return Err(reason),
            other => return Err(format!("unexpected frame {other:?}")),
        }
    }
}

/// Check a finished job against the local reference run of its config
/// (the job summary carries no digest).
pub fn check_job(s: &JobSummary, r: &Reference) -> Result<(), String> {
    if s.guard_trips != 0 {
        return Err(format!("job {}: {} guard trip(s)", s.job_id, s.guard_trips));
    }
    if (s.steps, s.time.to_bits(), s.particles) != (r.steps, r.time.to_bits(), r.particles) {
        return Err(format!(
            "job {}: steps/time/particles {}/{:e}/{}, reference {}/{:e}/{}",
            s.job_id, s.steps, s.time, s.particles, r.steps, r.time, r.particles
        ));
    }
    Ok(())
}

/// A running `mrpic_serve --slots 1` on a socket under `dir`.
pub struct Server {
    pub proc: proc::Watched,
    pub sock: PathBuf,
}

pub fn start_server(ctx: &Ctx, dir: &Path) -> Result<Server, String> {
    let sock = dir.join("serve.sock");
    let mut cmd = Command::new(ctx.bin("mrpic_serve"));
    cmd.arg("--socket")
        .arg(&sock)
        .args(["--slots", "1", "--quantum", &QUANTUM.to_string()])
        .arg("--log")
        .arg(dir.join("server.jsonl"))
        .env("RAYON_NUM_THREADS", "1");
    let mut p = proc::spawn(cmd, &dir.join("stderr.log")).map_err(|e| format!("spawn: {e}"))?;
    loop {
        if fetch_status(&sock).is_ok() {
            return Ok(Server { proc: p, sock });
        }
        if p.exited() || p.t0.elapsed() > Duration::from_secs(30) {
            let code = p.kill().code;
            return Err(format!("server never accepted (exit {code:?})"));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl Server {
    /// Ask for a clean drain and wait for the process to exit.
    pub fn stop(self) -> proc::Finished {
        if request_shutdown(&self.sock).is_err() {
            return self.proc.kill();
        }
        self.proc.finish()
    }
}
