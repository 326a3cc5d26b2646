//! Child processes watched from outside: stdout lines stamped on
//! arrival, and the resident memory of the whole process tree sampled
//! until the child exits.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resident-memory sampling period of the process tree.
const RSS_PERIOD: Duration = Duration::from_millis(20);

pub struct Watched {
    child: Child,
    pub t0: Instant,
    lines: Option<JoinHandle<Vec<(f64, String)>>>,
    rss: Option<JoinHandle<f64>>,
    stop: Arc<AtomicBool>,
}

pub struct Finished {
    /// Seconds from spawn until the child was reaped.
    pub wall_s: f64,
    pub code: Option<i32>,
    /// Stdout lines with their arrival time in seconds after spawn.
    pub lines: Vec<(f64, String)>,
    /// Peak summed resident memory of the child and its descendants, in
    /// MB (10^6 bytes).
    pub peak_rss_mb: f64,
}

impl Finished {
    /// Arrival time of the first stdout line that `pred` accepts.
    pub fn line_time(&self, pred: impl Fn(&str) -> bool) -> Option<f64> {
        self.lines.iter().find(|(_, l)| pred(l)).map(|(t, _)| *t)
    }
}

/// Spawn `cmd` with stdout captured and stderr sent to `stderr_log`.
pub fn spawn(mut cmd: Command, stderr_log: &std::path::Path) -> std::io::Result<Watched> {
    let log = std::fs::File::create(stderr_log)?;
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::from(log));
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let lines = std::thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .map(|l| (t0.elapsed().as_secs_f64(), l))
            .collect()
    });
    let stop = Arc::new(AtomicBool::new(false));
    let pid = child.id();
    let stop2 = Arc::clone(&stop);
    let rss = std::thread::spawn(move || {
        let mut peak = 0u64;
        while !stop2.load(Ordering::Relaxed) {
            peak = peak.max(tree_rss_kb(pid));
            std::thread::sleep(RSS_PERIOD);
        }
        // kB as /proc reports them (KiB) to MB.
        peak as f64 * 1024.0 / 1e6
    });
    Ok(Watched {
        child,
        t0,
        lines: Some(lines),
        rss: Some(rss),
        stop,
    })
}

impl Watched {
    /// Whether the child has already exited (without reaping it).
    pub fn exited(&mut self) -> bool {
        !matches!(self.child.try_wait(), Ok(None))
    }

    /// Wait for the child, then stop and join the watcher threads.
    pub fn finish(mut self) -> Finished {
        let status = self.child.wait();
        let wall_s = self.t0.elapsed().as_secs_f64();
        self.stop.store(true, Ordering::Relaxed);
        let lines = self.lines.take().map(|h| h.join().unwrap_or_default());
        let rss = self.rss.take().map(|h| h.join().unwrap_or(0.0));
        Finished {
            wall_s,
            code: status.ok().and_then(|s| s.code()),
            lines: lines.unwrap_or_default(),
            peak_rss_mb: rss.unwrap_or(0.0),
        }
    }

    /// Kill the child (used only on an error path) and reap it.
    pub fn kill(mut self) -> Finished {
        let _ = self.child.kill();
        self.finish()
    }
}

/// Summed `VmRSS` (kB) of `pid` and all its descendants.
fn tree_rss_kb(pid: u32) -> u64 {
    let mut total = 0;
    let mut stack = vec![pid];
    while let Some(p) = stack.pop() {
        total += std::fs::read_to_string(format!("/proc/{p}/status"))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmRSS:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            })
            .unwrap_or(0);
        let Ok(tasks) = std::fs::read_dir(format!("/proc/{p}/task")) else {
            continue;
        };
        for t in tasks.flatten() {
            if let Ok(kids) = std::fs::read_to_string(t.path().join("children")) {
                stack.extend(
                    kids.split_whitespace()
                        .filter_map(|k| k.parse::<u32>().ok()),
                );
            }
        }
    }
    total
}
