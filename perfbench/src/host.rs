//! Time the host gave this process.
//!
//! On a virtual machine the hypervisor runs other guests on this machine's
//! CPUs now and then; the guest kernel counts that time as "steal". Wall
//! time then measures the neighbours as much as the program: on the 2-vCPU
//! reference host steal came in phases of minutes and took up to a third
//! of the CPU time. The benchmark's timings therefore leave stolen time
//! out. Everything else a caller waits for (the program's own threads,
//! waiting in the run queue, page faults) stays in.

use std::os::raw::{c_int, c_long};
use std::path::PathBuf;
use std::time::Instant;

/// Busy and stolen time of all CPUs, in clock ticks.
#[derive(Debug, Clone, Copy)]
struct CpuTicks {
    busy: u64,
    steal: u64,
}

/// The first line of `/proc/stat`: user, nice, system, idle, iowait, irq,
/// softirq, steal, ... Busy is everything but idle and iowait.
fn cpu_ticks() -> Option<CpuTicks> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let f: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    let [user, nice, system, _idle, _iowait, irq, softirq, steal] = f[..] else {
        return None;
    };
    Some(CpuTicks {
        busy: user + nice + system + irq + softirq + steal,
        steal,
    })
}

/// Wall and steal-free seconds of one interval.
#[derive(Debug, Clone, Copy)]
pub struct Elapsed {
    pub wall: f64,
    /// Wall time less the share of the CPUs' busy time that was stolen.
    pub free: f64,
}

/// Start of an interval timed in steal-free seconds.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    at: Instant,
    ticks: Option<CpuTicks>,
}

impl HostClock {
    pub fn start() -> Self {
        HostClock {
            ticks: cpu_ticks(),
            at: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        let wall = self.at.elapsed().as_secs_f64();
        let stolen = match (self.ticks, cpu_ticks()) {
            (Some(a), Some(b)) if b.busy > a.busy => {
                (b.steal - a.steal) as f64 / (b.busy - a.busy) as f64
            }
            _ => 0.0,
        };
        Elapsed {
            wall,
            free: wall * (1.0 - stolen.clamp(0.0, 1.0)),
        }
    }
}

/// Share of the wall time of the intervals `wall` that was stolen, given
/// their steal-free times `free`.
pub fn steal_share(wall: &[f64], free: &[f64]) -> f64 {
    let w: f64 = wall.iter().sum();
    if w > 0.0 {
        1.0 - free.iter().sum::<f64>() / w
    } else {
        0.0
    }
}

/// Time one thread of this process spent on a CPU or waiting in the run
/// queue for one, in nanoseconds. The kernel leaves stolen time out of the
/// first and keeps it in the second only while the thread waits.
#[derive(Debug)]
pub struct ThreadClock {
    /// The thread's CPU-time clock (Linux: `CPUCLOCK_SCHED` of the thread
    /// id, per thread). Unlike `schedstat`, it is exact for a thread that
    /// is running while it is read.
    clock: c_int,
    /// `/proc/self/task/<tid>/schedstat`: on-CPU time, run-queue wait.
    schedstat: PathBuf,
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

impl ThreadClock {
    /// The thread of this process named `name`, if there is one.
    pub fn by_name(name: &str) -> Option<Self> {
        let dir = std::fs::read_dir("/proc/self/task")
            .ok()?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                std::fs::read_to_string(p.join("comm")).is_ok_and(|c| c.trim_end() == name)
            })?;
        let tid: c_int = dir.file_name()?.to_str()?.parse().ok()?;
        Some(ThreadClock {
            clock: (!tid << 3) | 6,
            schedstat: dir.join("schedstat"),
        })
    }

    pub fn busy_ns(&self) -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec; a clock id the kernel
        // does not know (a thread that has ended) returns an error.
        if unsafe { clock_gettime(self.clock, &mut ts) } != 0 {
            return None;
        }
        let on_cpu = ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64;
        let s = std::fs::read_to_string(&self.schedstat).ok()?;
        let waited: u64 = s.split_whitespace().nth(1)?.parse().ok()?;
        Some(on_cpu + waited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_free_time_is_at_most_wall_time() {
        let c = HostClock::start();
        let mut x = 0u64;
        while c.at.elapsed().as_millis() < 30 {
            x = x.wrapping_add(1);
        }
        let e = c.elapsed();
        assert!(
            x > 0 && e.wall >= 0.03 && e.free <= e.wall && e.free > 0.0,
            "{e:?}"
        );
    }

    #[test]
    fn a_thread_clock_counts_the_named_threads_work() {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::Builder::new()
            .name("perfbench-test".into())
            .spawn(move || {
                let t = Instant::now();
                while t.elapsed().as_millis() < 20 {}
                rx.recv().ok();
            })
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(40));
        let clock = ThreadClock::by_name("perfbench-test").expect("thread found");
        let busy = clock.busy_ns().unwrap();
        tx.send(()).unwrap();
        worker.join().unwrap();
        assert!(busy >= 5_000_000, "{busy} ns");
        assert!(ThreadClock::by_name("no-such-thread").is_none());
    }
}
