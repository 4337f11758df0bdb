//! Keeps every CPU awake while a workload runs.
//!
//! On a virtual machine an idle CPU halts and hands its physical core
//! back to the host; waking it again costs a host-scheduling delay that
//! depends on what else the host is running. A request here crosses
//! several threads (client, connection handler, shard), so an open-loop
//! run at half load pays that delay on most hops and its latency follows
//! the host's load rather than the program. One spinner per CPU at
//! `SCHED_IDLE` priority keeps each CPU from halting: the kernel runs it
//! only when nothing else wants the CPU and preempts it the moment a
//! program thread wakes, so the program keeps the whole machine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The spinners; dropping this stops and joins them.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl KeepAwake {
    /// Starts `n` spinners. A spinner that cannot lower itself to
    /// `SCHED_IDLE` exits at once rather than compete with the program.
    pub fn start(n: usize) -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..n)
            .map(|i| {
                let stop = stop.clone();
                std::thread::Builder::new()
                    .name(format!("keep-awake-{i}"))
                    .spawn(move || {
                        if !lower_to_idle_priority() {
                            return;
                        }
                        while !stop.load(Ordering::Relaxed) {
                            std::hint::spin_loop();
                        }
                    })
                    .expect("spawn spinner")
            })
            .collect();
        KeepAwake { stop, threads }
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        // The flag publishes no other data; `join` orders the rest.
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE` (`true` on success).
#[cfg(target_os = "linux")]
fn lower_to_idle_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `struct sched_param` for the whole call;
    // pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn lower_to_idle_priority() -> bool {
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spinners_stop_on_drop() {
        let awake = KeepAwake::start(2);
        assert_eq!(awake.threads.len(), 2);
        drop(awake);
    }
}
