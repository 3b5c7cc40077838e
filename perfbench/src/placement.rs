//! Core placement for `serve-mix`: `fastbfs serve` on one core, the
//! benchmark's client on the others.
//!
//! The server's one session runs one engine lane, and the thread that hands
//! it a query waits at the pool's finish barrier by spinning and yielding
//! for the whole traversal. Left to the scheduler, that waiter keeps a
//! second vCPU busy beside the lane, so on a guest whose vCPUs the host
//! preempts (steal time) a traversal stalls whenever either vCPU is taken:
//! on a 2-vCPU KVM guest the closed loop fell from ≈130 to ≈95 requests/s
//! as steal rose from 4–6% to 11–14%. On a core of its own the waiter
//! yields to the lane, the client runs beside the server instead of between
//! its threads, and a run slows only with the steal of the server's core.

use libc::cpu_set_t;

/// CPUs above this are not looked at; the glibc set holds 1024.
const MAX_CPUS: usize = 1024;

/// The calling thread's CPU split, restored to the whole set on drop.
pub struct Placement {
    all: cpu_set_t,
    server: cpu_set_t,
    client: cpu_set_t,
    server_cpu: usize,
    client_cpus: Vec<usize>,
}

impl Placement {
    /// Splits the CPUs the calling thread may run on: the lowest for the
    /// server, the rest for the client. `None` with fewer than two, or when
    /// the thread's affinity cannot be read.
    pub fn split() -> Option<Placement> {
        // SAFETY: cpu_set_t is a plain bitset; sched_getaffinity writes at
        // most `size_of::<cpu_set_t>()` bytes into it.
        let all = unsafe {
            let mut set: cpu_set_t = std::mem::zeroed();
            if libc::sched_getaffinity(0, std::mem::size_of::<cpu_set_t>(), &mut set) != 0 {
                return None;
            }
            set
        };
        // SAFETY: CPU_ISSET only reads the set.
        let cpus: Vec<usize> = (0..MAX_CPUS)
            .filter(|&c| unsafe { libc::CPU_ISSET(c, &all) })
            .collect();
        let (&server_cpu, client_cpus) = cpus.split_first()?;
        if client_cpus.is_empty() {
            return None;
        }
        Some(Placement {
            all,
            server: cpu_set(&[server_cpu]),
            client: cpu_set(client_cpus),
            server_cpu,
            client_cpus: client_cpus.to_vec(),
        })
    }

    /// Runs `start` on the server's core, so that a process it starts
    /// inherits that core, then moves the calling thread to the client's
    /// cores; threads it spawns afterwards inherit those.
    pub fn start_server<T>(&self, start: impl FnOnce() -> T) -> Result<T, String> {
        set_thread(&self.server)?;
        let started = start();
        set_thread(&self.client)?;
        Ok(started)
    }

    /// One line for the run's provenance.
    pub fn describe(&self) -> String {
        format!(
            "server on cpu {}, client on cpus {:?}",
            self.server_cpu, self.client_cpus
        )
    }
}

impl Drop for Placement {
    fn drop(&mut self) {
        let _ = set_thread(&self.all);
    }
}

fn cpu_set(cpus: &[usize]) -> cpu_set_t {
    // SAFETY: cpu_set_t is a plain bitset; CPU_ZERO and CPU_SET write
    // within it and ignore indexes past its end.
    unsafe {
        let mut set: cpu_set_t = std::mem::zeroed();
        libc::CPU_ZERO(&mut set);
        for &c in cpus {
            libc::CPU_SET(c, &mut set);
        }
        set
    }
}

/// Sets the calling thread's affinity.
fn set_thread(set: &cpu_set_t) -> Result<(), String> {
    // SAFETY: sched_setaffinity reads at most `size_of::<cpu_set_t>()`
    // bytes of the set; pid 0 is the calling thread.
    let rc = unsafe { libc::sched_setaffinity(0, std::mem::size_of::<cpu_set_t>(), set) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}
