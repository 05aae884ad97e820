//! A fixed reference kernel for the host's speed.
//!
//! On a VM that shares its cores, the speed of memory-bound code wanders by
//! 10–20 % over tens of seconds, and the simulator's timed metrics wander
//! with it. The kernel below is a random read-modify-write over a buffer far
//! larger than the caches, the access pattern that dominates a simulation
//! run. Its code is the benchmark's own, so no change to the program moves
//! it; timed next to the program, it tells how fast the host was at the time.
//!
//! The kernel runs in a child process (`e2ebench --reference`), so its
//! buffer never counts towards the benchmark process's peak memory.

use std::time::Instant;

/// Size of the kernel's buffer: far above any last-level cache.
const BUFFER_BYTES: usize = 128 << 20;
/// Random accesses the kernel makes.
const ACCESSES: u64 = 20_000_000;
/// The kernel's typical wall time, in ms, on the 2-core shared Xeon VM the
/// benchmark was tuned on. Timed metrics scaled by `NOMINAL_MS / measured`
/// read as if the host ran at that speed.
pub(crate) const NOMINAL_MS: f64 = 400.0;

/// Runs the kernel in this process and returns its wall time in ms
/// (buffer set-up excluded).
pub(crate) fn kernel_ms() -> f64 {
    let mut buf: Vec<u64> = (0..(BUFFER_BYTES / 8) as u64).collect();
    let len = buf.len() as u64;
    let start = Instant::now();
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut acc: u64 = 0;
    for _ in 0..ACCESSES {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        let i = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) % len) as usize;
        acc = acc.wrapping_add(buf[i]);
        buf[i] = acc;
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs the kernel in a child process (`<this binary> --reference`), waits
/// for it, and returns its wall time in ms.
pub(crate) fn measure_ms() -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let output = std::process::Command::new(exe)
        .arg("--reference")
        .output()
        .map_err(|e| format!("cannot run the reference kernel: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(ms) if output.status.success() && ms > 0.0 => Ok(ms),
        _ => Err(format!(
            "reference kernel failed: {}",
            String::from_utf8_lossy(&output.stderr)
        )),
    }
}
