//! What the host says about this process and about itself.

use std::process::Command;
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and passes clock_gettime the 64-bit Linux timespec");

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library `std` already links.
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Process CPU time (user + system, all threads, exited ones included) in
/// ns: what a pool or a helper thread would hide from wall time.
///
/// `/proc/self/stat` gives the same sum in 10 ms ticks, which quantises a
/// one-second repetition to 1 %; `CLOCK_PROCESS_CPUTIME_ID` counts ns.
pub fn cpu_ns() -> u64 {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout of
    // this target's C library, and `clock_gettime` writes nothing else.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if status == 0 {
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    } else {
        0
    }
}

/// Steps of the clock probe: about 20 us, long against the timer's
/// resolution and short against a piece of a repetition.
const CLOCK_STEPS: u32 = 20_000;

/// What one step of a dependent multiply-add chain takes right now, in
/// ns: the host's core clock period, up to the constant number of cycles
/// a step takes. The chain touches no memory and fills no issue port, so
/// of everything a neighbour can do to this VM only a change of clock
/// moves it. Host times are reported in these steps, read as ns at the
/// reference clock where a step takes 1 ns.
pub fn clock_step_ns() -> f64 {
    let started = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for _ in 0..CLOCK_STEPS {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
    }
    started.elapsed().as_nanos() as f64 / f64::from(CLOCK_STEPS)
}

/// Peak resident set of this process (`VmHWM`) in MiB; 0 where `/proc` is
/// not there.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(|l| l.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host stamp of a result set, as a JSON object.
pub fn stamp_json(seed: u64) -> String {
    format!(
        "{{\"nproc\":{},\"cpu_model\":{},\"rustc\":{},\"git_revision\":{},\"seed\":{}}}",
        nproc(),
        crate::output::jstr(&cpu_model()),
        crate::output::jstr(&first_line_of("rustc", &["--version"])),
        crate::output::jstr(&first_line_of("git", &["rev-parse", "HEAD"])),
        seed
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mib() > 0.0);
        // Burn 40 ms of CPU: the process clock must move by most of it.
        let before = cpu_ns();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 40 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let burnt = cpu_ns() - before;
        assert!(burnt >= 20_000_000, "{burnt}");
        // One multiply and one add in sequence: a few cycles, so well
        // inside 0.1..10 ns on any host this runs on.
        let step = clock_step_ns();
        assert!((0.1..10.0).contains(&step), "{step}");
        assert!(nproc() >= 1);
    }
}
