//! Golden digest of the simulator: every bit it emits, pinned.
//!
//! Each of the four leak classes the fleet benchmark mixes (50/100/150/200
//! emulated browsers at N = 15/15/30/30) runs to its crash under one seed.
//! The digest covers every field of every checkpoint, the crash, and the
//! frozen-rate ground truth (`frozen_time_to_crash(3600.0)`) taken every
//! 40 checkpoints. Any change to the event loop, the samplers or the fork
//! that moves a single bit changes the digest, so a refactor that claims
//! to be behaviour-preserving must leave [`GOLDEN`] as it is.

use aging_testbed::{CrashKind, MemLeakSpec, MetricSample, Scenario, Simulator, StepOutcome};

/// (emulated browsers, leak N, seed) of each class.
const CLASSES: [(u64, u32, u64); 4] =
    [(50, 15, 101), (100, 15, 102), (150, 30, 103), (200, 30, 104)];

/// Checkpoints between two frozen-rate forks.
const FORK_EVERY: usize = 40;

/// The digest over all four classes.
const GOLDEN: u64 = 0xff7e_f57a_ea06_fdd2;

/// 64-bit FNV-1a: fixed across platforms and toolchains, unlike
/// `DefaultHasher`.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }
}

fn fields(s: &MetricSample) -> [f64; 22] {
    [
        s.time_secs,
        s.throughput_rps,
        s.workload_ebs,
        s.response_time_ms,
        s.system_load,
        s.disk_used_mb,
        s.swap_free_mb,
        s.num_processes,
        s.system_mem_used_mb,
        s.tomcat_mem_mb,
        s.num_threads,
        s.http_connections,
        s.mysql_connections,
        s.young_max_mb,
        s.old_max_mb,
        s.young_used_mb,
        s.old_used_mb,
        s.heap_used_mb,
        s.gc_minor,
        s.gc_major,
        s.old_resizes,
        s.refused,
    ]
}

fn scenario(ebs: u64, n: u32) -> Scenario {
    Scenario::builder(format!("golden-{ebs}eb-n{n}"))
        .emulated_browsers(ebs)
        .memory_leak(MemLeakSpec::new(n))
        .run_to_crash()
        .build()
}

/// Steps one class to its end, hashing everything it emits; returns the
/// checkpoints so they can be compared with `run_to_completion`'s trace.
fn digest_class(h: &mut Fnv1a, scenario: &Scenario, seed: u64) -> Vec<MetricSample> {
    let mut sim = Simulator::new(scenario, seed);
    let mut samples = Vec::new();
    loop {
        match sim.step() {
            StepOutcome::Checkpoint(sample) => {
                fields(&sample).into_iter().for_each(|v| h.write_f64(v));
                samples.push(sample);
                if samples.len() % FORK_EVERY == 0 {
                    h.write_f64(sim.frozen_time_to_crash(3600.0));
                }
            }
            StepOutcome::Crashed(crash) => {
                h.write_f64(crash.time_secs);
                h.write_u64(match crash.kind {
                    CrashKind::OutOfMemory => 1,
                    CrashKind::ThreadExhaustion => 2,
                    CrashKind::SystemMemoryExhausted => 3,
                    _ => 4,
                });
                return samples;
            }
            StepOutcome::Finished => {
                h.write_u64(0);
                return samples;
            }
        }
    }
}

#[test]
fn simulator_output_matches_the_golden_digest() {
    let mut h = Fnv1a::new();
    for (ebs, n, seed) in CLASSES {
        let scenario = scenario(ebs, n);
        let stepped = digest_class(&mut h, &scenario, seed);
        let trace = scenario.run(seed);
        assert!(trace.crash.is_some(), "{ebs} EBs at N={n} must crash");
        assert_eq!(trace.samples, stepped, "run_to_completion must record every checkpoint");
        h.write_f64(trace.duration_secs);
    }
    assert_eq!(h.0, GOLDEN, "simulator digest moved: {:#018x}", h.0);
}
