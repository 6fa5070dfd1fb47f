//! Render → parse is the identity for the one-job repro spec a campaign
//! writes for an oracle violation (`JobSpec::repro_spec` →
//! `parse_spec`), as it is for query batches (`rtft-core`'s
//! `query_roundtrip`) and task files (`format_roundtrip`). Random
//! systems have ns-granular parameters and offsets, and faults that
//! repeat on one job: overruns and underruns that sum, cancel out, or
//! reach a large fraction of the `i64` range.

use proptest::prelude::*;
use rtft_campaign::parse_spec;

/// SplitMix64: one seed drives a whole system.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Task lines in priority order (so the ids the parser assigns are the
/// rank order the renderer writes), then fault lines.
fn system_lines(seed: u64, tasks: u64) -> String {
    let mut rng = Rng(seed);
    let mut lines = String::new();
    for i in 0..tasks {
        let period = 1_000_000 + rng.below(500_000_000);
        let cost = 1 + rng.below(period / 4);
        let deadline = cost + rng.below(period - cost + 1);
        lines.push_str(&format!(
            "task t{i} {} {period}ns {deadline}ns {cost}ns",
            100 - i as i64
        ));
        if rng.below(2) == 0 {
            lines.push_str(&format!(" {}ns", rng.below(1_000_000_000)));
        }
        lines.push('\n');
    }
    let large = i64::MAX as u64 / 3;
    for _ in 0..rng.below(8) {
        let kind = if rng.below(3) == 0 {
            "underrun"
        } else {
            "overrun"
        };
        // Three `large` amounts of one sign on one job sum to just
        // under `i64::MAX`, so more can overflow (a line error).
        let amount = match rng.below(6) {
            0 => large,
            1 => 1_000_000,
            _ => 1 + rng.below(50_000_000),
        };
        lines.push_str(&format!(
            "fault t{} job {} {kind} {amount}ns\n",
            rng.below(tasks),
            rng.below(3)
        ));
    }
    lines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A one-job campaign re-parses from its repro spec to the same
    /// job, and the repro spec is a fixed point.
    #[test]
    fn repro_specs_round_trip(
        seed in 0u64..u64::MAX,
        tasks in 1u64..=6,
        axes in 0u64..1_000,
    ) {
        let mut text = String::from("campaign roundtrip\nhorizon 1234567ns\noracle on\n");
        text.push_str(&system_lines(seed, tasks));
        let mut rng = Rng(axes);
        let cores = 1 + rng.below(3);
        text.push_str(&format!(
            "policy {}\ncores {cores}\nplacement {}\nalloc {}\ntreatment {}\nplatform {}\n",
            ["fp", "edf", "npfp"][rng.below(3) as usize],
            ["partitioned", "global"][rng.below(2) as usize],
            ["ffd", "bfd", "wfd"][rng.below(3) as usize],
            ["none", "detect", "stop", "equitable", "system"][rng.below(5) as usize],
            ["exact", "jrate", "quantum=3ms poll=1ms dispatch=5us"][rng.below(3) as usize],
        ));
        let spec = match parse_spec(&text) {
            Ok(spec) => spec,
            Err(e) => {
                prop_assert!(e.message.ends_with("overflows"), "{}", e);
                return Ok(());
            }
        };
        let jobs = spec.expand().expect("a one-job grid expands");
        prop_assert_eq!(jobs.len(), 1);
        let job = &jobs[0];
        let repro = job.repro_spec();
        let again = parse_spec(&repro)
            .expect("repro specs parse")
            .expand()
            .expect("repro specs expand");
        prop_assert_eq!(again.len(), 1);
        let back = &again[0];
        prop_assert_eq!(&*back.set, &*job.set);
        prop_assert_eq!(&back.faults, &job.faults);
        prop_assert_eq!(back.policy, job.policy);
        prop_assert_eq!(back.cores, job.cores);
        prop_assert_eq!(back.placement, job.placement);
        prop_assert_eq!(back.alloc, job.alloc);
        prop_assert_eq!(back.treatment, job.treatment);
        prop_assert_eq!(back.platform, job.platform);
        prop_assert_eq!(back.horizon, job.horizon);
        prop_assert_eq!(back.repro_spec(), repro);
    }
}
