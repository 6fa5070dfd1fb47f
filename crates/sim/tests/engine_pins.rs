//! Pinned engine output. Every row runs one configuration of the
//! simulation engine and pins the trace's `content_hash` and, on more
//! than one core, the merged hash of the per-core logs. The grid covers
//! the three dispatch rules on 1, 2 and 4 cores over the paper system
//! and two UUniFast sets, then the paper's five treatments on jRate
//! timers with polled stops, dispatch and detector-fire overheads,
//! arrival jitter and one-shot timers. Each row also runs with a sink
//! attached: the sink must see exactly the recorded stream, with the
//! engine's own core attribution, and must not change the trace.
//!
//! The pins are the contract: a change to the engine that moves any of
//! them changes observable output.

use rtft_core::allowance::SlackPolicy;
use rtft_core::task::{TaskBuilder, TaskId, TaskSet};
use rtft_core::time::{Duration, Instant};
use rtft_ft::detector::FtSupervisor;
use rtft_ft::manager::AllowanceManager;
use rtft_ft::treatment::Treatment;
use rtft_sim::arrival::ArrivalModel;
use rtft_sim::engine::{SimBuffers, SimConfig, Simulator};
use rtft_sim::fault::{FaultPlan, RandomFaults};
use rtft_sim::overhead::Overheads;
use rtft_sim::policy::PolicyKind;
use rtft_sim::stop::{StopMode, StopModel};
use rtft_sim::supervisor::{NullSupervisor, Supervisor};
use rtft_taskgen::GeneratorConfig;
use rtft_trace::merge::merged_content_hash;
use rtft_trace::{EventKind, TraceEvent, TraceLog};

fn ms(v: i64) -> Duration {
    Duration::millis(v)
}

/// The paper's evaluation system (Table 2) with τ3 phased so a job of
/// every task is released at t = 1000 (the Figures 3–7 window).
fn paper_system() -> TaskSet {
    TaskSet::from_specs(vec![
        TaskBuilder::new(1, 20, ms(200), ms(29))
            .deadline(ms(70))
            .build(),
        TaskBuilder::new(2, 18, ms(250), ms(29))
            .deadline(ms(120))
            .build(),
        TaskBuilder::new(3, 16, ms(1500), ms(29))
            .deadline(ms(120))
            .offset(ms(1000))
            .build(),
    ])
}

fn paper_fault() -> FaultPlan {
    FaultPlan::none().overrun(TaskId(1), 5, ms(40))
}

/// A light set (fits one core) and a heavy one (overloads one core,
/// keeps four busy).
fn uunifast(heavy: bool) -> TaskSet {
    if heavy {
        GeneratorConfig::new(10)
            .with_utilization(1.5)
            .with_periods(ms(5), ms(200))
            .generate(11)
    } else {
        GeneratorConfig::new(5)
            .with_utilization(0.75)
            .with_periods(ms(10), ms(120))
            .generate(7)
    }
}

fn random_faults(set: &TaskSet, seed: u64) -> FaultPlan {
    RandomFaults {
        overrun_probability: 0.2,
        magnitude: (ms(1), ms(8)),
        jobs_per_task: 16,
    }
    .sample(set, seed)
}

/// Supervision of a row: the treatment, its per-rank detector
/// thresholds and stop baselines, and the system-allowance maxima.
/// The numbers are fixed inputs here (the paper system's FP analysis),
/// not derived, so the pins depend on the engine alone.
#[derive(Clone)]
struct Supervision {
    treatment: Treatment,
    thresholds: Vec<Duration>,
    wcrt: Vec<Duration>,
    maxima: Option<Vec<Duration>>,
}

impl Supervision {
    fn paper(treatment: Treatment) -> Self {
        let wcrt = vec![ms(29), ms(58), ms(87)];
        let thresholds = match treatment {
            Treatment::EquitableAllowance { .. } => vec![ms(40), ms(80), ms(120)],
            _ => wcrt.clone(),
        };
        let maxima = matches!(treatment, Treatment::SystemAllowance { .. })
            .then(|| vec![ms(33), ms(33), ms(33)]);
        Supervision {
            treatment,
            thresholds,
            wcrt,
            maxima,
        }
    }

    /// Thresholds at each task's deadline scaled by 3/4 (fires on the
    /// late jobs of a random fault plan).
    fn scaled(set: &TaskSet, treatment: Treatment) -> Self {
        let thresholds: Vec<Duration> = set.tasks().iter().map(|t| t.deadline * 3 / 4).collect();
        let maxima = matches!(treatment, Treatment::SystemAllowance { .. })
            .then(|| set.tasks().iter().map(|t| t.cost / 2).collect());
        Supervision {
            treatment,
            wcrt: thresholds.clone(),
            thresholds,
            maxima,
        }
    }

    fn supervisor(&self) -> FtSupervisor {
        FtSupervisor::new(
            self.treatment,
            self.thresholds.clone(),
            self.wcrt.clone(),
            self.maxima.clone().map(AllowanceManager::new),
        )
    }
}

struct Case {
    label: String,
    set: TaskSet,
    cores: usize,
    config: SimConfig,
    faults: FaultPlan,
    arrivals: Option<ArrivalModel>,
    one_shots: Vec<(Duration, u64)>,
    supervision: Option<Supervision>,
}

impl Case {
    fn new(label: String, set: TaskSet, cores: usize, config: SimConfig) -> Self {
        Case {
            label,
            set,
            cores,
            config,
            faults: FaultPlan::none(),
            arrivals: None,
            one_shots: Vec::new(),
            supervision: None,
        }
    }
}

/// What one run recorded: the trace, the per-trace-event core
/// attribution, and the per-core logs on more than one core.
struct Recorded {
    log: TraceLog,
    cores_of: Vec<Option<usize>>,
    core_logs: Option<Vec<(usize, TraceLog)>>,
}

type Stream = Vec<(Option<usize>, TraceEvent)>;

fn run(case: &Case, mut stream: Option<&mut Stream>) -> Recorded {
    let mut sup: Box<dyn Supervisor> = match &case.supervision {
        Some(s) => Box::new(s.supervisor()),
        None => Box::new(NullSupervisor),
    };
    let mut sink = |core: Option<usize>, at: Instant, kind: EventKind| {
        if let Some(s) = stream.as_mut() {
            s.push((core, TraceEvent::new(at, kind)));
        }
    };
    let mut sim = Simulator::new_in(
        case.set.clone(),
        case.cores,
        case.config,
        &mut SimBuffers::new(),
    )
    .with_faults(case.faults.clone());
    if let Some(a) = &case.arrivals {
        sim = sim.with_arrivals(a.clone());
    }
    if let Some(s) = &case.supervision {
        s.supervisor().install_detectors(&mut sim, &case.set);
    }
    for &(at, tag) in &case.one_shots {
        sim.add_one_shot_timer(at, tag);
    }
    sim.run_streamed(sup.as_mut(), &mut sink);
    let cores_of = (0..sim.trace().len()).map(|i| sim.core_of(i)).collect();
    let core_logs = (case.cores > 1).then(|| sim.core_logs());
    Recorded {
        log: sim.into_trace(),
        cores_of,
        core_logs,
    }
}

fn policy_tag(p: PolicyKind) -> &'static str {
    match p {
        PolicyKind::FixedPriority => "fp",
        PolicyKind::Edf => "edf",
        PolicyKind::NonPreemptiveFp => "npfp",
    }
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();
    let sets = [
        ("paper", paper_system(), paper_fault(), 1300),
        (
            "uu-light",
            uunifast(false),
            random_faults(&uunifast(false), 3),
            1000,
        ),
        (
            "uu-heavy",
            uunifast(true),
            random_faults(&uunifast(true), 5),
            1000,
        ),
    ];

    // The dispatch grid: every policy on 1, 2 and 4 cores, faults on.
    for (name, set, faults, horizon) in &sets {
        for policy in PolicyKind::ALL {
            for cores in [1, 2, 4] {
                let config = SimConfig::until(Instant::from_millis(*horizon)).with_policy(policy);
                let mut case = Case::new(
                    format!("grid {name} {} m={cores}", policy_tag(policy)),
                    set.clone(),
                    cores,
                    config,
                );
                case.faults = faults.clone();
                out.push(case);
            }
        }
    }

    // The paper's five treatments on jRate timers with a 4 ms polled
    // stop flag.
    for treatment in Treatment::paper_lineup() {
        for cores in [1, 2, 4] {
            let config = SimConfig::until(Instant::from_millis(1300))
                .with_jrate_timers()
                .with_stop_model(StopModel::polled(ms(4)));
            let mut case = Case::new(
                format!("treatment {} m={cores}", treatment.name()),
                paper_system(),
                cores,
                config,
            );
            case.faults = paper_fault();
            case.supervision =
                Some(Supervision::paper(treatment)).filter(|s| s.treatment.has_detection());
            out.push(case);
        }
    }

    // Stops on random faults under every policy, job-only and permanent.
    let light = uunifast(false);
    let heavy = uunifast(true);
    for (set, faults) in [
        (&light, random_faults(&light, 9)),
        (&heavy, random_faults(&heavy, 13)),
    ] {
        for policy in PolicyKind::ALL {
            for (cores, treatment) in [
                (
                    1,
                    Treatment::ImmediateStop {
                        mode: StopMode::JobOnly,
                    },
                ),
                (
                    2,
                    Treatment::SystemAllowance {
                        mode: StopMode::Permanent,
                        policy: SlackPolicy::ProtectAll,
                    },
                ),
                (
                    4,
                    Treatment::ImmediateStop {
                        mode: StopMode::Permanent,
                    },
                ),
            ] {
                let config = SimConfig::until(Instant::from_millis(1000))
                    .with_policy(policy)
                    .with_stop_model(StopModel::polled(ms(2)));
                let mut case = Case::new(
                    format!(
                        "stops n={} {} m={cores} {}",
                        set.len(),
                        policy_tag(policy),
                        treatment.name()
                    ),
                    set.clone(),
                    cores,
                    config,
                );
                case.faults = faults.clone();
                case.supervision = Some(Supervision::scaled(set, treatment));
                out.push(case);
            }
        }
    }

    // Dispatch and detector-fire overheads under detection.
    for cores in [1, 2, 4] {
        let config = SimConfig::until(Instant::from_millis(1300))
            .with_jrate_timers()
            .with_overheads(Overheads::dispatch_cost(ms(1)).with_detector_fire(ms(2)));
        let mut case = Case::new(
            format!("overheads paper m={cores}"),
            paper_system(),
            cores,
            config,
        );
        case.faults = paper_fault();
        case.supervision = Some(Supervision::paper(Treatment::ImmediateStop {
            mode: StopMode::Permanent,
        }));
        out.push(case);
    }

    // Arrival jitter under every policy.
    for policy in PolicyKind::ALL {
        for cores in [1, 2, 4] {
            let set = uunifast(true);
            let config = SimConfig::until(Instant::from_millis(1000)).with_policy(policy);
            let mut case = Case::new(
                format!("jitter uu-heavy {} m={cores}", policy_tag(policy)),
                set.clone(),
                cores,
                config,
            );
            case.arrivals = Some(ArrivalModel::uniform(&set, ms(4), 17));
            case.faults = random_faults(&set, 21);
            out.push(case);
        }
    }

    // Registered one-shot timers, charged as detector firings.
    for cores in [1, 2, 4] {
        let config = SimConfig::until(Instant::from_millis(600))
            .with_jrate_timers()
            .with_overheads(Overheads::NONE.with_detector_fire(ms(3)));
        let mut case = Case::new(
            format!("one-shots uu-light m={cores}"),
            uunifast(false),
            cores,
            config,
        );
        case.one_shots = vec![(ms(7), 1), (ms(7), 2), (ms(95), 3), (ms(333), 4)];
        out.push(case);
    }
    out
}

/// `label content-hash [merged-core-hash]`, one row per case.
const PINS: &str = "
grid paper fp m=1 c4a846ff0e04c728
grid paper fp m=2 3c1f86af463e88cf bf525a3e86c8d40e
grid paper fp m=4 4282c3eefad0fad7 b244d8ffef693b6e
grid paper edf m=1 37cdd602e50ef2f2
grid paper edf m=2 3c1f86af463e88cf bf525a3e86c8d40e
grid paper edf m=4 4282c3eefad0fad7 b244d8ffef693b6e
grid paper npfp m=1 7e64bc82cb94bdf8
grid paper npfp m=2 c93e70659f5a6baa d6dbcefac08111e7
grid paper npfp m=4 4282c3eefad0fad7 b244d8ffef693b6e
grid uu-light fp m=1 8b7453a32e99f491
grid uu-light fp m=2 e0a631d7431e2a67 9d2958d8e3935a78
grid uu-light fp m=4 7c088a51f3ab6aca fc818ef1b5fe3686
grid uu-light edf m=1 913354843a144794
grid uu-light edf m=2 e0a631d7431e2a67 9d2958d8e3935a78
grid uu-light edf m=4 7c088a51f3ab6aca fc818ef1b5fe3686
grid uu-light npfp m=1 dd1c4e9e584d616f
grid uu-light npfp m=2 6301ab04c5fafa23 a1e2968559b5ebe0
grid uu-light npfp m=4 7c088a51f3ab6aca fc818ef1b5fe3686
grid uu-heavy fp m=1 777f63c8fff8643f
grid uu-heavy fp m=2 2ce39b6ae698a686 86b566ba019d90bb
grid uu-heavy fp m=4 002d3ffc1066dcd3 2e5bae9622f478bf
grid uu-heavy edf m=1 55c731180166227f
grid uu-heavy edf m=2 bbe0c581a2bfafa4 86e66d649c066ee8
grid uu-heavy edf m=4 002d3ffc1066dcd3 2e5bae9622f478bf
grid uu-heavy npfp m=1 818fd4a2d483c367
grid uu-heavy npfp m=2 e3543b2704bf5be6 4bf205eb3b0ae5dd
grid uu-heavy npfp m=4 3ba448697a3aba2c c825a2ba92b06a27
treatment no-detection m=1 c4a846ff0e04c728
treatment no-detection m=2 3c1f86af463e88cf bf525a3e86c8d40e
treatment no-detection m=4 4282c3eefad0fad7 b244d8ffef693b6e
treatment detect-only m=1 499dc77cfeda0d54
treatment detect-only m=2 342a34589fa75408 3089033abfee87d9
treatment detect-only m=4 9481bc67f70f9b9a 5f5625ea2035e5b9
treatment immediate-stop m=1 0b0fb1f8a40574fe
treatment immediate-stop m=2 6c44bd56222d50ce 29101fcc1dad80f9
treatment immediate-stop m=4 20cc8b5db54f89b4 cf97b722202e3631
treatment equitable-allowance m=1 e25ca7612e2cffde
treatment equitable-allowance m=2 7f7da991e2c870b7 4df4d1e065c138c6
treatment equitable-allowance m=4 19b00fe187c2ad05 1eef741e7b718181
treatment system-allowance m=1 b238dba575f1a203
treatment system-allowance m=2 fb16bc18e99a9eb4 7dc8510046f7be37
treatment system-allowance m=4 4e6e497a2e4d3d8a 51b20e44c34323fa
stops n=5 fp m=1 immediate-stop 72da20f90d972be5
stops n=5 fp m=2 system-allowance ab0b30113798f855 e5eb0ddd2f81c709
stops n=5 fp m=4 immediate-stop 0603f493580e51c5 1491d22ab57df2ac
stops n=5 edf m=1 immediate-stop 1f9f8bbc1dc0926c
stops n=5 edf m=2 system-allowance ab0b30113798f855 e5eb0ddd2f81c709
stops n=5 edf m=4 immediate-stop 0603f493580e51c5 1491d22ab57df2ac
stops n=5 npfp m=1 immediate-stop 837ef282aa52fa86
stops n=5 npfp m=2 system-allowance 442031fcdc8cf6dc ac3193d6d5102ac6
stops n=5 npfp m=4 immediate-stop 0603f493580e51c5 1491d22ab57df2ac
stops n=10 fp m=1 immediate-stop b283377648d5a812
stops n=10 fp m=2 system-allowance c5cd8b19600ab619 923bff742c9faef9
stops n=10 fp m=4 immediate-stop 30adf2a1b96766f3 abcc7a6fc7f55258
stops n=10 edf m=1 immediate-stop 2475841ea7bc9dae
stops n=10 edf m=2 system-allowance a26da802f685a13a ad83abbb3aff94ad
stops n=10 edf m=4 immediate-stop 30adf2a1b96766f3 abcc7a6fc7f55258
stops n=10 npfp m=1 immediate-stop ba9cf609ed715f2e
stops n=10 npfp m=2 system-allowance c5b0a4b9b7c787da afb60aa494d759b8
stops n=10 npfp m=4 immediate-stop fe6cbe22c3952bb0 56d213695ba144b3
overheads paper m=1 b8fa5772d680672c
overheads paper m=2 07b00d9c8f01974d d09d819596324dfe
overheads paper m=4 07b00d9c8f01974d d3b8ffbb866f1833
jitter uu-heavy fp m=1 ec41ffe43f74e20c
jitter uu-heavy fp m=2 beb4cff1d41f9bb3 d466d96aa94ef722
jitter uu-heavy fp m=4 c2c36dea2c4c1cd0 3e113b9174b71f2f
jitter uu-heavy edf m=1 3288d6d60a765b2b
jitter uu-heavy edf m=2 3ff5a8dc916f00ce f8d7a8cd8291db2a
jitter uu-heavy edf m=4 036c8297bce1f096 b0fbccabc552aed4
jitter uu-heavy npfp m=1 ea50880889083cb3
jitter uu-heavy npfp m=2 fd669b39ba633369 f88d32bee07816ba
jitter uu-heavy npfp m=4 f681a1d9fa4188cc dea2674819d08c91
one-shots uu-light m=1 068ddf5490f1ab49
one-shots uu-light m=2 e6d28f201d860303 27e6e57971314d3b
one-shots uu-light m=4 e8f041ff92c78869 aaefae2a1ecba8a9
";

#[test]
fn engine_output_matches_the_pins() {
    let mut rows = Vec::new();
    for case in cases() {
        let plain = run(&case, None);
        let mut stream = Stream::new();
        let sunk = run(&case, Some(&mut stream));

        assert_eq!(
            plain.log.content_hash(),
            sunk.log.content_hash(),
            "{}: a sink must not change the trace",
            case.label
        );
        assert_eq!(stream.len(), sunk.log.len(), "{}", case.label);
        for (i, e) in sunk.log.events().iter().enumerate() {
            assert_eq!(&stream[i].1, e, "{}: event {i} out of order", case.label);
            assert_eq!(
                stream[i].0, sunk.cores_of[i],
                "{}: event {i} streamed with a foreign core",
                case.label
            );
        }

        let mut row = format!("{} {:016x}", case.label, plain.log.content_hash());
        if let Some(logs) = &plain.core_logs {
            assert_eq!(Some(logs), sunk.core_logs.as_ref(), "{}", case.label);
            let refs: Vec<(usize, &TraceLog)> = logs.iter().map(|(c, l)| (*c, l)).collect();
            row.push_str(&format!(" {:016x}", merged_content_hash(&refs)));
        }
        rows.push(row);
    }
    let got = rows.join("\n");
    assert_eq!(got.trim(), PINS.trim(), "engine output moved:\n{got}");
}
