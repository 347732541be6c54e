//! Open-system traffic: determinism, backend equivalence, and the
//! saturation trip wire.
//!
//! Open-arrival runs draw from a dedicated arrival RNG stream and keep
//! per-request state, so they earn their own determinism contract: the
//! same (config, seed) must reproduce byte-for-byte across thread counts
//! and across event-queue backends, and an offered load the machine cannot
//! carry must end in a clean `Saturated` outcome rather than running
//! forever.

use oracle::prelude::*;
use oracle::runner::{run_batch_with_threads, RunSpec};
use oracle_model::QueueBackend;
use proptest::prelude::*;
// Both preludes export a `Strategy` name (the load-distribution trait and
// proptest's generator trait); re-import the latter so `.prop_map` resolves.
use proptest::strategy::Strategy as _;

/// Small topologies so each case runs in milliseconds.
fn topology_strategy() -> impl proptest::strategy::Strategy<Value = TopologySpec> {
    prop_oneof![
        (2usize..5, 2usize..5).prop_map(|(w, h)| TopologySpec::Mesh2D {
            width: w,
            height: h,
            wraparound: false,
        }),
        (3usize..8).prop_map(|n| TopologySpec::Ring { n }),
        (2u32..4).prop_map(|dim| TopologySpec::Hypercube { dim }),
    ]
}

fn placement_strategy() -> impl proptest::strategy::Strategy<Value = StrategySpec> {
    prop_oneof![
        (1u32..5, 0u32..2).prop_map(|(radius, horizon)| StrategySpec::Cwn { radius, horizon }),
        (1u32..3, 2u32..4, 10u64..40).prop_map(|(lo, hi, interval)| StrategySpec::Gradient {
            low_water_mark: lo,
            high_water_mark: hi,
            interval,
        }),
        Just(StrategySpec::Local),
    ]
}

/// Random arrival specs covering every process family except `trace:`
/// (which needs a file on disk; covered by the unit tests below).
fn arrival_strategy() -> impl proptest::strategy::Strategy<Value = ArrivalSpec> {
    prop_oneof![
        (1u32..12).prop_map(|r| format!("poisson:{r}")),
        (2u32..12, 1u32..3, 50u32..200, 100u32..400)
            .prop_map(|(hi, lo, on, off)| format!("burst:{hi}x{lo}x{on}x{off}")),
        (2u32..10, 300u32..900).prop_map(|(peak, period)| format!("diurnal:{peak}x{period}")),
    ]
    .prop_map(|s: String| s.parse().expect("generated specs are valid"))
}

fn open_config(
    topology: TopologySpec,
    strategy: StrategySpec,
    arrivals: ArrivalSpec,
    seed: u64,
    backend: QueueBackend,
) -> oracle::builder::RunConfig {
    let mut open = OpenTraffic::new(arrivals, 1_500);
    open.warmup = 150;
    SimulationBuilder::new()
        .topology(topology)
        .strategy(strategy)
        .workload(WorkloadSpec::fib(7))
        .seed(seed)
        .queue_backend(backend)
        .open(Some(open))
        .config()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The full report of an open run is a pure function of (config, seed):
    /// running the same batch on 1 and 4 worker threads must agree on every
    /// byte, open metrics included.
    #[test]
    fn open_runs_are_deterministic_across_thread_counts(
        topology in topology_strategy(),
        strategy in placement_strategy(),
        arrivals in arrival_strategy(),
        seed in 0u64..1000,
    ) {
        let spec = RunSpec::new(
            "open",
            open_config(topology, strategy, arrivals, seed, QueueBackend::Heap),
        );
        let specs = vec![spec];
        let seq = run_batch_with_threads(&specs, 1);
        let par = run_batch_with_threads(&specs, 4);
        for ((la, a), (lb, b)) in seq.iter().zip(&par) {
            prop_assert_eq!(la, lb);
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            prop_assert!(a.open.is_some(), "open metrics missing");
            prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    /// The heap and calendar event queues order identically, so the backend
    /// must be invisible in the results of an open run.
    #[test]
    fn open_runs_agree_across_queue_backends(
        topology in topology_strategy(),
        strategy in placement_strategy(),
        arrivals in arrival_strategy(),
        seed in 0u64..1000,
    ) {
        let heap = open_config(topology, strategy, arrivals.clone(), seed, QueueBackend::Heap)
            .run();
        let cal = open_config(topology, strategy, arrivals, seed, QueueBackend::Calendar)
            .run();
        prop_assert_eq!(format!("{heap:?}"), format!("{cal:?}"));
    }
}

/// A deliberately overloaded cell: a lone ring of 4 slow PEs offered far
/// more work than it can retire must trip the backlog wire and end the run
/// with a truthful `Saturated` outcome — not an endless event loop.
#[test]
fn saturation_trip_wire_fires_on_overload() {
    let mut open = OpenTraffic::new("poisson:400".parse().unwrap(), 1_000_000);
    open.warmup = 100;
    open.saturation_inflight = 64; // trip early; the default scales with PEs
    let report = SimulationBuilder::new()
        .topology(TopologySpec::Ring { n: 4 })
        .strategy(StrategySpec::Local)
        .workload(WorkloadSpec::fib(10))
        .seed(3)
        .open(Some(open))
        .run()
        .expect("a saturated run is a clean outcome, not an error");
    let o = report.open.expect("open metrics present");
    match o.outcome {
        OpenOutcome::Saturated { at, inflight } => {
            assert!(at < 1_000_000, "tripped before the horizon: {at}");
            assert!(inflight >= 64, "{inflight} in flight at the trip");
        }
        other => panic!("overloaded cell did not trip the wire: {other:?} ({o:?})"),
    }
    assert!(o.arrivals > o.completions, "backlog must have grown");
}

/// Full overload-protection stack — deadline, retry, admission, breaker —
/// under a crash-and-loss fault plan: the report must still be a pure
/// function of (config, seed) across queue backends and thread counts, and
/// the arrival-conservation invariant must hold.
#[test]
fn overload_protection_is_deterministic_across_backends_and_threads() {
    let config = |backend| {
        let mut open = OpenTraffic::new("poisson:30".parse().unwrap(), 3_000);
        open.warmup = 200;
        open.deadline = Some(500);
        open.retry = Some("3x60".parse().unwrap());
        open.admission = Some("queue:6".parse().unwrap());
        open.breaker = Some(400);
        SimulationBuilder::new()
            .topology(TopologySpec::grid(3))
            .strategy(StrategySpec::Cwn {
                radius: 3,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(7))
            .seed(17)
            .queue_backend(backend)
            .fault_plan("crash:4@700+loss:2%".parse().unwrap())
            .open(Some(open))
            .config()
    };
    let heap = config(QueueBackend::Heap).run();
    let cal = config(QueueBackend::Calendar).run();
    assert_eq!(format!("{heap:?}"), format!("{cal:?}"));

    let specs = vec![RunSpec::new("overload", config(QueueBackend::Heap))];
    let seq = run_batch_with_threads(&specs, 1);
    let par = run_batch_with_threads(&specs, 4);
    for ((la, a), (lb, b)) in seq.iter().zip(&par) {
        assert_eq!(la, lb);
        assert_eq!(
            format!("{:?}", a.as_ref().unwrap()),
            format!("{:?}", b.as_ref().unwrap())
        );
    }

    let report = heap.expect("protected run succeeds");
    let o = report.open.expect("open metrics present");
    assert_eq!(
        o.arrivals,
        o.completions + o.shed + o.abandoned_deadline + o.abandoned_retries + o.inflight_at_end,
        "arrival conservation: {o:?}"
    );
}

/// Admission control actually sheds under overload, and sheds are counted:
/// a tight token bucket in front of a hopeless offered load keeps the
/// in-flight population bounded (no saturation trip) while the shed
/// counter absorbs the rest.
#[test]
fn token_bucket_sheds_instead_of_melting_down() {
    let mut open = OpenTraffic::new("poisson:400".parse().unwrap(), 20_000);
    open.warmup = 100;
    open.saturation_inflight = 64;
    open.admission = Some("bucket:1x2".parse().unwrap());
    open.deadline = Some(8_000);
    let report = SimulationBuilder::new()
        .topology(TopologySpec::Ring { n: 4 })
        .strategy(StrategySpec::Local)
        .workload(WorkloadSpec::fib(10))
        .seed(3)
        .open(Some(open))
        .run()
        .expect("a shedding run is a clean outcome");
    let o = report.open.expect("open metrics present");
    assert!(
        !matches!(o.outcome, OpenOutcome::Saturated { .. }),
        "bucket failed to protect the trip wire: {:?}",
        o.outcome
    );
    assert!(o.shed > 0, "nothing shed at 80x the bucket rate: {o:?}");
    assert!(o.shed_rate > 0.9, "shed rate {} too low", o.shed_rate);
    assert!(o.goodput <= o.throughput, "{o:?}");
}

/// Same seed, same report — for every arrival family, including a replayed
/// trace file.
#[test]
fn every_arrival_family_reproduces_under_fixed_seed() {
    let dir = std::env::temp_dir();
    let trace_path = dir.join(format!(
        "oracle_open_system_trace_{}.txt",
        std::process::id()
    ));
    std::fs::write(
        &trace_path,
        "oracle-arrivals-v1\n# replay fixture\n10\n40 1\n90\n130 2\n200\n",
    )
    .unwrap();
    let specs = [
        "poisson:6".to_string(),
        "burst:10x1x100x300@root".to_string(),
        "diurnal:8x500@0,2".to_string(),
        format!("trace:{}", trace_path.display()),
    ];
    for spec in &specs {
        let arrivals: ArrivalSpec = spec.parse().unwrap();
        let run = || {
            open_config(
                TopologySpec::grid(3),
                StrategySpec::Cwn {
                    radius: 3,
                    horizon: 1,
                },
                arrivals.clone(),
                11,
                QueueBackend::Heap,
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{spec}");
        let report = a.expect("run succeeds");
        assert!(report.open.is_some(), "{spec}: open metrics missing");
    }
    std::fs::remove_file(&trace_path).ok();
}
