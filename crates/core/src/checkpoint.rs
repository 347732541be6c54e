//! Crash-safe checkpoint files: versioned on-disk snapshots of a running
//! simulation.
//!
//! A checkpoint file carries two things:
//!
//! 1. The full [`RunConfig`] — topology, strategy, and workload specs (in
//!    their compact string grammars), the cost model, and every machine
//!    knob including the fault plan. Resuming rebuilds the immutable half
//!    of the machine from this, so a checkpoint is self-contained: no
//!    flags need repeating on the resume command line.
//! 2. The machine snapshot blob ([`Machine::snapshot_bytes`]) — every
//!    piece of mutable run state, down to RNG words and raw IEEE-754
//!    statistics bits.
//!
//! An 8-byte digest of everything before it ends the file, so a damaged
//! file is refused before any of its contents are trusted.
//!
//! Because the simulator is deterministic and the snapshot captures all
//! mutable state, a resumed run produces a **bit-identical** final report
//! to the uninterrupted run (`tests/robustness.rs` pins this per
//! strategy, per queue backend, and under active fault plans).
//!
//! Files are written atomically: the blob goes to a temporary file in the
//! target directory which is then renamed into place, so a crash mid-write
//! can leave a stale temp file behind but never a torn checkpoint.

use std::fmt;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use oracle_des::snapshot::{Snap, SnapError, SnapReader, SnapWriter};
use oracle_des::FastHasher;
use oracle_model::config::{LoadInfoMode, QueueDiscipline};
use oracle_model::StateMode;
use oracle_model::{
    CostModel, Machine, MachineConfig, OpenTraffic, QueueBackend, Report, SimError,
};

use crate::builder::RunConfig;

/// Magic prefix of a checkpoint file (`"OCKP"`).
pub const CHECKPOINT_MAGIC: u32 = 0x4F43_4B50;
/// Version of the checkpoint layout. Bumped on any layout change; reading
/// refuses other versions rather than guessing.
///
/// v2 added the open-traffic configuration (arrival spec, measurement
/// windows, saturation threshold) alongside the v2 machine snapshot.
///
/// v3 added the overload-protection knobs (deadline, retry policy,
/// admission policy, breaker cooldown) alongside the v3 machine snapshot.
///
/// v4 added the progress-watchdog window (`progress_window`) — a resumed
/// run must arm its stall detector exactly like the uninterrupted one.
///
/// v5 added the memory-model knobs (`state_mode`, `per_pe_metrics`)
/// alongside the v5 machine snapshot: the restored machine must pick the
/// same dense/sparse representation and the same report shape.
///
/// v6 dropped the interpretive knobs that only ever held one value (the
/// root PE, whether responses count as load, optimistic accounting) and
/// the single-crash shorthand, which a `crash:PE@T` fault-plan term spells.
///
/// v7 appended an 8-byte digest of every preceding byte, checked before
/// anything past the header is decoded.
pub const CHECKPOINT_VERSION: u32 = 7;

/// Everything that can go wrong writing, reading, or resuming a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure (create, write, rename, read).
    Io(std::io::Error),
    /// The file is not a checkpoint, is from a different layout version, is
    /// corrupt or truncated, or holds a machine snapshot that does not
    /// restore into the machine its own configuration builds.
    Format(String),
    /// The stored configuration builds no machine, or the resumed run
    /// itself failed.
    Sim(SimError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(msg) => write!(f, "bad checkpoint file: {msg}"),
            CheckpointError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<SimError> for CheckpointError {
    fn from(e: SimError) -> Self {
        CheckpointError::Sim(e)
    }
}

impl From<SnapError> for CheckpointError {
    fn from(e: SnapError) -> Self {
        CheckpointError::Format(e.to_string())
    }
}

/// A value that travels in its compact `Display` spelling and is parsed
/// back with `FromStr`: the same round-trippable grammars the CLI flags
/// and suite files use.
struct Spelled<T>(T);

impl<T: fmt::Display + FromStr> Snap for Spelled<T>
where
    T::Err: fmt::Display,
{
    fn put(&self, w: &mut SnapWriter) {
        w.str(&self.0.to_string());
    }
    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        let s = r.str()?;
        s.parse().map(Spelled).map_err(|e| {
            let what = std::any::type_name::<T>()
                .rsplit("::")
                .next()
                .unwrap_or("spec");
            SnapError::Mismatch(format!("bad {what} {s:?}: {e}"))
        })
    }
}

/// Specs travel spelled; numeric knobs field by field. Every struct is
/// destructured without `..`, so a field added later fails to compile here
/// until the codec decides what to do with it.
impl Snap for RunConfig {
    fn put(&self, w: &mut SnapWriter) {
        let RunConfig {
            topology,
            strategy,
            workload,
            costs,
            machine,
        } = self;
        Spelled(*topology).put(w);
        Spelled(*strategy).put(w);
        Spelled(*workload).put(w);

        let CostModel {
            split_cost,
            leaf_cost,
            combine_cost,
            goal_hop_cost,
            response_hop_cost,
            control_hop_cost,
            software_routing_cost,
        } = *costs;
        for c in [
            split_cost,
            leaf_cost,
            combine_cost,
            goal_hop_cost,
            response_hop_cost,
            control_hop_cost,
            software_routing_cost,
        ] {
            w.u64(c);
        }

        let MachineConfig {
            seed,
            sampling_interval,
            load_info,
            future_commitment_weight,
            coprocessor,
            per_pe_series,
            max_events,
            progress_window,
            trace_capacity,
            // Observability knobs: the trace ring mode and the profiler are
            // not part of a snapshot (a resumed run's trace/profile start at
            // the resume point), so checkpoints don't persist them.
            trace_mode: _,
            profile: _,
            queue_discipline,
            queue_backend,
            fault_plan,
            audit_every,
            open,
            state_mode,
            per_pe_metrics,
            pe_speed_spread,
        } = machine;
        (*seed, *sampling_interval).put(w);
        match load_info {
            LoadInfoMode::Piggyback { period } => {
                w.u8(0);
                w.u64(*period);
            }
            LoadInfoMode::Instant => w.u8(1),
        }
        (*future_commitment_weight, *coprocessor, *per_pe_series).put(w);
        w.u8(match state_mode {
            StateMode::Auto => 0,
            StateMode::Dense => 1,
            StateMode::Sparse => 2,
        });
        w.bool(*per_pe_metrics);
        (*max_events, *progress_window, *trace_capacity).put(w);
        w.u8(match queue_discipline {
            QueueDiscipline::Fifo => 0,
            QueueDiscipline::Lifo => 1,
            QueueDiscipline::DeepestFirst => 2,
        });
        w.u8(match queue_backend {
            QueueBackend::Heap => 0,
            QueueBackend::Calendar => 1,
        });
        Spelled(fault_plan.clone()).put(w);
        w.u64(*audit_every);
        w.bool(open.is_some());
        if let Some(OpenTraffic {
            arrivals,
            duration,
            warmup,
            saturation_inflight,
            deadline,
            retry,
            admission,
            breaker,
        }) = open
        {
            Spelled(arrivals.clone()).put(w);
            (*duration, *warmup, *saturation_inflight).put(w);
            deadline.put(w);
            retry.map(Spelled).put(w);
            admission.map(Spelled).put(w);
            breaker.put(w);
        }
        w.u64(*pe_speed_spread);
    }

    fn get(r: &mut SnapReader) -> Result<Self, SnapError> {
        let topology = Spelled::get(r)?.0;
        let strategy = Spelled::get(r)?.0;
        let workload = Spelled::get(r)?.0;
        let costs = CostModel {
            split_cost: r.u64()?,
            leaf_cost: r.u64()?,
            combine_cost: r.u64()?,
            goal_hop_cost: r.u64()?,
            response_hop_cost: r.u64()?,
            control_hop_cost: r.u64()?,
            software_routing_cost: r.u64()?,
        };
        let (seed, sampling_interval) = Snap::get(r)?;
        let load_info = match r.u8()? {
            0 => LoadInfoMode::Piggyback { period: r.u64()? },
            1 => LoadInfoMode::Instant,
            t => return Err(SnapError::invalid("load-info mode tag", t.into())),
        };
        let (future_commitment_weight, coprocessor, per_pe_series) = Snap::get(r)?;
        let state_mode = match r.u8()? {
            0 => StateMode::Auto,
            1 => StateMode::Dense,
            2 => StateMode::Sparse,
            t => return Err(SnapError::invalid("state-mode tag", t.into())),
        };
        let per_pe_metrics = r.bool()?;
        let (max_events, progress_window, trace_capacity) = Snap::get(r)?;
        let queue_discipline = match r.u8()? {
            0 => QueueDiscipline::Fifo,
            1 => QueueDiscipline::Lifo,
            2 => QueueDiscipline::DeepestFirst,
            t => return Err(SnapError::invalid("queue-discipline tag", t.into())),
        };
        let queue_backend = match r.u8()? {
            0 => QueueBackend::Heap,
            1 => QueueBackend::Calendar,
            t => return Err(SnapError::invalid("queue-backend tag", t.into())),
        };
        let fault_plan = Spelled::get(r)?.0;
        let audit_every = r.u64()?;
        let open = if r.bool()? {
            let arrivals = Spelled::get(r)?.0;
            let (duration, warmup, saturation_inflight) = Snap::get(r)?;
            Some(OpenTraffic {
                arrivals,
                duration,
                warmup,
                saturation_inflight,
                deadline: Snap::get(r)?,
                retry: Option::<Spelled<_>>::get(r)?.map(|s| s.0),
                admission: Option::<Spelled<_>>::get(r)?.map(|s| s.0),
                breaker: Snap::get(r)?,
            })
        } else {
            None
        };
        Ok(RunConfig {
            topology,
            strategy,
            workload,
            costs,
            machine: MachineConfig {
                seed,
                sampling_interval,
                load_info,
                future_commitment_weight,
                coprocessor,
                per_pe_series,
                state_mode,
                per_pe_metrics,
                max_events,
                progress_window,
                trace_capacity,
                // Not persisted; see `put`.
                trace_mode: oracle_model::TraceMode::default(),
                profile: false,
                queue_discipline,
                queue_backend,
                fault_plan,
                audit_every,
                open,
                pe_speed_spread: r.u64()?,
            },
        })
    }
}

/// Length of the digest trailer that ends every checkpoint file.
const DIGEST_LEN: usize = 8;

/// The [`FastHasher`] fold of `bytes`. Each step is a bijection of the
/// running state for a fixed input word, so changing any one 8-byte word
/// of a same-length file always changes the digest.
fn digest(bytes: &[u8]) -> u64 {
    let mut h = FastHasher::default();
    h.write(bytes);
    h.finish()
}

/// Serialize a checkpoint: header, run configuration, machine snapshot,
/// then the digest of every preceding byte.
pub fn checkpoint_bytes(config: &RunConfig, machine: &mut Machine) -> Vec<u8> {
    let snapshot = machine.snapshot_bytes();
    let mut w = SnapWriter::with_capacity(snapshot.len() + 256);
    w.u32(CHECKPOINT_MAGIC);
    w.u32(CHECKPOINT_VERSION);
    config.put(&mut w);
    w.bytes(&snapshot);
    let mut bytes = w.into_bytes();
    let d = digest(&bytes);
    bytes.extend_from_slice(&d.to_le_bytes());
    bytes
}

/// A checkpoint read back from disk, ready to resume.
#[derive(Debug)]
pub struct Checkpoint {
    /// The full configuration of the interrupted run.
    pub config: RunConfig,
    /// The machine snapshot blob.
    machine_bytes: Vec<u8>,
}

impl Checkpoint {
    /// Decode a checkpoint blob. The header is checked first, so a file
    /// of another layout version is named as such; then the digest, before
    /// any other byte is decoded.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CheckpointError> {
        let mut r = SnapReader::new(bytes);
        let magic = r.u32()?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CheckpointError::Format(format!(
                "not a checkpoint file (magic {magic:#010x}, expected {CHECKPOINT_MAGIC:#010x})"
            )));
        }
        let version = r.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(CheckpointError::Format(format!(
                "checkpoint layout version {version} is not supported \
                 (this build reads version {CHECKPOINT_VERSION})"
            )));
        }
        let corrupt =
            || CheckpointError::Format("digest mismatch: the file is corrupt or truncated".into());
        let body_len = bytes.len().checked_sub(DIGEST_LEN).filter(|&n| n >= 8);
        let (body, trailer) = bytes.split_at(body_len.ok_or_else(corrupt)?);
        if u64::from_le_bytes(trailer.try_into().expect("8-byte trailer")) != digest(body) {
            return Err(corrupt());
        }
        let mut r = SnapReader::new(&body[8..]);
        let config = RunConfig::get(&mut r)?;
        let machine_bytes = r.bytes()?.to_vec();
        r.finish()?;
        Ok(Checkpoint {
            config,
            machine_bytes,
        })
    }

    /// Read and decode a checkpoint file.
    pub fn read(path: &Path) -> Result<Self, CheckpointError> {
        Self::from_bytes(&std::fs::read(path)?)
    }

    /// Rebuild the machine mid-run: construct it from the stored
    /// configuration, then restore the snapshot *instead of* beginning the
    /// run. The returned machine continues exactly where the checkpoint was
    /// taken.
    pub fn resume(&self) -> Result<Machine, CheckpointError> {
        let mut machine = self.config.machine()?;
        // The configuration built a machine, so a blob that does not
        // restore into it is a bad file, not a bad configuration.
        machine
            .restore_bytes(&self.machine_bytes)
            .map_err(|e| match e {
                SimError::InvalidConfig(msg) => CheckpointError::Format(msg),
                e => CheckpointError::Sim(e),
            })?;
        Ok(machine)
    }
}

/// Write a checkpoint atomically: serialize to `<dir>/.<name>.tmp-<pid>`,
/// then rename over the final path. A crash mid-write never leaves a torn
/// checkpoint under the final name.
pub fn write_checkpoint(
    path: &Path,
    config: &RunConfig,
    machine: &mut Machine,
) -> Result<(), CheckpointError> {
    let bytes = checkpoint_bytes(config, machine);
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let name = path.file_name().ok_or_else(|| {
        CheckpointError::Format(format!("checkpoint path {path:?} has no file name"))
    })?;
    let tmp = dir.unwrap_or(Path::new(".")).join(format!(
        ".{}.tmp-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    std::fs::write(&tmp, &bytes)?;
    if let Err(e) = std::fs::rename(&tmp, path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(e.into());
    }
    Ok(())
}

/// Outcome of a checkpointed run: the final report plus every checkpoint
/// file written along the way.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// The final report (bit-identical to an un-checkpointed run).
    pub report: Report,
    /// Paths of the checkpoints written, in simulated-time order.
    pub checkpoints: Vec<PathBuf>,
}

/// Run `config` to completion, writing a checkpoint into `dir` every
/// `every` simulated time units (file names are
/// `ckpt-t<simulated-time>.oracle`). Checkpointing is observation only:
/// the final report is bit-identical to a plain [`RunConfig::run`].
pub fn run_with_checkpoints(
    config: &RunConfig,
    every: u64,
    dir: &Path,
) -> Result<CheckpointedRun, CheckpointError> {
    if every == 0 {
        return Err(CheckpointError::Sim(SimError::InvalidConfig(
            "checkpoint interval must be positive".into(),
        )));
    }
    std::fs::create_dir_all(dir)?;
    let mut machine = config.machine()?;
    machine.begin();
    let mut checkpoints = Vec::new();
    loop {
        let pause_at = machine.sim_time().saturating_add(every);
        let done = machine.advance_until(Some(pause_at))?;
        if done {
            break;
        }
        let path = dir.join(format!("ckpt-t{:012}.oracle", machine.sim_time()));
        write_checkpoint(&path, config, &mut machine)?;
        checkpoints.push(path);
    }
    let (report, _) = machine.finish()?;
    Ok(CheckpointedRun {
        report,
        checkpoints,
    })
}

/// Resume a checkpoint file and run to completion.
pub fn resume_run(path: &Path) -> Result<(RunConfig, Report), CheckpointError> {
    let checkpoint = Checkpoint::read(path)?;
    let mut machine = checkpoint.resume()?;
    machine.advance_until(None)?;
    let (report, _) = machine.finish()?;
    Ok((checkpoint.config, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::SimulationBuilder;
    use oracle_strategies::StrategySpec;
    use oracle_topo::TopologySpec;
    use oracle_workloads::WorkloadSpec;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("oracle-ckpt-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_config() -> RunConfig {
        SimulationBuilder::new()
            .topology(TopologySpec::grid(4))
            .strategy(StrategySpec::Cwn {
                radius: 4,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(12))
            .seed(41)
            .config()
    }

    #[test]
    fn config_codec_round_trips() {
        // Every persisted field differs from its default (and the literals
        // name every field), so a field the codec drops cannot round-trip
        // by accident.
        let config = RunConfig {
            topology: TopologySpec::grid(4),
            strategy: StrategySpec::Cwn {
                radius: 4,
                horizon: 2,
            },
            workload: WorkloadSpec::fib(12),
            costs: CostModel {
                split_cost: 21,
                leaf_cost: 16,
                combine_cost: 6,
                goal_hop_cost: 9,
                response_hop_cost: 8,
                control_hop_cost: 3,
                software_routing_cost: 11,
            },
            machine: MachineConfig {
                seed: 41,
                sampling_interval: 70,
                load_info: LoadInfoMode::Piggyback { period: 7 },
                future_commitment_weight: 2,
                coprocessor: false,
                per_pe_series: true,
                max_events: 123_456,
                progress_window: 5_000,
                trace_capacity: 99,
                trace_mode: oracle_model::TraceMode::default(),
                profile: false,
                queue_discipline: QueueDiscipline::DeepestFirst,
                queue_backend: QueueBackend::Heap,
                fault_plan: "crash:3@900+loss:2%+recover:400x5".parse().unwrap(),
                audit_every: 64,
                open: Some(OpenTraffic {
                    arrivals: "burst:8x0.5x2000x6000@3,7".parse().unwrap(),
                    duration: 9000,
                    warmup: 500,
                    saturation_inflight: 77,
                    deadline: Some(1500),
                    retry: Some("3x200".parse().unwrap()),
                    admission: Some("bucket:12x5".parse().unwrap()),
                    breaker: Some(800),
                }),
                state_mode: StateMode::Sparse,
                per_pe_metrics: true,
                pe_speed_spread: 3,
            },
        };
        let mut w = SnapWriter::new();
        config.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let decoded = RunConfig::get(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(decoded, config);
    }

    #[test]
    fn resume_under_another_workload_fails_the_analytic_check() {
        // A fib:12 snapshot stored under a fib:13 config decodes and runs,
        // but the root computes fib(12): resume must fail, not report it.
        let dir = scratch_dir("mismatch");
        let config = sample_config();
        let mut machine = config.machine().unwrap();
        machine.begin();
        assert!(!machine.advance_until(Some(300)).unwrap());
        let mut swapped = config;
        swapped.workload = WorkloadSpec::fib(13);
        let path = dir.join("swapped.oracle");
        std::fs::write(&path, checkpoint_bytes(&swapped, &mut machine)).unwrap();
        match resume_run(&path) {
            Err(CheckpointError::Sim(SimError::InvariantViolation { check, .. })) => {
                assert_eq!(check, "analytic-result")
            }
            other => panic!("expected an analytic-result violation, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn refuses_the_v5_layout() {
        let mut w = SnapWriter::new();
        w.u32(CHECKPOINT_MAGIC);
        w.u32(5);
        let err = Checkpoint::from_bytes(&w.into_bytes()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Format(ref m)
                if m.contains("version 5 is not supported")),
            "{err}"
        );
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_every_checkpoint_resumes() {
        let dir = scratch_dir("resume");
        let config = sample_config();
        let plain = config.run().unwrap();
        let checkpointed = run_with_checkpoints(&config, 300, &dir).unwrap();
        assert_eq!(
            format!("{plain:?}"),
            format!("{:?}", checkpointed.report),
            "checkpointing changed the simulation"
        );
        assert!(
            !checkpointed.checkpoints.is_empty(),
            "no checkpoints were written"
        );
        for path in &checkpointed.checkpoints {
            let (config_back, resumed) = resume_run(path).unwrap();
            assert_eq!(config_back, config);
            assert_eq!(
                format!("{plain:?}"),
                format!("{resumed:?}"),
                "resume from {path:?} diverged"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_run_resumed_mid_measurement_window_is_bit_identical() {
        let dir = scratch_dir("open");
        let mut config = sample_config();
        // Warmup ends at 300; checkpoints every 250 straddle the window
        // boundary, so at least one resume starts mid-measurement.
        config.machine.open = Some(oracle_model::OpenTraffic {
            warmup: 300,
            ..oracle_model::OpenTraffic::new("poisson:6".parse().unwrap(), 3000)
        });
        let plain = config.run().unwrap();
        assert!(plain.open.is_some(), "open run must report open metrics");
        let checkpointed = run_with_checkpoints(&config, 250, &dir).unwrap();
        assert_eq!(
            format!("{plain:?}"),
            format!("{:?}", checkpointed.report),
            "checkpointing changed the open-traffic simulation"
        );
        assert!(
            checkpointed.checkpoints.len() >= 3,
            "expected several checkpoints, got {:?}",
            checkpointed.checkpoints
        );
        for path in &checkpointed.checkpoints {
            let (config_back, resumed) = resume_run(path).unwrap();
            assert_eq!(config_back, config);
            assert_eq!(
                format!("{plain:?}"),
                format!("{resumed:?}"),
                "open resume from {path:?} diverged"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn saturated_run_resumed_mid_window_is_bit_identical() {
        let dir = scratch_dir("saturated");
        let mut config = sample_config();
        // Offered load far past capacity with a low trip wire: the run ends
        // `Saturated` mid-measurement-window. Checkpoints every 150 units
        // straddle both the warmup boundary and the trip, auditing the
        // trip-wire/checkpoint interaction the resume path must preserve.
        config.machine.open = Some(oracle_model::OpenTraffic {
            warmup: 200,
            saturation_inflight: 48,
            deadline: Some(900),
            ..oracle_model::OpenTraffic::new("poisson:60".parse().unwrap(), 6000)
        });
        let plain = config.run().unwrap();
        let open = plain.open.as_ref().expect("open metrics");
        assert!(
            matches!(open.outcome, oracle_model::OpenOutcome::Saturated { .. }),
            "run must trip the saturation wire, got {:?}",
            open.outcome
        );
        let checkpointed = run_with_checkpoints(&config, 150, &dir).unwrap();
        assert_eq!(
            format!("{plain:?}"),
            format!("{:?}", checkpointed.report),
            "checkpointing changed the saturated run"
        );
        assert!(
            !checkpointed.checkpoints.is_empty(),
            "saturated run tripped before the first checkpoint"
        );
        // The Debug rendering covers the full report — outcome, counters,
        // and every sojourn-histogram quantile — so equality here is the
        // bit-for-bit pin.
        for path in &checkpointed.checkpoints {
            let (config_back, resumed) = resume_run(path).unwrap();
            assert_eq!(config_back, config);
            assert_eq!(
                format!("{plain:?}"),
                format!("{resumed:?}"),
                "saturated resume from {path:?} diverged"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_is_identical_under_faults_and_audit() {
        let dir = scratch_dir("faults");
        let mut config = sample_config();
        config.machine.fault_plan = "crash:5@700+loss:1%+recover:400x6".parse().unwrap();
        config.machine.audit_every = 32;
        let plain = match config.run() {
            Ok(report) => format!("{report:?}"),
            Err(e) => format!("Err({e:?})"),
        };
        let checkpointed = run_with_checkpoints(&config, 400, &dir);
        match &checkpointed {
            Ok(run) => {
                assert_eq!(plain, format!("{:?}", run.report));
                for path in &run.checkpoints {
                    let (_, resumed) = resume_run(path).unwrap();
                    assert_eq!(plain, format!("{resumed:?}"));
                }
            }
            // The faulty run may legitimately end in GoalsLost; resume from
            // whatever checkpoints exist must reproduce the same error.
            Err(CheckpointError::Sim(e)) => {
                assert_eq!(plain, format!("Err({e:?})"));
                let mut paths: Vec<_> = std::fs::read_dir(&dir)
                    .unwrap()
                    .map(|entry| entry.unwrap().path())
                    .filter(|p| p.extension().is_some_and(|x| x == "oracle"))
                    .collect();
                paths.sort();
                for path in paths {
                    let err = resume_run(&path).unwrap_err();
                    assert_eq!(plain, format!("Err({:?})", unwrap_sim(err)));
                }
            }
            Err(e) => panic!("unexpected checkpoint failure: {e}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn unwrap_sim(e: CheckpointError) -> SimError {
        match e {
            CheckpointError::Sim(e) => e,
            other => panic!("expected a simulation error, got {other}"),
        }
    }

    #[test]
    fn rejects_garbage_and_wrong_versions() {
        let err = Checkpoint::from_bytes(&[0u8; 32]).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Format(ref m) if m.contains("magic")),
            "{err}"
        );

        let mut w = SnapWriter::new();
        w.u32(CHECKPOINT_MAGIC);
        w.u32(CHECKPOINT_VERSION + 1);
        let err = Checkpoint::from_bytes(&w.into_bytes()).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Format(ref m) if m.contains("version")),
            "{err}"
        );

        let config = sample_config();
        let mut machine = config.machine().unwrap();
        machine.begin();
        machine.advance_until(Some(100)).unwrap();
        let bytes = checkpoint_bytes(&config, &mut machine);
        for cut in [bytes.len() - 7, 12, 8] {
            let err = Checkpoint::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Format(ref m) if m.contains("digest")),
                "{err}"
            );
        }

        // A blob that decodes but does not fit the machine its own
        // configuration builds is a bad file too, not a bad configuration:
        // a 4x4-grid snapshot under a 5x5-grid configuration, and one
        // taken under another strategy.
        let checkpoint = Checkpoint::from_bytes(&bytes).unwrap();
        for (other, expect) in [
            (
                RunConfig {
                    topology: TopologySpec::grid(5),
                    ..config.clone()
                },
                "25 PEs",
            ),
            (
                RunConfig {
                    strategy: StrategySpec::gradient_paper(true),
                    ..config.clone()
                },
                "strategy snapshot was taken from",
            ),
        ] {
            let swapped = Checkpoint {
                config: other,
                machine_bytes: checkpoint.machine_bytes.clone(),
            };
            let err = swapped.resume().err().expect("resume must fail");
            assert!(
                matches!(err, CheckpointError::Format(ref m) if m.contains(expect)),
                "{err}"
            );
        }
        let mut corrupt = checkpoint;
        corrupt.machine_bytes.truncate(100);
        let err = corrupt.resume().err().expect("resume must fail");
        assert!(
            matches!(err, CheckpointError::Format(ref m) if m.contains("corrupt machine snapshot")),
            "{err}"
        );
    }

    /// A checkpoint file of `config` paused at `at`.
    fn paused_checkpoint(config: &RunConfig, at: u64) -> Vec<u8> {
        let mut machine = config.machine().unwrap();
        machine.begin();
        assert!(!machine.advance_until(Some(at)).unwrap());
        checkpoint_bytes(config, &mut machine)
    }

    fn open_config() -> RunConfig {
        let mut config = sample_config();
        let mut open = OpenTraffic::new("poisson:6".parse().unwrap(), 3000);
        open.warmup = 300;
        open.deadline = Some(900);
        open.retry = Some("2x200".parse().unwrap());
        open.admission = Some("queue:16".parse().unwrap());
        config.machine.open = Some(open);
        config
    }

    #[test]
    fn every_flipped_byte_is_a_format_error() {
        for (config, at) in [(sample_config(), 300), (open_config(), 900)] {
            let bytes = paused_checkpoint(&config, at);
            let mut flipped = bytes.clone();
            for i in 0..bytes.len() {
                flipped[i] = !bytes[i];
                match Checkpoint::from_bytes(&flipped) {
                    Err(CheckpointError::Format(_)) => {}
                    other => panic!("flipping byte {i} of {} gave {other:?}", bytes.len()),
                }
                flipped[i] = bytes[i];
            }
            let mut resumed = Checkpoint::from_bytes(&bytes).unwrap().resume().unwrap();
            resumed.advance_until(None).unwrap();
            assert_eq!(
                format!("{:?}", resumed.finish().unwrap().0),
                format!("{:?}", config.run().unwrap()),
                "the untouched file must resume bit-identically"
            );
        }
    }

    /// The machine blob's layout is fixed: two paused runs must encode to
    /// exactly the bytes (same length, same digest) the layout has always
    /// given them, and a checkpoint file is that blob behind the same
    /// configuration bytes, under version 7 and a digest trailer.
    #[test]
    fn machine_blob_layout_is_pinned() {
        let closed = SimulationBuilder::new()
            .topology(TopologySpec::grid(6))
            .workload(WorkloadSpec::fib(14))
            .seed(7)
            .config();
        let mut open = OpenTraffic::new("poisson:12".parse().unwrap(), 20_000);
        open.deadline = Some(2000);
        open.retry = Some("2x200".parse().unwrap());
        open.admission = Some("queue:64".parse().unwrap());
        let open = SimulationBuilder::new()
            .topology(TopologySpec::grid(10))
            .strategy(StrategySpec::Cwn {
                radius: 9,
                horizon: 1,
            })
            .workload(WorkloadSpec::fib(11))
            .open(Some(open))
            .seed(7)
            .config();
        for (config, at, len, pinned) in [
            (&closed, 300, 30_360, 0xb3bf_5f4a_86dc_fd4c_u64),
            (&open, 5000, 68_472, 0xe64b_8dff_d6f0_d644),
        ] {
            let mut machine = config.machine().unwrap();
            machine.begin();
            assert!(!machine.advance_until(Some(at)).unwrap());
            let blob = machine.snapshot_bytes();
            assert_eq!((blob.len(), digest(&blob)), (len, pinned));
        }
        let mut file = paused_checkpoint(&closed, 300);
        assert_eq!(file.len(), 30_565 + DIGEST_LEN);
        file.truncate(file.len() - DIGEST_LEN);
        file[4..8].copy_from_slice(&6u32.to_le_bytes());
        assert_eq!(digest(&file), 0xf4de_6a65_fde6_ae45);
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = scratch_dir("atomic");
        let config = sample_config();
        let mut machine = config.machine().unwrap();
        machine.begin();
        machine.advance_until(Some(200)).unwrap();
        let path = dir.join("snap.oracle");
        write_checkpoint(&path, &config, &mut machine).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["snap.oracle".to_string()], "{names:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
