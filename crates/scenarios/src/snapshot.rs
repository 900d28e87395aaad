//! Checkpoint/restore for the scenario engine.
//!
//! A snapshot is the *complete* mutable state of a mid-run [`Engine`],
//! canonically encoded: the scheduler's clock and pending queue (with
//! sequence tiebreakers and cancellation tombstones), every component's
//! state, all counters, the observability plane, and the position of
//! every RNG substream. The encoding is deterministic byte-for-byte, so
//! two engines are in the same logical state **iff** their snapshots are
//! byte-equal — which is what makes [`Engine::state_hash`] a meaningful
//! equivalence check and what the divergence bisector builds on.
//!
//! The contract enforced by `tests/ckpt.rs` and CI: **restore ≡
//! continuous**. Running N days, snapshotting, restoring into a fresh
//! process, and running N more days produces byte-identical reports,
//! journals, and traces to a single uninterrupted 2N-day run.
//!
//! What is deliberately *not* in the payload:
//!
//! * The topology, service pairs, and component configurations — all
//!   derived deterministically from [`ScenarioConfig`], whose
//!   fingerprint the snapshot header pins ([`Snapshot::require_config`]).
//! * Wall-clock profiling ([`dcmaint_obs::WallProfile`]) — observational
//!   only, never feeds back into the simulation.

use dcmaint_ckpt::{fnv1a64, intern, CkptError, Dec, Enc, Snapshot, StateHash};
use dcmaint_dcnet::{AdminState, LinkHealth, LinkId};
use dcmaint_des::{RngRestore, Scheduler, SimDuration, SimRng, SimTime, Stream, StreamRestore};
use dcmaint_faults::{FlapProcess, RepairAction, RootCause};
use dcmaint_metrics::{CostLedger, FleetAvailability};
use dcmaint_obs::{ObsRegistry, TraceStore};
use dcmaint_robotics::OpOutcome;
use dcmaint_telemetry::{TelemetryPlane, FEATURE_DIM};
use dcmaint_tickets::{TicketBoard, TicketId};
use maintctl::{ClaimId, Executor, PreContactAnnouncement, RecoveryState};

use crate::config::ScenarioConfig;
use crate::engine::{ActiveIncident, ActiveRepair, Engine, Ev, LinkRt};
use crate::report::ActionStats;

/// FNV-1a fingerprint of a configuration's `Debug` rendering. Snapshots
/// only load under the exact configuration that produced them.
pub fn config_fingerprint(cfg: &ScenarioConfig) -> u64 {
    fnv1a64(format!("{cfg:?}").as_bytes())
}

// ----- enum codecs (engine-side enums without their own tag methods) --

fn health_tag(h: LinkHealth) -> u8 {
    match h {
        LinkHealth::Up => 0,
        LinkHealth::Degraded => 1,
        LinkHealth::Flapping => 2,
        LinkHealth::Down => 3,
    }
}

fn health_from(tag: u8) -> Result<LinkHealth, CkptError> {
    Ok(match tag {
        0 => LinkHealth::Up,
        1 => LinkHealth::Degraded,
        2 => LinkHealth::Flapping,
        3 => LinkHealth::Down,
        t => return Err(CkptError::BadTag("link-health", t as u64)),
    })
}

fn admin_tag(a: AdminState) -> u8 {
    match a {
        AdminState::InService => 0,
        AdminState::Draining => 1,
        AdminState::Drained => 2,
        AdminState::Maintenance => 3,
    }
}

fn admin_from(tag: u8) -> Result<AdminState, CkptError> {
    Ok(match tag {
        0 => AdminState::InService,
        1 => AdminState::Draining,
        2 => AdminState::Drained,
        3 => AdminState::Maintenance,
        t => return Err(CkptError::BadTag("admin-state", t as u64)),
    })
}

fn exec_tag(e: Executor) -> u8 {
    match e {
        Executor::Human => 0,
        Executor::HumanWithDevice => 1,
        Executor::SupervisedRobot => 2,
        Executor::AutonomousRobot => 3,
    }
}

fn exec_from(tag: u8) -> Result<Executor, CkptError> {
    Ok(match tag {
        0 => Executor::Human,
        1 => Executor::HumanWithDevice,
        2 => Executor::SupervisedRobot,
        3 => Executor::AutonomousRobot,
        t => return Err(CkptError::BadTag("executor", t as u64)),
    })
}

fn outcome_tag(o: OpOutcome) -> u8 {
    match o {
        OpOutcome::Completed => 0,
        OpOutcome::Escalated => 1,
        OpOutcome::Stalled => 2,
        OpOutcome::AbortedSafe => 3,
        OpOutcome::AbortedUnsafe => 4,
    }
}

fn outcome_from(tag: u8) -> Result<OpOutcome, CkptError> {
    Ok(match tag {
        0 => OpOutcome::Completed,
        1 => OpOutcome::Escalated,
        2 => OpOutcome::Stalled,
        3 => OpOutcome::AbortedSafe,
        4 => OpOutcome::AbortedUnsafe,
        t => return Err(CkptError::BadTag("op-outcome", t as u64)),
    })
}

// ----- event payload codec -------------------------------------------

fn save_ev(enc: &mut Enc, ev: &Ev) {
    match ev {
        Ev::Fault => enc.u8(0),
        Ev::SelfHeal { link, epoch } => {
            enc.u8(1);
            enc.u64(link.key());
            enc.u64(*epoch);
        }
        Ev::Flap { link, epoch } => {
            enc.u8(2);
            enc.u64(link.key());
            enc.u64(*epoch);
        }
        Ev::LatentManifest { link, cause } => {
            enc.u8(3);
            enc.u64(link.key());
            enc.u8(cause.ckpt_tag());
        }
        Ev::BurstEnd { link, epoch } => {
            enc.u8(4);
            enc.u64(link.key());
            enc.u64(*epoch);
        }
        Ev::Poll => enc.u8(5),
        Ev::Dispatch { ticket } => {
            enc.u8(6);
            enc.u64(ticket.0);
        }
        Ev::RepairStart { ticket } => {
            enc.u8(7);
            enc.u64(ticket.0);
        }
        Ev::RepairDone { ticket } => {
            enc.u8(8);
            enc.u64(ticket.0);
        }
        Ev::VerifyDone { ticket } => {
            enc.u8(9);
            enc.u64(ticket.0);
        }
        Ev::ProactiveScan => enc.u8(10),
        Ev::ProactiveOpen { link } => {
            enc.u8(11);
            enc.u64(link.key());
        }
        Ev::PredictiveScan => enc.u8(12),
        Ev::Scripted { link, cause } => {
            enc.u8(13);
            enc.u64(link.key());
            enc.u8(cause.ckpt_tag());
        }
        Ev::PredictiveLabel {
            link,
            features,
            flagged,
            incidents_before,
        } => {
            enc.u8(14);
            enc.u64(link.key());
            for f in features {
                enc.f64(*f);
            }
            enc.bool(*flagged);
            enc.u64(*incidents_before);
        }
        Ev::OpStalled { ticket, attempt } => {
            enc.u8(15);
            enc.u64(ticket.0);
            enc.u64(*attempt);
        }
        Ev::OpAborted { ticket, attempt } => {
            enc.u8(16);
            enc.u64(ticket.0);
            enc.u64(*attempt);
        }
        Ev::WatchdogFired { ticket, attempt } => {
            enc.u8(17);
            enc.u64(ticket.0);
            enc.u64(*attempt);
        }
        Ev::RobotRecovered { unit } => {
            enc.u8(18);
            enc.usize(*unit);
        }
        Ev::AutonomicTick => enc.u8(19),
    }
}

fn load_ev(dec: &mut Dec) -> Result<Ev, CkptError> {
    fn link(dec: &mut Dec) -> Result<LinkId, CkptError> {
        Ok(LinkId::from_index(dec.u64()? as usize))
    }
    fn ticket(dec: &mut Dec) -> Result<TicketId, CkptError> {
        Ok(TicketId(dec.u64()?))
    }
    Ok(match dec.u8()? {
        0 => Ev::Fault,
        1 => Ev::SelfHeal {
            link: link(dec)?,
            epoch: dec.u64()?,
        },
        2 => Ev::Flap {
            link: link(dec)?,
            epoch: dec.u64()?,
        },
        3 => Ev::LatentManifest {
            link: link(dec)?,
            cause: RootCause::from_ckpt_tag(dec.u8()?)?,
        },
        4 => Ev::BurstEnd {
            link: link(dec)?,
            epoch: dec.u64()?,
        },
        5 => Ev::Poll,
        6 => Ev::Dispatch {
            ticket: ticket(dec)?,
        },
        7 => Ev::RepairStart {
            ticket: ticket(dec)?,
        },
        8 => Ev::RepairDone {
            ticket: ticket(dec)?,
        },
        9 => Ev::VerifyDone {
            ticket: ticket(dec)?,
        },
        10 => Ev::ProactiveScan,
        11 => Ev::ProactiveOpen { link: link(dec)? },
        12 => Ev::PredictiveScan,
        13 => Ev::Scripted {
            link: link(dec)?,
            cause: RootCause::from_ckpt_tag(dec.u8()?)?,
        },
        14 => {
            let l = link(dec)?;
            let mut features = [0.0; FEATURE_DIM];
            for f in &mut features {
                *f = dec.f64()?;
            }
            Ev::PredictiveLabel {
                link: l,
                features,
                flagged: dec.bool()?,
                incidents_before: dec.u64()?,
            }
        }
        15 => Ev::OpStalled {
            ticket: ticket(dec)?,
            attempt: dec.u64()?,
        },
        16 => Ev::OpAborted {
            ticket: ticket(dec)?,
            attempt: dec.u64()?,
        },
        17 => Ev::WatchdogFired {
            ticket: ticket(dec)?,
            attempt: dec.u64()?,
        },
        18 => Ev::RobotRecovered { unit: dec.usize()? },
        19 => Ev::AutonomicTick,
        t => return Err(CkptError::BadTag("event", t as u64)),
    })
}

// ----- small helpers --------------------------------------------------

fn save_opt_f64(enc: &mut Enc, v: Option<f64>) {
    match v {
        Some(x) => {
            enc.bool(true);
            enc.f64(x);
        }
        None => enc.bool(false),
    }
}

fn load_opt_f64(dec: &mut Dec) -> Result<Option<f64>, CkptError> {
    Ok(if dec.bool()? { Some(dec.f64()?) } else { None })
}

fn save_announcement(enc: &mut Enc, a: &PreContactAnnouncement) {
    enc.u64(a.target.key());
    enc.usize(a.contacts.len());
    for l in &a.contacts {
        enc.u64(l.key());
    }
    enc.u64(a.expected_duration.as_micros());
    enc.usize(a.drained.len());
    for l in &a.drained {
        enc.u64(l.key());
    }
}

fn load_announcement(dec: &mut Dec) -> Result<PreContactAnnouncement, CkptError> {
    let target = LinkId::from_index(dec.u64()? as usize);
    let nc = dec.usize()?;
    let mut contacts = Vec::with_capacity(nc.min(65_536));
    for _ in 0..nc {
        contacts.push(LinkId::from_index(dec.u64()? as usize));
    }
    let expected_duration = SimDuration::from_micros(dec.u64()?);
    let nd = dec.usize()?;
    let mut drained = Vec::with_capacity(nd.min(65_536));
    for _ in 0..nd {
        drained.push(LinkId::from_index(dec.u64()? as usize));
    }
    Ok(PreContactAnnouncement {
        target,
        contacts,
        expected_duration,
        drained,
    })
}

fn save_repair(enc: &mut Enc, r: &ActiveRepair) {
    enc.u64(r.link.key());
    enc.u8(r.action.ckpt_tag());
    enc.u8(exec_tag(r.executor));
    match &r.announcement {
        Some(a) => {
            enc.bool(true);
            save_announcement(enc, a);
        }
        None => enc.bool(false),
    }
    match r.robot_unit {
        Some(u) => {
            enc.bool(true);
            enc.usize(u);
        }
        None => enc.bool(false),
    }
    enc.bool(r.robot_escalated);
    enc.bool(r.human_botched);
    enc.u8(outcome_tag(r.outcome));
    enc.bool(r.lost);
    enc.u64(r.claim.raw());
    enc.u64(r.attempt);
    enc.u64(r.start.as_micros());
    enc.u64(r.obs_travel.as_micros());
    enc.usize(r.obs_phases.len());
    for &(name, d) in &r.obs_phases {
        enc.str(name);
        enc.u64(d.as_micros());
    }
    enc.str(r.obs_residue);
}

fn load_repair(dec: &mut Dec) -> Result<ActiveRepair, CkptError> {
    let link = LinkId::from_index(dec.u64()? as usize);
    let action = RepairAction::from_ckpt_tag(dec.u8()?)?;
    let executor = exec_from(dec.u8()?)?;
    let announcement = if dec.bool()? {
        Some(load_announcement(dec)?)
    } else {
        None
    };
    let robot_unit = if dec.bool()? {
        Some(dec.usize()?)
    } else {
        None
    };
    let robot_escalated = dec.bool()?;
    let human_botched = dec.bool()?;
    let outcome = outcome_from(dec.u8()?)?;
    let lost = dec.bool()?;
    let claim = ClaimId::from_raw(dec.u64()?);
    let attempt = dec.u64()?;
    let start = SimTime::from_micros(dec.u64()?);
    let obs_travel = SimDuration::from_micros(dec.u64()?);
    let np = dec.usize()?;
    let mut obs_phases = Vec::with_capacity(np.min(64));
    for _ in 0..np {
        let name = intern(&dec.str()?);
        obs_phases.push((name, SimDuration::from_micros(dec.u64()?)));
    }
    let obs_residue = intern(&dec.str()?);
    Ok(ActiveRepair {
        link,
        action,
        executor,
        announcement,
        robot_unit,
        robot_escalated,
        human_botched,
        outcome,
        lost,
        claim,
        attempt,
        start,
        obs_travel,
        obs_phases,
        obs_residue,
    })
}

fn save_link_rt(enc: &mut Enc, rt: &LinkRt) {
    match &rt.incident {
        Some(inc) => {
            enc.bool(true);
            enc.u8(inc.cause.ckpt_tag());
            enc.u8(health_tag(inc.health));
            enc.f64(inc.loss);
            enc.u64(inc.started.as_micros());
        }
        None => enc.bool(false),
    }
    match &rt.flap {
        Some(fp) => {
            enc.bool(true);
            fp.save(enc);
        }
        None => enc.bool(false),
    }
    save_opt_f64(enc, rt.burst_loss);
    enc.u64(rt.epoch);
    enc.u64(rt.last_maintenance.as_micros());
    match rt.pending_latent {
        Some(c) => {
            enc.bool(true);
            enc.u8(c.ckpt_tag());
        }
        None => enc.bool(false),
    }
    enc.bool(rt.pending_is_cascade);
}

fn load_link_rt(dec: &mut Dec) -> Result<LinkRt, CkptError> {
    let incident = if dec.bool()? {
        Some(ActiveIncident {
            cause: RootCause::from_ckpt_tag(dec.u8()?)?,
            health: health_from(dec.u8()?)?,
            loss: dec.f64()?,
            started: SimTime::from_micros(dec.u64()?),
        })
    } else {
        None
    };
    let flap = if dec.bool()? {
        Some(FlapProcess::load(dec)?)
    } else {
        None
    };
    let burst_loss = load_opt_f64(dec)?;
    let epoch = dec.u64()?;
    let last_maintenance = SimTime::from_micros(dec.u64()?);
    let pending_latent = if dec.bool()? {
        Some(RootCause::from_ckpt_tag(dec.u8()?)?)
    } else {
        None
    };
    let pending_is_cascade = dec.bool()?;
    Ok(LinkRt {
        incident,
        flap,
        burst_loss,
        epoch,
        last_maintenance,
        pending_latent,
        pending_is_cascade,
    })
}

// ----- the engine snapshot itself -------------------------------------

/// How [`Engine::restore_state`] reinstates RNG stream positions — the
/// engine-level mirror of [`dcmaint_des::StreamRestore`]:
///
/// * `Replay` — fast-forward each freshly derived stream by its recorded
///   draw count. O(total draws); the disk-checkpoint path.
/// * `Adopt` — clone each stream from the live donor engine, which must
///   sit exactly at the recorded positions. O(1) per stream; the
///   in-memory [`Engine::fork`] path.
/// * `Reseed` — re-derive every stream under a different root at draw 0.
///   O(1) per stream; the twin-branch path, where branches deliberately
///   diverge from the parent's noise while staying fully seeded.
#[derive(Clone, Copy)]
pub(crate) enum RestoreRng<'a> {
    Replay,
    Adopt(&'a Engine),
    Reseed(&'a SimRng),
}

impl Engine {
    /// Capture the engine's complete mutable state as a versioned
    /// snapshot, restorable with [`Engine::restore`] under the same
    /// configuration.
    pub fn snapshot(&self) -> Snapshot {
        let mut enc = Enc::new();
        self.save_state(&mut enc);
        Snapshot::new(config_fingerprint(&self.cfg), enc.into_bytes())
    }

    /// Canonical state hash over the encoded payload alone (no config
    /// fingerprint): equal hashes ⇔ equal logical engine state. Leaving
    /// the configuration out lets the bisector compare runs under
    /// *different* configurations — the whole point of divergence
    /// hunting.
    pub fn state_hash(&self) -> StateHash {
        let mut enc = Enc::new();
        self.save_state(&mut enc);
        StateHash(fnv1a64(&enc.into_bytes()))
    }

    /// Rebuild an engine from a snapshot taken under `cfg`. The engine
    /// is constructed exactly as [`Engine::new`] would, then every piece
    /// of mutable state is overlaid from the payload and every RNG
    /// substream fast-forwarded to its recorded position.
    pub fn restore(cfg: ScenarioConfig, snap: &Snapshot) -> Result<Engine, CkptError> {
        snap.require_config(config_fingerprint(&cfg))?;
        let mut eng = Engine::new(cfg);
        let mut dec = Dec::new(&snap.payload);
        eng.restore_state(&mut dec, RestoreRng::Replay)?;
        if !dec.is_exhausted() {
            return Err(CkptError::BadTag(
                "snapshot-trailing-bytes",
                dec.remaining() as u64,
            ));
        }
        Ok(eng)
    }

    /// Raw in-memory fork payload: the complete `save_state` encoding
    /// with no envelope, version header, or config fingerprint. Feed it
    /// to [`Engine::fork_from_bytes`] /
    /// [`Engine::from_fork_bytes_reseeded`] only — disk checkpoints go
    /// through [`Engine::snapshot`].
    pub fn fork_bytes(&self) -> Vec<u8> {
        let mut enc = Enc::new();
        self.save_state(&mut enc);
        enc.into_bytes()
    }

    /// In-memory fork: semantically `snapshot()` + `restore()` under the
    /// same configuration, but skipping the envelope/hash path and
    /// *adopting* the parent's live RNG streams instead of replaying
    /// their recorded draw counts — O(1) per stream instead of
    /// O(draws). The fork is byte-equivalent to the full codec path
    /// (`fork().snapshot() == parent.snapshot()`), pinned by a test.
    pub fn fork(&self) -> Engine {
        let bytes = self.fork_bytes();
        self.fork_from_bytes(&bytes).expect("fork bytes round-trip")
    }

    /// [`Engine::fork`] split in two so callers holding several forks of
    /// one parent (e.g. the twin planner, the bisector's lockstep
    /// replay) encode once and decode many times.
    pub fn fork_from_bytes(&self, bytes: &[u8]) -> Result<Engine, CkptError> {
        let mut eng = Engine::new(self.cfg.clone());
        let mut dec = Dec::new(bytes);
        eng.restore_state(&mut dec, RestoreRng::Adopt(self))?;
        if !dec.is_exhausted() {
            return Err(CkptError::BadTag(
                "fork-trailing-bytes",
                dec.remaining() as u64,
            ));
        }
        Ok(eng)
    }

    /// Twin-branch constructor for the *foresight* sample: rebuild an
    /// engine from fork bytes alone, replaying each stream's recorded
    /// draw count so the branch continues on the parent's exact RNG
    /// tape — it rehearses the future the parent will actually live
    /// (perfect-model MPC), without borrowing the parent into the
    /// worker closure. O(draws) fast-forward, paid per branch.
    pub fn from_fork_bytes_replayed(
        cfg: ScenarioConfig,
        bytes: &[u8],
    ) -> Result<Engine, CkptError> {
        let mut eng = Engine::new(cfg);
        let mut dec = Dec::new(bytes);
        eng.restore_state(&mut dec, RestoreRng::Replay)?;
        if !dec.is_exhausted() {
            return Err(CkptError::BadTag(
                "fork-trailing-bytes",
                dec.remaining() as u64,
            ));
        }
        Ok(eng)
    }

    /// Twin-branch constructor: rebuild an engine from fork bytes with
    /// every RNG stream re-derived under `branch_root` at draw 0. The
    /// branch deliberately diverges from the parent's noise while
    /// staying fully seeded — the same `branch_root` always yields the
    /// same branch, and the parent consumes zero draws.
    pub fn from_fork_bytes_reseeded(
        cfg: ScenarioConfig,
        bytes: &[u8],
        branch_root: &SimRng,
    ) -> Result<Engine, CkptError> {
        let mut eng = Engine::new(cfg);
        let mut dec = Dec::new(bytes);
        eng.restore_state(&mut dec, RestoreRng::Reseed(branch_root))?;
        if !dec.is_exhausted() {
            return Err(CkptError::BadTag(
                "fork-trailing-bytes",
                dec.remaining() as u64,
            ));
        }
        Ok(eng)
    }

    /// Bench-harness hook: capture a snapshot under the self-profiler's
    /// "ckpt" wall span, recording deterministic encode count and
    /// payload size as `prof/ckpt/…` registry entries. The increments
    /// land *after* encoding so the snapshot never includes its own
    /// bookkeeping.
    pub fn profiled_snapshot(&mut self) -> Snapshot {
        let t = self.prof.start();
        let snap = self.snapshot();
        self.prof.record("ckpt", t);
        if self.prof.is_enabled() {
            self.registry.inc("prof/ckpt/encode");
            self.registry
                .add("prof/ckpt/bytes", snap.payload.len() as u64);
        }
        snap
    }

    /// Bench-harness hook: decode `snap` into a throwaway engine under
    /// the "ckpt" wall span. The restored engine is dropped — this
    /// measures decode cost without disturbing the running simulation.
    pub fn profiled_restore(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        let t = self.prof.start();
        let restored = Engine::restore(self.cfg.clone(), snap)?;
        self.prof.record("ckpt", t);
        drop(restored);
        if self.prof.is_enabled() {
            self.registry.inc("prof/ckpt/decode");
        }
        Ok(())
    }

    fn save_state(&self, enc: &mut Enc) {
        // Scheduler: clock, counters, and the pending queue in canonical
        // (time, seq) order, tombstones included so a restored run
        // compacts at the same instants.
        enc.u64(self.sched.now().as_micros());
        enc.u64(self.sched.next_seq());
        enc.u64(self.sched.delivered());
        enc.u64(self.sched.horizon().as_micros());
        let entries = self.sched.export_entries();
        enc.usize(entries.len());
        for (at, seq, payload) in entries {
            enc.u64(at.as_micros());
            enc.u64(seq);
            save_ev(enc, payload);
        }
        let canceled = self.sched.export_canceled();
        enc.usize(canceled.len());
        for k in canceled {
            enc.u64(k);
        }
        // Scheduler lifetime profile counters (format v2): a restored
        // run must report the same `prof/sched/…` totals at finish as a
        // continuous one.
        let sp = self.sched.prof();
        enc.u64(sp.scheduled);
        enc.u64(sp.dropped_horizon);
        enc.u64(sp.canceled);
        enc.u64(sp.compactions);
        enc.u64(sp.max_pending);

        // Network data plane: per-link health/admin/loss.
        enc.usize(self.topo.link_count());
        for i in 0..self.topo.link_count() {
            let ls = self.state.link(LinkId::from_index(i));
            enc.u8(health_tag(ls.health));
            enc.u8(admin_tag(ls.admin));
            enc.f64(ls.loss_rate);
        }

        // Components, in fixed order.
        self.telemetry.save(enc);
        self.board.save(enc);
        self.controller.save(enc);
        self.techs.save(enc);
        self.fleet.save(enc);
        self.injector.save(enc);

        // Engine-side per-link runtime state.
        enc.usize(self.links_rt.len());
        for rt in &self.links_rt {
            save_link_rt(enc, rt);
        }

        // In-flight repairs and dispatch bookkeeping.
        enc.usize(self.active.len());
        for (&id, r) in &self.active {
            enc.u64(id.0);
            save_repair(enc, r);
        }
        enc.usize(self.forced_action.len());
        for (&id, a) in &self.forced_action {
            enc.u64(id.0);
            enc.u8(a.ckpt_tag());
        }

        // Metrics ledgers and the safety plane.
        self.avail.save(enc);
        self.costs.save(enc);
        self.zones.save(enc);

        // RNG substream positions.
        enc.u64(self.hazard.draws());
        enc.u64(self.causes.draws());
        enc.u64(self.outcomes.draws());
        enc.u64(self.ops.draws());
        enc.u64(self.faults_rng.draws());
        enc.u64(self.recovery_rng.draws());

        // Recovery bookkeeping.
        enc.u64(self.attempt_seq);
        enc.usize(self.recovery_state.len());
        for (&id, rs) in &self.recovery_state {
            enc.u64(id.0);
            enc.u32(rs.same_robot_retries);
            enc.u32(rs.reassigns);
        }
        enc.usize(self.exclude_unit.len());
        for (&id, &u) in &self.exclude_unit {
            enc.u64(id.0);
            enc.usize(u);
        }
        enc.usize(self.forced_human.len());
        for &id in &self.forced_human {
            enc.u64(id.0);
        }
        enc.usize(self.recovery_queue.len());
        for &id in &self.recovery_queue {
            enc.u64(id.0);
        }

        // Counters.
        enc.u64(self.incidents);
        enc.u64(self.cascade_incidents);
        enc.u64(self.cascade_bursts);
        enc.u64(self.cascade_bursts_live);
        enc.f64(self.burst_impact_loss_s);
        enc.usize(self.tickets_by_trigger.len());
        for (&k, &v) in &self.tickets_by_trigger {
            enc.str(k);
            enc.u64(v);
        }
        enc.usize(self.actions.len());
        for (&a, s) in &self.actions {
            enc.u8(a.ckpt_tag());
            enc.u64(s.attempts);
            enc.u64(s.fixes);
            enc.u64(s.robotic);
            enc.u64(s.escalations);
        }
        enc.u64(self.tech_time.as_micros());
        enc.u64(self.human_escalations);
        enc.u64(self.campaigns);
        enc.u64(self.campaign_links);
        enc.u64(self.prediction.true_pos);
        enc.u64(self.prediction.false_pos);
        enc.u64(self.prediction.false_neg);
        enc.u64(self.prediction.true_neg);
        enc.u64(self.drains_deferred);
        enc.f64(self.drain_capacity_impact);
        enc.f64(self.campaign_drain_impact);
        enc.usize(self.trough_deferred.len());
        for &id in &self.trough_deferred {
            enc.u64(id.0);
        }
        enc.usize(self.attempts_per_fix.len());
        for &a in &self.attempts_per_fix {
            enc.u32(a);
        }
        enc.usize(self.fixed_attempts_by_ticket.len());
        for (&id, &fixed) in &self.fixed_attempts_by_ticket {
            enc.u64(id.0);
            enc.bool(fixed);
        }
        enc.usize(self.defer_counts.len());
        for (&id, &n) in &self.defer_counts {
            enc.u64(id.0);
            enc.u32(n);
        }
        enc.u64(self.op_stalls);
        enc.u64(self.op_aborts_safe);
        enc.u64(self.op_aborts_unsafe);
        enc.u64(self.watchdog_fires);
        enc.u64(self.robot_retries);
        enc.u64(self.robot_reassigns);
        enc.u64(self.robot_recoveries);
        enc.u64(self.telemetry_dropouts);
        enc.u64(self.dispatch_msgs_lost);
        enc.u64(self.ports_flagged);
        enc.u64(self.recovery_queued);

        // Twin planner (format v3): committed plans, the planned-episode
        // set, and the decision counter that namespaces branch RNG — a
        // restored twin run must fork the same branches under the same
        // seeds as a continuous one.
        enc.usize(self.twin_plans.len());
        for (&id, p) in &self.twin_plans {
            enc.u64(id.0);
            match p.action {
                Some(a) => {
                    enc.bool(true);
                    enc.u8(a.ckpt_tag());
                }
                None => enc.bool(false),
            }
            enc.bool(p.human);
            match p.defer_until {
                Some(t) => {
                    enc.bool(true);
                    enc.u64(t.as_micros());
                }
                None => enc.bool(false),
            }
        }
        enc.usize(self.twin_planned.len());
        for &id in &self.twin_planned {
            enc.u64(id.0);
        }
        enc.u64(self.twin_decisions);
        enc.u64(self.twin_forks);
        enc.u64(self.twin_committed);
        enc.f64(self.twin_pred_avail_sum);

        // Observability plane (wall-clock profiling excluded: it never
        // feeds back into the simulation).
        self.journal.save(enc);
        self.registry.save(enc);
        self.traces.save(enc);

        // Autonomic MAPE-K loop (format v4): knowledge posteriors, tuned
        // knobs, guardrail bookkeeping, the monitor's cursor baselines,
        // and the loop's RNG position — everything a restored run needs
        // to keep adapting exactly as a continuous one would.
        match &self.autonomic {
            Some(m) => {
                enc.bool(true);
                m.save(enc);
            }
            None => enc.bool(false),
        }
        enc.u64(self.autonomic_rng.draws());
    }

    fn restore_state(&mut self, dec: &mut Dec, rng: RestoreRng<'_>) -> Result<(), CkptError> {
        // Scheduler.
        let now = SimTime::from_micros(dec.u64()?);
        let seq = dec.u64()?;
        let delivered = dec.u64()?;
        let horizon = SimTime::from_micros(dec.u64()?);
        let ne = dec.usize()?;
        let mut entries = Vec::with_capacity(ne.min(1 << 20));
        for _ in 0..ne {
            let at = SimTime::from_micros(dec.u64()?);
            let s = dec.u64()?;
            entries.push((at, s, load_ev(dec)?));
        }
        let nc = dec.usize()?;
        let mut canceled = Vec::with_capacity(nc.min(1 << 20));
        for _ in 0..nc {
            canceled.push(dec.u64()?);
        }
        self.sched = Scheduler::restore(now, seq, delivered, horizon, entries, canceled);
        self.sched.set_prof(dcmaint_des::SchedProf {
            scheduled: dec.u64()?,
            dropped_horizon: dec.u64()?,
            canceled: dec.u64()?,
            compactions: dec.u64()?,
            max_pending: dec.u64()?,
        });

        // Network data plane.
        let nl = dec.usize()?;
        if nl != self.topo.link_count() {
            return Err(CkptError::BadTag("net-link-count", nl as u64));
        }
        for i in 0..nl {
            let health = health_from(dec.u8()?)?;
            let admin = admin_from(dec.u8()?)?;
            let loss = dec.f64()?;
            let l = LinkId::from_index(i);
            self.state.set_health(l, health, loss);
            self.state.set_admin(l, admin);
        }

        // Components, same fixed order as `save_state`.
        self.telemetry = TelemetryPlane::load(dec)?;
        self.board = TicketBoard::load(dec)?;
        self.board.set_journal(self.journal.clone());
        self.controller.restore(dec)?;
        // Components carrying RNG streams project the engine-level
        // restore mode onto their own type. The reseed namespaces
        // ("techs"/"fleet"/"faults") must match `build_engine`.
        self.techs.restore(
            dec,
            match rng {
                RestoreRng::Replay => RngRestore::Replay,
                RestoreRng::Adopt(e) => RngRestore::Adopt(&e.techs),
                RestoreRng::Reseed(root) => RngRestore::Reseed(root.child("techs")),
            },
        )?;
        self.fleet.restore(
            dec,
            match rng {
                RestoreRng::Replay => RngRestore::Replay,
                RestoreRng::Adopt(e) => RngRestore::Adopt(&e.fleet),
                RestoreRng::Reseed(root) => RngRestore::Reseed(root.child("fleet")),
            },
        )?;
        self.injector.restore_draws(
            dec,
            match rng {
                RestoreRng::Replay => RngRestore::Replay,
                RestoreRng::Adopt(e) => RngRestore::Adopt(&e.injector),
                RestoreRng::Reseed(root) => RngRestore::Reseed(root.child("faults")),
            },
        )?;

        // Engine-side per-link runtime state.
        let nrt = dec.usize()?;
        if nrt != self.links_rt.len() {
            return Err(CkptError::BadTag("links-rt-count", nrt as u64));
        }
        for rt in self.links_rt.iter_mut() {
            *rt = load_link_rt(dec)?;
        }

        // In-flight repairs and dispatch bookkeeping.
        self.active.clear();
        for _ in 0..dec.usize()? {
            let id = TicketId(dec.u64()?);
            self.active.insert(id, load_repair(dec)?);
        }
        self.forced_action.clear();
        for _ in 0..dec.usize()? {
            let id = TicketId(dec.u64()?);
            self.forced_action
                .insert(id, RepairAction::from_ckpt_tag(dec.u8()?)?);
        }

        // Metrics ledgers and the safety plane.
        self.avail = FleetAvailability::load(dec)?;
        self.costs = CostLedger::load(dec)?;
        self.zones.restore(dec)?;

        // RNG substream positions. The engine's own streams derive
        // straight from the scenario root, so Reseed re-derives them
        // under the branch root directly.
        let s = |pick: fn(&Engine) -> &Stream| match rng {
            RestoreRng::Replay => StreamRestore::Replay,
            RestoreRng::Adopt(e) => StreamRestore::Adopt(pick(e)),
            RestoreRng::Reseed(root) => StreamRestore::Reseed(root),
        };
        self.hazard.restore_pos(dec.u64()?, s(|e| &e.hazard));
        self.causes.restore_pos(dec.u64()?, s(|e| &e.causes));
        self.outcomes.restore_pos(dec.u64()?, s(|e| &e.outcomes));
        self.ops.restore_pos(dec.u64()?, s(|e| &e.ops));
        self.faults_rng
            .restore_pos(dec.u64()?, s(|e| &e.faults_rng));
        self.recovery_rng
            .restore_pos(dec.u64()?, s(|e| &e.recovery_rng));

        // Recovery bookkeeping.
        self.attempt_seq = dec.u64()?;
        self.recovery_state.clear();
        for _ in 0..dec.usize()? {
            let id = TicketId(dec.u64()?);
            let rs = RecoveryState {
                same_robot_retries: dec.u32()?,
                reassigns: dec.u32()?,
            };
            self.recovery_state.insert(id, rs);
        }
        self.exclude_unit.clear();
        for _ in 0..dec.usize()? {
            let id = TicketId(dec.u64()?);
            let u = dec.usize()?;
            self.exclude_unit.insert(id, u);
        }
        self.forced_human.clear();
        for _ in 0..dec.usize()? {
            self.forced_human.insert(TicketId(dec.u64()?));
        }
        self.recovery_queue.clear();
        for _ in 0..dec.usize()? {
            self.recovery_queue.push(TicketId(dec.u64()?));
        }

        // Counters.
        self.incidents = dec.u64()?;
        self.cascade_incidents = dec.u64()?;
        self.cascade_bursts = dec.u64()?;
        self.cascade_bursts_live = dec.u64()?;
        self.burst_impact_loss_s = dec.f64()?;
        self.tickets_by_trigger.clear();
        for _ in 0..dec.usize()? {
            let k = intern(&dec.str()?);
            let v = dec.u64()?;
            self.tickets_by_trigger.insert(k, v);
        }
        self.actions.clear();
        for _ in 0..dec.usize()? {
            let a = RepairAction::from_ckpt_tag(dec.u8()?)?;
            let s = ActionStats {
                attempts: dec.u64()?,
                fixes: dec.u64()?,
                robotic: dec.u64()?,
                escalations: dec.u64()?,
            };
            self.actions.insert(a, s);
        }
        self.tech_time = SimDuration::from_micros(dec.u64()?);
        self.human_escalations = dec.u64()?;
        self.campaigns = dec.u64()?;
        self.campaign_links = dec.u64()?;
        self.prediction.true_pos = dec.u64()?;
        self.prediction.false_pos = dec.u64()?;
        self.prediction.false_neg = dec.u64()?;
        self.prediction.true_neg = dec.u64()?;
        self.drains_deferred = dec.u64()?;
        self.drain_capacity_impact = dec.f64()?;
        self.campaign_drain_impact = dec.f64()?;
        self.trough_deferred.clear();
        for _ in 0..dec.usize()? {
            self.trough_deferred.insert(TicketId(dec.u64()?));
        }
        self.attempts_per_fix.clear();
        for _ in 0..dec.usize()? {
            self.attempts_per_fix.push(dec.u32()?);
        }
        self.fixed_attempts_by_ticket.clear();
        for _ in 0..dec.usize()? {
            let id = TicketId(dec.u64()?);
            let fixed = dec.bool()?;
            self.fixed_attempts_by_ticket.insert(id, fixed);
        }
        self.defer_counts.clear();
        for _ in 0..dec.usize()? {
            let id = TicketId(dec.u64()?);
            let n = dec.u32()?;
            self.defer_counts.insert(id, n);
        }
        self.op_stalls = dec.u64()?;
        self.op_aborts_safe = dec.u64()?;
        self.op_aborts_unsafe = dec.u64()?;
        self.watchdog_fires = dec.u64()?;
        self.robot_retries = dec.u64()?;
        self.robot_reassigns = dec.u64()?;
        self.robot_recoveries = dec.u64()?;
        self.telemetry_dropouts = dec.u64()?;
        self.dispatch_msgs_lost = dec.u64()?;
        self.ports_flagged = dec.u64()?;
        self.recovery_queued = dec.u64()?;

        // Twin planner (format v3).
        self.twin_plans.clear();
        for _ in 0..dec.usize()? {
            let id = TicketId(dec.u64()?);
            let action = if dec.bool()? {
                Some(RepairAction::from_ckpt_tag(dec.u8()?)?)
            } else {
                None
            };
            let human = dec.bool()?;
            let defer_until = if dec.bool()? {
                Some(SimTime::from_micros(dec.u64()?))
            } else {
                None
            };
            self.twin_plans.insert(
                id,
                dcmaint_twin::TwinPlan {
                    action,
                    human,
                    defer_until,
                },
            );
        }
        self.twin_planned.clear();
        for _ in 0..dec.usize()? {
            self.twin_planned.insert(TicketId(dec.u64()?));
        }
        self.twin_decisions = dec.u64()?;
        self.twin_forks = dec.u64()?;
        self.twin_committed = dec.u64()?;
        self.twin_pred_avail_sum = dec.f64()?;

        // Observability plane.
        self.journal.restore(dec)?;
        self.registry = ObsRegistry::load(dec)?;
        self.traces = TraceStore::load(dec)?;

        // Autonomic MAPE-K loop (format v4). Presence must match the
        // config: a snapshot taken with the loop on cannot restore into
        // a config with it off (or vice versa) — the event stream and
        // RNG draws would diverge immediately anyway.
        let had_autonomic = dec.bool()?;
        match (had_autonomic, self.autonomic.as_mut()) {
            (true, Some(m)) => m.restore(dec)?,
            (false, None) => {}
            (present, _) => {
                return Err(CkptError::BadTag("autonomic-presence", present as u64));
            }
        }
        // The tuned trigger lives in the Mape; the planner was rebuilt
        // from config above, so re-mirror the restored value into it.
        let trigger = self.autonomic.as_ref().map(|m| m.proactive_trigger());
        if let (Some(t), Some(p)) = (trigger, self.controller.proactive_mut()) {
            p.set_trigger_count(t);
        }
        self.autonomic_rng
            .restore_pos(dec.u64()?, s(|e| &e.autonomic_rng));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopologySpec;
    use crate::engine::run;
    use maintctl::AutomationLevel;

    fn small(seed: u64, level: AutomationLevel, days: u64) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::at_level(seed, level);
        cfg.topology = TopologySpec::LeafSpine {
            spines: 2,
            leaves: 4,
            servers_per_leaf: 2,
        };
        cfg.duration = SimDuration::from_days(days);
        cfg.poll_period = SimDuration::from_secs(120);
        cfg.faults.mtbi_per_link = SimDuration::from_days(15);
        cfg
    }

    #[test]
    fn snapshot_roundtrips_to_identical_state() {
        let cfg = small(7, AutomationLevel::L3, 12);
        let mut eng = Engine::new(cfg.clone());
        eng.run_until(SimTime::ZERO + SimDuration::from_days(6));
        let snap = eng.snapshot();
        let bytes = snap.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
        let restored = Engine::restore(cfg, &back).unwrap();
        assert_eq!(
            restored.snapshot(),
            snap,
            "restore must land in the exact snapshotted state"
        );
        assert_eq!(restored.state_hash(), eng.state_hash());
    }

    #[test]
    fn restore_equals_continuous_summary() {
        for seed in [3, 11] {
            let cfg = small(seed, AutomationLevel::L3, 12);
            let mut full = run(cfg.clone());
            let mut eng = Engine::new(cfg.clone());
            eng.run_until(SimTime::ZERO + SimDuration::from_days(6));
            let snap = eng.snapshot();
            let mut resumed = Engine::restore(cfg, &snap).unwrap();
            while resumed.step_event().is_some() {}
            let mut split = resumed.finish_report();
            assert_eq!(full.summary_json(), split.summary_json(), "seed {seed}");
        }
    }

    #[test]
    fn restore_equals_continuous_with_obs_enabled() {
        let mut cfg = small(5, AutomationLevel::L3, 12);
        cfg.obs.enabled = true;
        let full = run(cfg.clone());
        let mut eng = Engine::new(cfg.clone());
        eng.run_until(SimTime::ZERO + SimDuration::from_days(6));
        let snap = eng.snapshot();
        let mut resumed = Engine::restore(cfg, &snap).unwrap();
        while resumed.step_event().is_some() {}
        let split = resumed.finish_report();
        let (f, s) = (full.obs.as_ref().unwrap(), split.obs.as_ref().unwrap());
        assert_eq!(f.journal, s.journal, "journal must be byte-identical");
        assert_eq!(f.journal_emitted, s.journal_emitted);
        assert_eq!(
            f.registry.snapshot_lines(),
            s.registry.snapshot_lines(),
            "metrics registry must match"
        );
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let cfg = small(1, AutomationLevel::L2, 4);
        let mut eng = Engine::new(cfg.clone());
        eng.run_until(SimTime::ZERO + SimDuration::from_days(2));
        let snap = eng.snapshot();
        let mut other = cfg;
        other.seed = 999;
        assert!(Engine::restore(other, &snap).is_err());
    }

    /// Satellite contract: `fork()` ≡ snapshot + restore, byte-for-byte
    /// — the O(1) stream-adoption shortcut must land in the exact state
    /// the full codec path would, and leave the parent untouched.
    #[test]
    fn fork_is_byte_equivalent_to_the_codec_path() {
        let cfg = small(13, AutomationLevel::L3, 10);
        let mut eng = Engine::new(cfg.clone());
        eng.run_until(SimTime::ZERO + SimDuration::from_days(5));
        let before = eng.snapshot();
        let fork = eng.fork();
        assert_eq!(
            fork.snapshot(),
            before,
            "fork must be byte-equivalent to snapshot+restore"
        );
        assert_eq!(fork.state_hash(), eng.state_hash());
        assert_eq!(
            eng.snapshot(),
            before,
            "forking must not disturb the parent"
        );
        // And the fork *behaves* identically, not just encodes
        // identically: both runs finish byte-equal.
        let restored = Engine::restore(cfg, &before).unwrap();
        let (mut a, mut b, mut c) = (eng, fork, restored);
        while a.step_event().is_some() {}
        while b.step_event().is_some() {}
        while c.step_event().is_some() {}
        let (ha, hb, hc) = (a.state_hash(), b.state_hash(), c.state_hash());
        assert_eq!(ha, hb);
        assert_eq!(ha, hc);
    }

    /// A reseeded branch is a valid engine in the same logical state but
    /// on different noise: state matches everywhere except stream
    /// positions, and it can run to its horizon without issue.
    #[test]
    fn reseeded_fork_runs_and_starts_from_the_same_state() {
        let cfg = small(17, AutomationLevel::L3, 8);
        let mut eng = Engine::new(cfg.clone());
        eng.run_until(SimTime::ZERO + SimDuration::from_days(4));
        let bytes = eng.fork_bytes();
        let root = SimRng::root(cfg.seed).child("twin").child("0");
        let mut branch = Engine::from_fork_bytes_reseeded(cfg, &bytes, &root).unwrap();
        assert_eq!(branch.now(), eng.now());
        // Same branch root twice → byte-identical branches.
        let branch2 = Engine::from_fork_bytes_reseeded(branch.cfg.clone(), &bytes, &root).unwrap();
        assert_eq!(branch.state_hash(), branch2.state_hash());
        branch.run_until(SimTime::ZERO + SimDuration::from_days(6));
        assert!(branch.now() >= SimTime::ZERO + SimDuration::from_days(4));
    }
}
