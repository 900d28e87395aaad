//! Differential test of the per-link ticket history: on random boards,
//! `TicketBoard::recent_actions` (which reads one link's tickets through
//! the board's per-link index) must equal a full scan of every ticket
//! the board holds, both live and after a save → load round trip (which
//! rebuilds the index from the decoded tickets).

use dcmaint_ckpt::{Dec, Enc};
use dcmaint_dcnet::LinkId;
use dcmaint_des::{SimDuration, SimTime};
use dcmaint_faults::RepairAction;
use dcmaint_tickets::{AttemptRecord, Priority, TicketBoard, TicketTrigger};
use proptest::prelude::*;

const LINKS: u32 = 6;

const TRIGGERS: [TicketTrigger; 5] = [
    TicketTrigger::LinkDown,
    TicketTrigger::Flapping,
    TicketTrigger::GrayLoss,
    TicketTrigger::Proactive,
    TicketTrigger::Predictive,
];

/// The escalation memory as a scan over the whole board, in creation
/// order: the reference the indexed lookup must reproduce.
fn full_scan(
    b: &TicketBoard,
    link: LinkId,
    now: SimTime,
    window: SimDuration,
) -> Vec<RepairAction> {
    let reactive = || {
        b.all()
            .iter()
            .filter(move |t| t.link == link && t.trigger.is_reactive())
    };
    let mut last_fix: Option<SimTime> = None;
    for a in reactive().flat_map(|t| &t.attempts) {
        if a.fixed && last_fix.is_none_or(|f| a.finished > f) {
            last_fix = Some(a.finished);
        }
    }
    reactive()
        .flat_map(|t| &t.attempts)
        .filter(|a| last_fix.is_none_or(|f| a.finished >= f) && now.since(a.finished) <= window)
        .map(|a| a.action)
        .collect()
}

fn round_trip(b: &TicketBoard) -> TicketBoard {
    let mut enc = Enc::new();
    b.save(&mut enc);
    let bytes = enc.into_bytes();
    let loaded = TicketBoard::load(&mut Dec::new(&bytes)).expect("board decodes");
    let mut again = Enc::new();
    loaded.save(&mut again);
    assert_eq!(again.into_bytes(), bytes, "load → save is byte-identical");
    loaded
}

fn check(b: &TicketBoard, now: SimTime) -> Result<(), TestCaseError> {
    for w in [60, 3_600, 86_400, u64::MAX / 2_000_000] {
        let window = SimDuration::from_secs(w);
        for l in 0..LINKS {
            let link = LinkId(l);
            prop_assert_eq!(
                b.recent_actions(link, now, window),
                full_scan(b, link, now, window),
                "link {} window {}s",
                l,
                w
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn indexed_history_matches_full_scan(
        ops in prop::collection::vec((0u8..4, 0u32..LINKS, 0u64..1_000_000), 1..160)
    ) {
        let mut b = TicketBoard::new();
        let mut t = 0u64;
        for (step, &(op, l, v)) in ops.iter().enumerate() {
            t += v % 5_000;
            let now = SimTime::from_micros(t * 1_000_000);
            let link = LinkId(l);
            match op {
                0 => {
                    let trigger = TRIGGERS[v as usize % TRIGGERS.len()];
                    b.open(link, trigger, Priority::from_trigger(trigger, 0.5), now);
                }
                1 | 2 => {
                    if let Some(id) = b.open_on(link) {
                        let start = t.saturating_sub(v % 900);
                        b.record_attempt(
                            id,
                            AttemptRecord {
                                action: RepairAction::LADDER[v as usize % RepairAction::LADDER.len()],
                                started: SimTime::from_micros(start * 1_000_000),
                                finished: now,
                                fixed: v % 3 == 0,
                                robotic: v % 2 == 0,
                            },
                        );
                    }
                }
                _ => {
                    if let Some(id) = b.open_on(link) {
                        b.close(id, now, v % 4 == 0);
                    }
                }
            }
            if step % 16 == 0 {
                b = round_trip(&b);
            }
            check(&b, now)?;
        }
        let end = SimTime::from_micros((t + 7_200) * 1_000_000);
        check(&b, end)?;
        check(&round_trip(&b), end)?;
    }
}
