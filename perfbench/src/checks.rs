//! Output checks on a replay's records, and the records digest that pins one
//! replay against every other replay of the same trace.

use prefillonly::{RequestRecord, RoutingReason, RunReport};

/// FNV-1a offset basis: the state [`fnv1a`] starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn reason_code(reason: RoutingReason) -> u64 {
    match reason {
        RoutingReason::Direct => 0,
        RoutingReason::StickyNew => 1,
        RoutingReason::StickyExisting => 2,
        RoutingReason::LeastLoaded => 3,
        RoutingReason::DeepestPrefix => 4,
        RoutingReason::LoadFallback => 5,
    }
}

fn record_words(r: &RequestRecord) -> [u64; 16] {
    [
        r.request_id,
        r.user_id,
        r.instance as u64,
        r.decode_instance.map_or(u64::MAX, |slot| slot as u64),
        reason_code(r.routing),
        r.arrival.as_micros(),
        r.started.as_micros(),
        r.first_token.as_micros(),
        r.completed.as_micros(),
        r.total_tokens,
        r.decode_tokens,
        r.cached_tokens,
        r.reloaded_tokens,
        r.net_reloaded_tokens,
        r.net_propagated_tokens,
        r.handoff_bytes,
    ]
}

/// FNV-1a over every field of every record, in report order.
pub fn digest(report: &RunReport) -> u64 {
    report
        .records
        .iter()
        .flat_map(record_words)
        .fold(FNV_OFFSET, |h, word| fnv1a(h, &word.to_le_bytes()))
}

/// Checks one replay's output.  `pulled` is how many arrivals the replay took
/// from its stream and `exhausted` whether the stream had none left.
pub fn check(
    report: &RunReport,
    requests: u64,
    pulled: Option<u64>,
    exhausted: bool,
    disaggregated: bool,
) -> Result<(), String> {
    if !exhausted {
        return Err("the replay returned before its stream was exhausted".into());
    }
    if let Some(pulled) = pulled {
        if pulled != requests {
            return Err(format!("pulled {pulled} arrivals of {requests}"));
        }
    }
    if report.records.len() as u64 != requests {
        return Err(format!(
            "{} records for {requests} arrivals",
            report.records.len()
        ));
    }
    let mut seen = vec![false; requests as usize];
    for r in &report.records {
        match seen.get_mut(r.request_id as usize) {
            Some(slot) if !*slot => *slot = true,
            _ => return Err(format!("request id {} repeated or unknown", r.request_id)),
        }
        if !(r.arrival <= r.started && r.started <= r.first_token && r.first_token <= r.completed) {
            return Err(format!("request {} has unordered timestamps", r.request_id));
        }
        if disaggregated && r.decode_instance.is_none() {
            return Err(format!("request {} was never handed off", r.request_id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvcache::{CacheStats, OffloadStats};
    use simcore::{SimDuration, SimTime};

    fn record(id: u64) -> RequestRecord {
        let arrival = SimTime::from_millis(id);
        RequestRecord {
            request_id: id,
            user_id: id,
            instance: 0,
            decode_instance: Some(1),
            routing: RoutingReason::StickyNew,
            arrival,
            started: arrival + SimDuration::from_millis(1),
            first_token: arrival + SimDuration::from_millis(2),
            completed: arrival + SimDuration::from_millis(3),
            total_tokens: 64,
            decode_tokens: 0,
            cached_tokens: 0,
            reloaded_tokens: 0,
            net_reloaded_tokens: 0,
            net_propagated_tokens: 0,
            handoff_bytes: 0,
        }
    }

    fn report(records: Vec<RequestRecord>) -> RunReport {
        RunReport {
            engine: String::new(),
            offered_qps: 1.0,
            records,
            makespan: SimDuration::ZERO,
            cache: CacheStats::default(),
            offload: OffloadStats::default(),
            windows: Vec::new(),
        }
    }

    #[test]
    fn accepts_a_complete_ordered_replay() {
        let good = report((0..3).map(record).collect());
        assert_eq!(check(&good, 3, Some(3), true, true), Ok(()));
        assert_eq!(check(&good, 3, None, true, false), Ok(()));
    }

    #[test]
    fn rejects_each_broken_output() {
        let good: Vec<RequestRecord> = (0..3).map(record).collect();
        let broken = |edit: &dyn Fn(&mut Vec<RequestRecord>)| {
            let mut records = good.clone();
            edit(&mut records);
            report(records)
        };
        let dropped = broken(&|r| {
            r.pop();
        });
        let repeated = broken(&|r| r[1] = r[0]);
        let unordered =
            broken(&|r| r[1].first_token = r[1].completed + SimDuration::from_millis(1));
        let colocated = broken(&|r| r[2].decode_instance = None);
        assert!(check(&dropped, 3, Some(3), true, false).is_err());
        assert!(check(&repeated, 3, Some(3), true, false).is_err());
        assert!(check(&unordered, 3, Some(3), true, false).is_err());
        assert!(check(&colocated, 3, Some(3), true, true).is_err());
        assert_eq!(check(&colocated, 3, Some(3), true, false), Ok(()));
        assert!(check(&report(good.clone()), 3, Some(2), true, false).is_err());
        assert!(check(&report(good.clone()), 3, Some(3), false, false).is_err());
        assert_ne!(digest(&report(good)), digest(&colocated));
    }
}
