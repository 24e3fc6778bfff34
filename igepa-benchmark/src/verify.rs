//! Correctness checks of what the server served, against the benchmark's
//! own mirror of the instance.

use igepa_core::{Arrangement, EventId, Instance, UserId};

/// A `MergedSnapshot` answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Events the snapshot was sized for.
    pub num_events: usize,
    /// Users the snapshot was sized for.
    pub num_users: usize,
    /// The utility the server reported with the snapshot: the exact
    /// merged sum of the shards' trackers.
    pub utility: f64,
    /// The served pairs.
    pub pairs: Vec<(EventId, UserId)>,
}

/// Checks a served snapshot against the mirror: the pairs, rebuilt with
/// `Arrangement::from_pairs`, must be feasible, and their utility
/// recomputed on the mirror must equal the snapshot's utility bit for
/// bit. `Utility.total` is the shard totals added in shard order (the
/// serial backend's arithmetic), so it must agree to within rounding.
pub fn check_snapshot(
    mirror: &Instance,
    snapshot: &Snapshot,
    served_total: f64,
) -> Result<(), String> {
    if (snapshot.num_events, snapshot.num_users) != (mirror.num_events(), mirror.num_users()) {
        return Err(format!(
            "snapshot sized {} events x {} users, mirror has {} x {}",
            snapshot.num_events,
            snapshot.num_users,
            mirror.num_events(),
            mirror.num_users()
        ));
    }
    if let Some((v, u)) = snapshot
        .pairs
        .iter()
        .find(|(v, u)| v.index() >= mirror.num_events() || u.index() >= mirror.num_users())
    {
        return Err(format!("snapshot pair ({v:?}, {u:?}) is out of range"));
    }
    let arrangement = Arrangement::from_pairs(
        mirror.num_events(),
        mirror.num_users(),
        snapshot.pairs.iter().copied(),
    );
    if arrangement.len() != snapshot.pairs.len() {
        return Err("snapshot repeats a pair".to_string());
    }
    let violations = arrangement.violations(mirror);
    if let Some(first) = violations.first() {
        return Err(format!(
            "snapshot is infeasible on the mirror: {} violation(s), first {first:?}",
            violations.len()
        ));
    }
    let recomputed = arrangement.utility_value(mirror);
    if recomputed.to_bits() != snapshot.utility.to_bits() {
        return Err(format!(
            "snapshot utility recomputed on the mirror is {recomputed:?}, the snapshot says {:?}",
            snapshot.utility
        ));
    }
    if (served_total - recomputed).abs() > 4.0 * f64::EPSILON * recomputed.abs() {
        return Err(format!(
            "Utility answered {served_total:?}, the snapshot's pairs are worth {recomputed:?}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::base_dataset;
    use igepa_algos::{ArrangementAlgorithm, GreedyArrangement};

    fn solved() -> (Instance, Snapshot, f64) {
        let instance = base_dataset(0.1, 3).instance;
        let arrangement = GreedyArrangement.run_seeded(&instance, 3);
        let utility = arrangement.utility_value(&instance);
        let snapshot = Snapshot {
            num_events: instance.num_events(),
            num_users: instance.num_users(),
            utility,
            pairs: arrangement.pairs().collect(),
        };
        (instance, snapshot, utility)
    }

    #[test]
    fn an_honest_snapshot_passes() {
        let (instance, snapshot, utility) = solved();
        assert!(!snapshot.pairs.is_empty());
        check_snapshot(&instance, &snapshot, utility).unwrap();
    }

    #[test]
    fn one_infeasible_pair_is_rejected() {
        let (instance, mut snapshot, utility) = solved();
        let (user, event) = instance
            .users()
            .iter()
            .find_map(|user| {
                (0..instance.num_events())
                    .map(EventId::new)
                    .find(|&v| !user.has_bid(v))
                    .map(|v| (user.id, v))
            })
            .expect("some user did not bid some event");
        snapshot.pairs.push((event, user));
        assert!(check_snapshot(&instance, &snapshot, utility).is_err());
    }

    #[test]
    fn one_flipped_utility_bit_is_rejected() {
        let (instance, mut snapshot, utility) = solved();
        snapshot.utility = f64::from_bits(utility.to_bits() ^ 1);
        let err = check_snapshot(&instance, &snapshot, utility).unwrap_err();
        assert!(err.contains("recomputed"), "{err}");
    }

    #[test]
    fn a_utility_answer_off_by_more_than_rounding_is_rejected() {
        let (instance, snapshot, utility) = solved();
        check_snapshot(&instance, &snapshot, f64::from_bits(utility.to_bits() + 1)).unwrap();
        assert!(check_snapshot(&instance, &snapshot, utility * (1.0 + 1e-9)).is_err());
    }
}
