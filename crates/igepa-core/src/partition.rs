//! User partitioning for sharded serving, plus boundary-conflict
//! extraction.
//!
//! A sharded arrangement engine splits the user population across N
//! independent shards, each running its own repair loop over a slice of
//! the instance. Which constraints cross shard boundaries depends only on
//! how users are placed:
//!
//! * bid, user-capacity and conflict constraints are **per user** — they
//!   never cross a shard boundary;
//! * event capacities are **shared** — an event whose bidders live in more
//!   than one shard (a *boundary event*) couples the shards, and the
//!   conflict-matrix edges between such events are the cross-shard
//!   structure a reconciler has to resolve.
//!
//! This module defines the pluggable [`Partitioner`] policy together with
//! two strategies:
//!
//! * [`HashPartitioner`] — stateless multiplicative hash of the user id.
//!   Perfectly balanced in expectation, oblivious to structure; every
//!   popular event becomes a boundary event.
//! * [`LocalityPartitioner`] — conflict-graph locality: events are grouped
//!   into connected components of the conflict graph, components are
//!   packed onto shards balancing bidder mass, and users follow the
//!   majority shard of their bid set. On community-structured workloads
//!   (conflicts concentrated inside communities) this keeps most events'
//!   bidders inside one shard, shrinking the boundary the reconciler has
//!   to work on.
//!
//! [`boundary_events`] and [`PartitionCut`] quantify the quality of an
//! assignment: how many events span shards and how many conflict edges
//! cross the boundary.

use crate::ids::{EventId, UserId};
use crate::instance::Instance;

/// Policy placing users onto `num_shards` shards.
///
/// Implementations must be deterministic: the same `(user, bids,
/// num_shards)` always maps to the same shard, so a replayed request log
/// reproduces the same placement. The serving coordinator consults the
/// partitioner when a user first appears and the placement then sticks
/// until a live resharding pass re-consults it (with the new shard
/// count) for every user at once — individual users never migrate
/// between passes.
pub trait Partitioner {
    /// Shard index in `0..num_shards` for a user with the given bid set.
    fn shard_for(&self, user: UserId, bids: &[EventId], num_shards: usize) -> usize;

    /// Short, stable policy name (for reports and logs).
    fn name(&self) -> &'static str {
        "partitioner"
    }
}

/// Stateless hash partitioning: `fxhash(user) mod num_shards`.
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn shard_for(&self, user: UserId, _bids: &[EventId], num_shards: usize) -> usize {
        if num_shards <= 1 {
            return 0;
        }
        // Fibonacci hashing: odd multiplier spreads dense ids uniformly.
        let h = (user.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % num_shards as u64) as usize
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Conflict-graph-locality partitioning.
///
/// Built once from a snapshot of the instance: the conflict graph over
/// events is split into connected components, components are assigned to
/// shards greedily (heaviest bidder mass first, onto the lightest shard),
/// and every event carries its component's shard label. A user is placed
/// on the shard holding the plurality of their bids; ties break toward
/// the smallest shard index and users without bids fall back to the hash
/// policy. Events created after the snapshot (by `AddEvent` deltas) are
/// labelled round-robin by id, which matches generators that deal new
/// events out to communities cyclically.
#[derive(Debug, Clone)]
pub struct LocalityPartitioner {
    /// Shard label of every event known at construction time.
    event_shards: Vec<usize>,
    num_shards: usize,
}

impl LocalityPartitioner {
    /// Builds the event→shard labelling from `instance`'s conflict matrix.
    pub fn from_instance(instance: &Instance, num_shards: usize) -> Self {
        let n = instance.num_events();
        let shards = num_shards.max(1);

        // Connected components of the conflict graph (iterative DFS).
        let mut component = vec![usize::MAX; n];
        let mut num_components = 0usize;
        for start in 0..n {
            if component[start] != usize::MAX {
                continue;
            }
            let id = num_components;
            num_components += 1;
            let mut stack = vec![start];
            component[start] = id;
            while let Some(i) = stack.pop() {
                for j in 0..n {
                    if component[j] == usize::MAX
                        && instance
                            .conflicts()
                            .conflicts(EventId::new(i), EventId::new(j))
                    {
                        component[j] = id;
                        stack.push(j);
                    }
                }
            }
        }

        // Bidder mass per component, then largest-first onto lightest shard.
        let mut mass = vec![0usize; num_components];
        for event in instance.events() {
            // Count every event at least once so empty events still spread.
            mass[component[event.id.index()]] += event.num_bidders() + 1;
        }
        let mut order: Vec<usize> = (0..num_components).collect();
        order.sort_by_key(|&c| (std::cmp::Reverse(mass[c]), c));
        let mut shard_mass = vec![0usize; shards];
        let mut component_shard = vec![0usize; num_components];
        for c in order {
            let lightest = (0..shards).min_by_key(|&k| (shard_mass[k], k)).unwrap();
            component_shard[c] = lightest;
            shard_mass[lightest] += mass[c];
        }

        LocalityPartitioner {
            event_shards: component.into_iter().map(|c| component_shard[c]).collect(),
            num_shards: shards,
        }
    }

    /// Shard label of an event (round-robin fallback past the snapshot).
    pub fn event_shard(&self, event: EventId) -> usize {
        self.event_shards
            .get(event.index())
            .copied()
            .unwrap_or(event.index() % self.num_shards)
    }
}

impl Partitioner for LocalityPartitioner {
    fn shard_for(&self, user: UserId, bids: &[EventId], num_shards: usize) -> usize {
        if num_shards <= 1 {
            return 0;
        }
        if bids.is_empty() {
            return HashPartitioner.shard_for(user, bids, num_shards);
        }
        let mut votes = vec![0usize; num_shards];
        for &v in bids {
            votes[self.event_shard(v) % num_shards] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(k, &count)| (count, std::cmp::Reverse(k)))
            .map(|(k, _)| k)
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "locality"
    }
}

/// Whether an event's bidders span more than one shard under the given
/// user→shard lookup — the single definition of "boundary event" shared
/// by the partition metrics and the cross-shard reconciler.
pub fn spans_shards(event: &crate::event::Event, shard_of: impl Fn(UserId) -> usize) -> bool {
    let mut seen: Option<usize> = None;
    event.bidders.iter().any(|&u| {
        let shard = shard_of(u);
        match seen {
            Some(s) => s != shard,
            None => {
                seen = Some(shard);
                false
            }
        }
    })
}

/// Events whose bidders span more than one shard under `assignment`
/// (`assignment[u]` is the shard of user `u`), in increasing id order.
///
/// These are exactly the events whose capacity couples shards: everything
/// a cross-shard reconciler needs to look at.
pub fn boundary_events(instance: &Instance, assignment: &[usize]) -> Vec<EventId> {
    instance
        .events()
        .iter()
        .filter(|event| spans_shards(event, |u| assignment[u.index()]))
        .map(|event| event.id)
        .collect()
}

/// Cut metrics of a user→shard assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PartitionCut {
    /// Events whose bidders span more than one shard.
    pub boundary_events: usize,
    /// Unordered conflict-matrix edges with at least one boundary endpoint.
    pub cross_conflict_edges: usize,
    /// Total events with at least one bidder.
    pub active_events: usize,
}

impl PartitionCut {
    /// Computes the cut metrics for `assignment` over `instance`.
    pub fn measure(instance: &Instance, assignment: &[usize]) -> Self {
        let boundary = boundary_events(instance, assignment);
        let is_boundary: Vec<bool> = {
            let mut flags = vec![false; instance.num_events()];
            for &v in &boundary {
                flags[v.index()] = true;
            }
            flags
        };
        let n = instance.num_events();
        let mut cross = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                if (is_boundary[i] || is_boundary[j])
                    && instance
                        .conflicts()
                        .conflicts(EventId::new(i), EventId::new(j))
                {
                    cross += 1;
                }
            }
        }
        PartitionCut {
            boundary_events: boundary.len(),
            cross_conflict_edges: cross,
            active_events: instance
                .events()
                .iter()
                .filter(|e| e.num_bidders() > 0)
                .count(),
        }
    }
}

/// Assigns every current user of `instance` with `partitioner`, returning
/// the per-user shard vector consumed by [`boundary_events`] and the
/// sharded engine's constructor.
pub fn assign_users(
    instance: &Instance,
    partitioner: &dyn Partitioner,
    num_shards: usize,
) -> Vec<usize> {
    let last = num_shards.saturating_sub(1);
    instance
        .users()
        .iter()
        // Clamp contract-violating partitioners to the last shard — the
        // same defence the serving coordinator applies to late arrivals,
        // so both paths behave identically.
        .map(|u| partitioner.shard_for(u.id, &u.bids, num_shards).min(last))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttributeVector;
    use crate::conflict::PairSetConflict;
    use crate::interest::ConstantInterest;

    /// Two conflict components {0,1} and {2,3}; users bid inside one
    /// component each.
    fn two_component_instance() -> Instance {
        let mut b = Instance::builder();
        let v: Vec<EventId> = (0..4)
            .map(|_| b.add_event(2, AttributeVector::empty()))
            .collect();
        for _ in 0..3 {
            b.add_user(1, AttributeVector::empty(), vec![v[0], v[1]]);
        }
        for _ in 0..3 {
            b.add_user(1, AttributeVector::empty(), vec![v[2], v[3]]);
        }
        b.interaction_scores(vec![0.5; 6]);
        let mut sigma = PairSetConflict::new();
        sigma.add(v[0], v[1]);
        sigma.add(v[2], v[3]);
        b.build(&sigma, &ConstantInterest(0.5)).unwrap()
    }

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        for u in 0..100 {
            let a = HashPartitioner.shard_for(UserId::new(u), &[], 4);
            let b = HashPartitioner.shard_for(UserId::new(u), &[], 4);
            assert_eq!(a, b);
            assert!(a < 4);
        }
        assert_eq!(HashPartitioner.shard_for(UserId::new(7), &[], 1), 0);
    }

    #[test]
    fn hash_partitioner_spreads_users() {
        let mut counts = [0usize; 4];
        for u in 0..400 {
            counts[HashPartitioner.shard_for(UserId::new(u), &[], 4)] += 1;
        }
        for &c in &counts {
            assert!(c > 40, "shard badly under-filled: {counts:?}");
        }
    }

    #[test]
    fn locality_partitioner_separates_conflict_components() {
        let inst = two_component_instance();
        let p = LocalityPartitioner::from_instance(&inst, 2);
        // The two components must land on different shards (equal mass).
        assert_ne!(
            p.event_shard(EventId::new(0)),
            p.event_shard(EventId::new(2))
        );
        assert_eq!(
            p.event_shard(EventId::new(0)),
            p.event_shard(EventId::new(1))
        );
        // Users follow their bids, so no event is a boundary event.
        let assignment = assign_users(&inst, &p, 2);
        assert!(boundary_events(&inst, &assignment).is_empty());
        let cut = PartitionCut::measure(&inst, &assignment);
        assert_eq!(cut.boundary_events, 0);
        assert_eq!(cut.cross_conflict_edges, 0);
        assert_eq!(cut.active_events, 4);
    }

    #[test]
    fn hash_assignment_creates_boundary_events_locality_avoids() {
        let inst = two_component_instance();
        let hash_cut = PartitionCut::measure(&inst, &assign_users(&inst, &HashPartitioner, 2));
        let p = LocalityPartitioner::from_instance(&inst, 2);
        let locality_cut = PartitionCut::measure(&inst, &assign_users(&inst, &p, 2));
        assert!(locality_cut.boundary_events <= hash_cut.boundary_events);
    }

    #[test]
    fn locality_partitioner_handles_unseen_events_and_empty_bids() {
        let inst = two_component_instance();
        let p = LocalityPartitioner::from_instance(&inst, 2);
        // Unknown event falls back to round-robin by id.
        assert_eq!(p.event_shard(EventId::new(10)), 0);
        assert_eq!(p.event_shard(EventId::new(11)), 1);
        // Empty bid set falls back to the hash policy.
        let s = p.shard_for(UserId::new(9), &[], 2);
        assert_eq!(s, HashPartitioner.shard_for(UserId::new(9), &[], 2));
    }

    #[test]
    fn majority_vote_breaks_ties_toward_smaller_shard() {
        let inst = two_component_instance();
        let p = LocalityPartitioner::from_instance(&inst, 2);
        let shard0_event = (0..4)
            .map(EventId::new)
            .find(|&v| p.event_shard(v) == 0)
            .unwrap();
        let shard1_event = (0..4)
            .map(EventId::new)
            .find(|&v| p.event_shard(v) == 1)
            .unwrap();
        let s = p.shard_for(UserId::new(0), &[shard0_event, shard1_event], 2);
        assert_eq!(s, 0, "one vote each must resolve to shard 0");
    }

    #[test]
    fn single_shard_everything_maps_to_zero() {
        let inst = two_component_instance();
        let p = LocalityPartitioner::from_instance(&inst, 1);
        let assignment = assign_users(&inst, &p, 1);
        assert!(assignment.iter().all(|&s| s == 0));
        assert!(boundary_events(&inst, &assignment).is_empty());
    }
}
