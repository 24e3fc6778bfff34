//! Serialization of IGEPA instances.
//!
//! Instances can be exported to (and re-imported from) a self-contained JSON
//! document. The format stores exactly the information of Definition 8 —
//! events, users with bids, the conflict pairs, the interest values of the
//! bid pairs, the per-user interaction scores and β — and re-import goes
//! through [`InstanceBuilder`](crate::InstanceBuilder), so a tampered or hand-written file is
//! subjected to the same validation as programmatic construction.
//!
//! This is what an EBSN platform would use to snapshot a concrete
//! arrangement problem, and what the experiment harness uses to archive the
//! exact workloads behind a published table.

use crate::arrangement::Arrangement;
use crate::attrs::AttributeVector;
use crate::conflict::PairSetConflict;
use crate::error::CoreError;
use crate::ids::{EventId, UserId};
use crate::instance::Instance;
use crate::interest::TableInterest;
use serde::{Deserialize, Serialize};

/// Self-contained, validated-on-load snapshot of an [`Instance`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceSnapshot {
    /// Format version, for forward compatibility.
    pub version: u32,
    /// Balance parameter β.
    pub beta: f64,
    /// Per-event capacity and attributes, in event-id order.
    pub events: Vec<EventRecord>,
    /// Per-user capacity, attributes and bids, in user-id order.
    pub users: Vec<UserRecord>,
    /// Unordered conflicting event pairs.
    pub conflicts: Vec<(u32, u32)>,
    /// Interest values of the bid pairs: `(event, user, SI)`.
    pub interests: Vec<(u32, u32, f64)>,
    /// Degree of potential interaction per user, in user-id order.
    pub interaction: Vec<f64>,
}

/// Serialized event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Capacity `c_v`.
    pub capacity: usize,
    /// Attribute vector `l_v`.
    pub attrs: AttributeVector,
}

/// Serialized user.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserRecord {
    /// Capacity `c_u`.
    pub capacity: usize,
    /// Attribute vector `l_u`.
    pub attrs: AttributeVector,
    /// Bid set `N_u` as event indices.
    pub bids: Vec<u32>,
}

/// Errors raised while loading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// The JSON text could not be parsed.
    Parse(serde_json::Error),
    /// The decoded snapshot violates a model invariant.
    Invalid(CoreError),
    /// The snapshot version is not supported.
    UnsupportedVersion(u32),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Parse(e) => write!(f, "cannot parse instance snapshot: {e}"),
            SnapshotError::Invalid(e) => write!(f, "invalid instance snapshot: {e}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

impl InstanceSnapshot {
    /// Captures a snapshot of an instance.
    pub fn capture(instance: &Instance) -> Self {
        let events = instance
            .events()
            .iter()
            .map(|e| EventRecord {
                capacity: e.capacity,
                attrs: e.attrs.clone(),
            })
            .collect();
        let users = instance
            .users()
            .iter()
            .map(|u| UserRecord {
                capacity: u.capacity,
                attrs: u.attrs.clone(),
                bids: u.bids.iter().map(|v| v.0).collect(),
            })
            .collect();
        let mut conflicts = Vec::new();
        for i in 0..instance.num_events() {
            for j in (i + 1)..instance.num_events() {
                if instance
                    .conflicts()
                    .conflicts(EventId::new(i), EventId::new(j))
                {
                    conflicts.push((i as u32, j as u32));
                }
            }
        }
        let mut interests = Vec::new();
        for user in instance.users() {
            for &v in &user.bids {
                interests.push((v.0, user.id.0, instance.interest(v, user.id)));
            }
        }
        let interaction = (0..instance.num_users())
            .map(|i| instance.interaction(UserId::new(i)))
            .collect();
        InstanceSnapshot {
            version: SNAPSHOT_VERSION,
            beta: instance.beta(),
            events,
            users,
            conflicts,
            interests,
            interaction,
        }
    }

    /// Rebuilds a validated instance from the snapshot.
    pub fn restore(&self) -> Result<Instance, SnapshotError> {
        if self.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(self.version));
        }
        let mut builder = Instance::builder();
        builder.beta(self.beta);
        for event in &self.events {
            builder.add_event(event.capacity, event.attrs.clone());
        }
        for user in &self.users {
            let bids = user.bids.iter().map(|&v| EventId(v)).collect();
            builder.add_user(user.capacity, user.attrs.clone(), bids);
        }
        builder.interaction_scores(self.interaction.clone());

        let mut sigma = PairSetConflict::new();
        for &(a, b) in &self.conflicts {
            sigma.add(EventId(a), EventId(b));
        }
        let mut interest = TableInterest::zeros(self.events.len(), self.users.len());
        for &(v, u, si) in &self.interests {
            if (v as usize) < self.events.len() && (u as usize) < self.users.len() {
                interest.set(EventId(v), UserId(u), si);
            }
        }
        builder
            .build(&sigma, &interest)
            .map_err(SnapshotError::Invalid)
    }

    /// Serializes the snapshot to pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("snapshot serialization cannot fail")
    }

    /// Parses a snapshot from JSON.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        serde_json::from_str(text).map_err(SnapshotError::Parse)
    }
}

/// Convenience: `instance → JSON`.
pub fn instance_to_json(instance: &Instance) -> String {
    InstanceSnapshot::capture(instance).to_json()
}

/// Convenience: `JSON → validated instance`.
pub fn instance_from_json(text: &str) -> Result<Instance, SnapshotError> {
    InstanceSnapshot::from_json(text)?.restore()
}

/// Serialized arrangement: the list of `(event, user)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArrangementSnapshot {
    /// Pairs of the arrangement.
    pub pairs: Vec<(u32, u32)>,
}

impl ArrangementSnapshot {
    /// Captures an arrangement.
    pub fn capture(arrangement: &Arrangement) -> Self {
        ArrangementSnapshot {
            pairs: arrangement.pairs().map(|(v, u)| (v.0, u.0)).collect(),
        }
    }

    /// Restores the arrangement against a given instance (pairs referencing
    /// unknown events/users are rejected).
    pub fn restore(&self, instance: &Instance) -> Result<Arrangement, SnapshotError> {
        let mut arrangement = Arrangement::empty_for(instance);
        for &(v, u) in &self.pairs {
            if v as usize >= instance.num_events() {
                return Err(SnapshotError::Invalid(CoreError::NonDenseEventIds {
                    position: v as usize,
                    found: EventId(v),
                }));
            }
            if u as usize >= instance.num_users() {
                return Err(SnapshotError::Invalid(CoreError::NonDenseUserIds {
                    position: u as usize,
                    found: UserId(u),
                }));
            }
            arrangement.assign(EventId(v), UserId(u));
        }
        Ok(arrangement)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conflict::PairSetConflict;
    use crate::interest::ConstantInterest;

    fn sample_instance() -> Instance {
        let mut b = Instance::builder();
        let v0 = b.add_event(
            2,
            AttributeVector::from_time(0, 90).with_categories(vec![1.0, 0.0]),
        );
        let v1 = b.add_event(1, AttributeVector::from_time(60, 90));
        b.add_user(
            2,
            AttributeVector::from_categories(vec![0.5, 0.5]),
            vec![v0, v1],
        );
        b.add_user(1, AttributeVector::empty(), vec![v0]);
        b.interaction_scores(vec![0.25, 0.75]);
        b.beta(0.3);
        let mut sigma = PairSetConflict::new();
        sigma.add(v0, v1);
        b.build(&sigma, &ConstantInterest(0.6)).unwrap()
    }

    #[test]
    fn snapshot_roundtrip_preserves_the_model() {
        let original = sample_instance();
        let json = instance_to_json(&original);
        let restored = instance_from_json(&json).unwrap();
        assert_eq!(restored.num_events(), original.num_events());
        assert_eq!(restored.num_users(), original.num_users());
        assert_eq!(restored.beta(), original.beta());
        assert_eq!(restored.num_bids(), original.num_bids());
        for user in original.users() {
            assert_eq!(restored.user(user.id).bids, user.bids);
            assert_eq!(restored.user(user.id).capacity, user.capacity);
            assert!((restored.interaction(user.id) - original.interaction(user.id)).abs() < 1e-12);
            for &v in &user.bids {
                assert!(
                    (restored.interest(v, user.id) - original.interest(v, user.id)).abs() < 1e-12
                );
            }
        }
        for i in 0..original.num_events() {
            for j in 0..original.num_events() {
                assert_eq!(
                    restored
                        .conflicts()
                        .conflicts(EventId::new(i), EventId::new(j)),
                    original
                        .conflicts()
                        .conflicts(EventId::new(i), EventId::new(j))
                );
            }
        }
    }

    #[test]
    fn corrupted_interaction_scores_are_rejected_on_load() {
        let mut snapshot = InstanceSnapshot::capture(&sample_instance());
        snapshot.interaction[0] = 2.5;
        let err = snapshot.restore().unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Invalid(CoreError::InteractionOutOfRange { .. })
        ));
    }

    #[test]
    fn corrupted_bids_are_rejected_on_load() {
        let mut snapshot = InstanceSnapshot::capture(&sample_instance());
        snapshot.users[0].bids.push(99);
        let err = snapshot.restore().unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::Invalid(CoreError::UnknownEventInBid { .. })
        ));
    }

    #[test]
    fn unsupported_versions_are_rejected() {
        let mut snapshot = InstanceSnapshot::capture(&sample_instance());
        snapshot.version = 99;
        assert!(matches!(
            snapshot.restore().unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        ));
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let err = instance_from_json("{not json").unwrap_err();
        assert!(matches!(err, SnapshotError::Parse(_)));
        assert!(err.to_string().contains("parse"));
    }

    #[test]
    fn arrangement_snapshot_roundtrip() {
        let instance = sample_instance();
        let mut m = Arrangement::empty_for(&instance);
        m.assign(EventId::new(0), UserId::new(0));
        m.assign(EventId::new(0), UserId::new(1));
        let snap = ArrangementSnapshot::capture(&m);
        let json = serde_json::to_string(&snap).unwrap();
        let back: ArrangementSnapshot = serde_json::from_str(&json).unwrap();
        let restored = back.restore(&instance).unwrap();
        assert_eq!(restored, m);
    }

    #[test]
    fn arrangement_snapshot_rejects_unknown_entities() {
        let instance = sample_instance();
        let snap = ArrangementSnapshot {
            pairs: vec![(9, 0)],
        };
        assert!(snap.restore(&instance).is_err());
        let snap = ArrangementSnapshot {
            pairs: vec![(0, 9)],
        };
        assert!(snap.restore(&instance).is_err());
    }
}
