//! Plain-text (sectioned CSV) import/export of instances and arrangements.
//!
//! The JSON snapshots in [`crate::io`] are the canonical archival format;
//! this module adds a flat, spreadsheet-friendly representation that is
//! handy for inspecting workloads behind a published table and for feeding
//! external plotting tools. The format is a single text file with `[section]`
//! headers, one CSV table per section:
//!
//! ```text
//! [meta]
//! key,value
//! beta,0.5
//!
//! [events]
//! id,capacity,start,duration,x,y,categories
//! 0,50,540,90,1.5,2.0,0.2|0.8
//!
//! [users]
//! id,capacity,categories,bids
//! 0,4,0.1|0.9,0|3|7
//!
//! [conflicts]
//! a,b
//!
//! [interests]
//! event,user,si
//!
//! [interaction]
//! user,score
//! ```
//!
//! Empty optional fields (no time window, no location) are left blank.
//! Loading re-validates every model invariant through [`InstanceBuilder`](crate::InstanceBuilder).

use crate::arrangement::Arrangement;
use crate::attrs::AttributeVector;
use crate::conflict::PairSetConflict;
use crate::error::CoreError;
use crate::ids::{EventId, UserId};
use crate::instance::Instance;
use crate::interest::TableInterest;

/// Errors raised while parsing the sectioned-CSV format.
#[derive(Debug)]
pub enum CsvError {
    /// A line could not be interpreted in its section.
    Malformed {
        /// 1-based line number in the input text.
        line: usize,
        /// Explanation of what was expected.
        message: String,
    },
    /// A required section was missing entirely.
    MissingSection(&'static str),
    /// The decoded data violates a model invariant.
    Invalid(CoreError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::Malformed { line, message } => {
                write!(f, "line {line}: {message}")
            }
            CsvError::MissingSection(name) => write!(f, "missing [{name}] section"),
            CsvError::Invalid(e) => write!(f, "invalid instance data: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

fn fmt_opt(value: Option<f64>) -> String {
    value.map(|v| format!("{v}")).unwrap_or_default()
}

fn fmt_opt_i64(value: Option<i64>) -> String {
    value.map(|v| format!("{v}")).unwrap_or_default()
}

fn join_pipe<T: std::fmt::Display>(values: impl IntoIterator<Item = T>) -> String {
    values
        .into_iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("|")
}

/// Serializes an instance to the sectioned-CSV text format.
pub fn instance_to_csv(instance: &Instance) -> String {
    let mut out = String::new();
    out.push_str("[meta]\nkey,value\n");
    out.push_str(&format!("beta,{}\n", instance.beta()));
    out.push_str(&format!("num_events,{}\n", instance.num_events()));
    out.push_str(&format!("num_users,{}\n", instance.num_users()));

    out.push_str("\n[events]\nid,capacity,start,duration,x,y,categories\n");
    for event in instance.events() {
        let (start, duration) = match &event.attrs.time {
            Some(t) => (Some(t.start), Some(t.duration)),
            None => (None, None),
        };
        let (x, y) = match &event.attrs.location {
            Some(l) => (Some(l.x), Some(l.y)),
            None => (None, None),
        };
        out.push_str(&format!(
            "{},{},{},{},{},{},{}\n",
            event.id.index(),
            event.capacity,
            fmt_opt_i64(start),
            fmt_opt_i64(duration),
            fmt_opt(x),
            fmt_opt(y),
            join_pipe(event.attrs.categories.iter()),
        ));
    }

    out.push_str("\n[users]\nid,capacity,categories,bids\n");
    for user in instance.users() {
        out.push_str(&format!(
            "{},{},{},{}\n",
            user.id.index(),
            user.capacity,
            join_pipe(user.attrs.categories.iter()),
            join_pipe(user.bids.iter().map(|v| v.index())),
        ));
    }

    out.push_str("\n[conflicts]\na,b\n");
    for i in 0..instance.num_events() {
        for j in (i + 1)..instance.num_events() {
            if instance
                .conflicts()
                .conflicts(EventId::new(i), EventId::new(j))
            {
                out.push_str(&format!("{i},{j}\n"));
            }
        }
    }

    out.push_str("\n[interests]\nevent,user,si\n");
    for user in instance.users() {
        for &v in &user.bids {
            out.push_str(&format!(
                "{},{},{}\n",
                v.index(),
                user.id.index(),
                instance.interest(v, user.id)
            ));
        }
    }

    out.push_str("\n[interaction]\nuser,score\n");
    for i in 0..instance.num_users() {
        out.push_str(&format!("{i},{}\n", instance.interaction(UserId::new(i))));
    }
    out
}

/// Internal accumulator while parsing the sectioned text.
#[derive(Default)]
struct ParsedSections {
    beta: Option<f64>,
    events: Vec<(usize, usize, AttributeVector)>,
    users: Vec<(usize, usize, AttributeVector, Vec<EventId>)>,
    conflicts: Vec<(EventId, EventId)>,
    interests: Vec<(EventId, UserId, f64)>,
    interaction: Vec<(usize, f64)>,
}

fn malformed(line: usize, message: impl Into<String>) -> CsvError {
    CsvError::Malformed {
        line,
        message: message.into(),
    }
}

fn parse_field<T: std::str::FromStr>(field: &str, line: usize, what: &str) -> Result<T, CsvError> {
    field
        .trim()
        .parse::<T>()
        .map_err(|_| malformed(line, format!("cannot parse {what} from {field:?}")))
}

fn parse_opt_field<T: std::str::FromStr>(
    field: &str,
    line: usize,
    what: &str,
) -> Result<Option<T>, CsvError> {
    let trimmed = field.trim();
    if trimmed.is_empty() {
        Ok(None)
    } else {
        parse_field(trimmed, line, what).map(Some)
    }
}

fn parse_pipe_list<T: std::str::FromStr>(
    field: &str,
    line: usize,
    what: &str,
) -> Result<Vec<T>, CsvError> {
    let trimmed = field.trim();
    if trimmed.is_empty() {
        return Ok(Vec::new());
    }
    trimmed
        .split('|')
        .map(|part| parse_field(part, line, what))
        .collect()
}

/// Parses an instance from the sectioned-CSV text format and re-validates it.
pub fn instance_from_csv(text: &str) -> Result<Instance, CsvError> {
    let mut sections = ParsedSections::default();
    let mut current: Option<&'static str> = None;
    let mut seen_events = false;
    let mut seen_users = false;
    let mut header_pending = false;

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            current = match &line[1..line.len() - 1] {
                "meta" => Some("meta"),
                "events" => {
                    seen_events = true;
                    Some("events")
                }
                "users" => {
                    seen_users = true;
                    Some("users")
                }
                "conflicts" => Some("conflicts"),
                "interests" => Some("interests"),
                "interaction" => Some("interaction"),
                other => {
                    return Err(malformed(line_no, format!("unknown section [{other}]")));
                }
            };
            header_pending = true;
            continue;
        }
        if header_pending {
            // The first non-empty line after a section marker is the header row.
            header_pending = false;
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        match current {
            Some("meta") => {
                if fields.len() != 2 {
                    return Err(malformed(line_no, "meta rows must be key,value"));
                }
                if fields[0].trim() == "beta" {
                    sections.beta = Some(parse_field(fields[1], line_no, "beta")?);
                }
            }
            Some("events") => {
                if fields.len() != 7 {
                    return Err(malformed(line_no, "event rows need 7 fields"));
                }
                let id: usize = parse_field(fields[0], line_no, "event id")?;
                let capacity: usize = parse_field(fields[1], line_no, "event capacity")?;
                let start: Option<i64> = parse_opt_field(fields[2], line_no, "start")?;
                let duration: Option<i64> = parse_opt_field(fields[3], line_no, "duration")?;
                let x: Option<f64> = parse_opt_field(fields[4], line_no, "x")?;
                let y: Option<f64> = parse_opt_field(fields[5], line_no, "y")?;
                let categories: Vec<f64> = parse_pipe_list(fields[6], line_no, "category weight")?;
                let mut attrs = AttributeVector::from_categories(categories);
                if let (Some(s), Some(d)) = (start, duration) {
                    attrs = attrs.with_time(s, d);
                }
                if let (Some(px), Some(py)) = (x, y) {
                    attrs = attrs.with_location(px, py);
                }
                sections.events.push((id, capacity, attrs));
            }
            Some("users") => {
                if fields.len() != 4 {
                    return Err(malformed(line_no, "user rows need 4 fields"));
                }
                let id: usize = parse_field(fields[0], line_no, "user id")?;
                let capacity: usize = parse_field(fields[1], line_no, "user capacity")?;
                let categories: Vec<f64> = parse_pipe_list(fields[2], line_no, "category weight")?;
                let bids: Vec<usize> = parse_pipe_list(fields[3], line_no, "bid event id")?;
                sections.users.push((
                    id,
                    capacity,
                    AttributeVector::from_categories(categories),
                    bids.into_iter().map(EventId::new).collect(),
                ));
            }
            Some("conflicts") => {
                if fields.len() != 2 {
                    return Err(malformed(line_no, "conflict rows must be a,b"));
                }
                let a: usize = parse_field(fields[0], line_no, "event id")?;
                let b: usize = parse_field(fields[1], line_no, "event id")?;
                sections.conflicts.push((EventId::new(a), EventId::new(b)));
            }
            Some("interests") => {
                if fields.len() != 3 {
                    return Err(malformed(line_no, "interest rows must be event,user,si"));
                }
                let v: usize = parse_field(fields[0], line_no, "event id")?;
                let u: usize = parse_field(fields[1], line_no, "user id")?;
                let si: f64 = parse_field(fields[2], line_no, "interest")?;
                sections
                    .interests
                    .push((EventId::new(v), UserId::new(u), si));
            }
            Some("interaction") => {
                if fields.len() != 2 {
                    return Err(malformed(line_no, "interaction rows must be user,score"));
                }
                let u: usize = parse_field(fields[0], line_no, "user id")?;
                let score: f64 = parse_field(fields[1], line_no, "interaction score")?;
                sections.interaction.push((u, score));
            }
            Some(_) | None => {
                return Err(malformed(line_no, "data row before any [section] marker"));
            }
        }
    }

    if !seen_events {
        return Err(CsvError::MissingSection("events"));
    }
    if !seen_users {
        return Err(CsvError::MissingSection("users"));
    }

    // Rows may appear in any order; sort by declared id and require the ids
    // to be exactly 0..n so the positional builder reproduces them.
    sections.events.sort_by_key(|(id, _, _)| *id);
    sections.users.sort_by_key(|(id, _, _, _)| *id);
    for (expect, (id, _, _)) in sections.events.iter().enumerate() {
        if *id != expect {
            return Err(malformed(
                0,
                format!("event ids must be contiguous from 0; missing id {expect}"),
            ));
        }
    }
    for (expect, (id, _, _, _)) in sections.users.iter().enumerate() {
        if *id != expect {
            return Err(malformed(
                0,
                format!("user ids must be contiguous from 0; missing id {expect}"),
            ));
        }
    }

    let num_events = sections.events.len();
    let num_users = sections.users.len();
    let mut builder = Instance::builder();
    if let Some(beta) = sections.beta {
        builder.beta(beta);
    }
    for (_, capacity, attrs) in &sections.events {
        builder.add_event(*capacity, attrs.clone());
    }
    for (_, capacity, attrs, bids) in &sections.users {
        builder.add_user(*capacity, attrs.clone(), bids.clone());
    }
    let mut interaction = vec![0.0; num_users];
    for (u, score) in &sections.interaction {
        if *u < num_users {
            interaction[*u] = *score;
        }
    }
    builder.interaction_scores(interaction);

    let mut sigma = PairSetConflict::new();
    for (a, b) in &sections.conflicts {
        sigma.add(*a, *b);
    }
    let mut interest = TableInterest::zeros(num_events, num_users);
    for (v, u, si) in &sections.interests {
        if v.index() < num_events && u.index() < num_users {
            interest.set(*v, *u, *si);
        }
    }
    builder.build(&sigma, &interest).map_err(CsvError::Invalid)
}

/// Serializes an arrangement as a two-column CSV (`event,user`).
pub fn arrangement_to_csv(arrangement: &Arrangement) -> String {
    let mut out = String::from("event,user\n");
    for (v, u) in arrangement.pairs() {
        out.push_str(&format!("{},{}\n", v.index(), u.index()));
    }
    out
}

/// Parses an arrangement from the two-column CSV produced by
/// [`arrangement_to_csv`] and checks it against the instance dimensions.
pub fn arrangement_from_csv(text: &str, instance: &Instance) -> Result<Arrangement, CsvError> {
    let mut arrangement = Arrangement::empty_for(instance);
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') || line == "event,user" {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 2 {
            return Err(malformed(line_no, "arrangement rows must be event,user"));
        }
        let v: usize = parse_field(fields[0], line_no, "event id")?;
        let u: usize = parse_field(fields[1], line_no, "user id")?;
        if v >= instance.num_events() || u >= instance.num_users() {
            return Err(malformed(
                line_no,
                format!("pair ({v}, {u}) is outside the instance dimensions"),
            ));
        }
        arrangement.assign(EventId::new(v), UserId::new(u));
    }
    Ok(arrangement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interest::ConstantInterest;

    fn sample_instance() -> Instance {
        let mut b = Instance::builder();
        let v0 = b.add_event(
            2,
            AttributeVector::empty()
                .with_time(540, 90)
                .with_location(1.5, 2.0)
                .with_categories(vec![0.2, 0.8]),
        );
        let v1 = b.add_event(1, AttributeVector::empty().with_time(600, 60));
        let v2 = b.add_event(3, AttributeVector::empty());
        b.add_user(
            2,
            AttributeVector::empty().with_categories(vec![0.1, 0.9]),
            vec![v0, v1],
        );
        b.add_user(1, AttributeVector::empty(), vec![v2]);
        b.add_user(1, AttributeVector::empty(), vec![v0, v2]);
        b.beta(0.7);
        b.interaction_scores(vec![0.5, 0.0, 1.0]);
        let mut sigma = PairSetConflict::new();
        sigma.add(v0, v1);
        b.build(&sigma, &ConstantInterest(0.4)).unwrap()
    }

    #[test]
    fn instance_round_trips_through_csv() {
        let original = sample_instance();
        let text = instance_to_csv(&original);
        let restored = instance_from_csv(&text).unwrap();

        assert_eq!(restored.num_events(), original.num_events());
        assert_eq!(restored.num_users(), original.num_users());
        assert!((restored.beta() - original.beta()).abs() < 1e-12);
        for i in 0..original.num_events() {
            let a = original.event(EventId::new(i));
            let b = restored.event(EventId::new(i));
            assert_eq!(a.capacity, b.capacity);
            assert_eq!(a.attrs.time, b.attrs.time);
        }
        for i in 0..original.num_users() {
            let a = original.user(UserId::new(i));
            let b = restored.user(UserId::new(i));
            assert_eq!(a.capacity, b.capacity);
            assert_eq!(a.bids, b.bids);
            assert!(
                (original.interaction(UserId::new(i)) - restored.interaction(UserId::new(i))).abs()
                    < 1e-12
            );
        }
        // Conflicts and interests survive.
        assert_eq!(
            original.conflicts().num_conflicting_pairs(),
            restored.conflicts().num_conflicting_pairs()
        );
        for (v, u) in original.bid_pairs() {
            assert!((original.interest(v, u) - restored.interest(v, u)).abs() < 1e-12);
        }
    }

    #[test]
    fn csv_text_has_all_sections() {
        let text = instance_to_csv(&sample_instance());
        for section in [
            "[meta]",
            "[events]",
            "[users]",
            "[conflicts]",
            "[interests]",
            "[interaction]",
        ] {
            assert!(text.contains(section), "missing {section}");
        }
    }

    #[test]
    fn missing_sections_are_reported() {
        let err = instance_from_csv("[meta]\nkey,value\nbeta,0.5\n").unwrap_err();
        assert!(matches!(err, CsvError::MissingSection("events")));
        let err =
            instance_from_csv("[events]\nid,capacity,start,duration,x,y,categories\n0,1,,,,,\n")
                .unwrap_err();
        assert!(matches!(err, CsvError::MissingSection("users")));
    }

    #[test]
    fn malformed_rows_point_at_the_line() {
        let text = "[events]\nid,capacity,start,duration,x,y,categories\nnot-a-number,1,,,,,\n";
        match instance_from_csv(text).unwrap_err() {
            CsvError::Malformed { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn unknown_sections_are_rejected() {
        let err = instance_from_csv("[wat]\nx\n").unwrap_err();
        assert!(matches!(err, CsvError::Malformed { line: 1, .. }));
    }

    #[test]
    fn non_contiguous_ids_are_rejected() {
        let text = "\
[events]
id,capacity,start,duration,x,y,categories
0,1,,,,,
2,1,,,,,
[users]
id,capacity,categories,bids
0,1,,0
";
        let err = instance_from_csv(text).unwrap_err();
        assert!(matches!(err, CsvError::Malformed { .. }));
    }

    #[test]
    fn arrangement_round_trips_through_csv() {
        let instance = sample_instance();
        let mut m = Arrangement::empty_for(&instance);
        m.assign(EventId::new(0), UserId::new(0));
        m.assign(EventId::new(2), UserId::new(1));
        let text = arrangement_to_csv(&m);
        let restored = arrangement_from_csv(&text, &instance).unwrap();
        assert_eq!(restored, m);
    }

    #[test]
    fn arrangement_rows_outside_instance_are_rejected() {
        let instance = sample_instance();
        let err = arrangement_from_csv("event,user\n99,0\n", &instance).unwrap_err();
        assert!(matches!(err, CsvError::Malformed { line: 2, .. }));
    }

    #[test]
    fn error_display_is_informative() {
        let err = malformed(7, "boom");
        assert!(err.to_string().contains("line 7"));
        assert!(CsvError::MissingSection("users")
            .to_string()
            .contains("users"));
    }
}
