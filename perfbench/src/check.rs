//! Output checks, each computed apart from the program under test:
//! the seeded payloads, servant-side counts, a plain-Rust mirror of the
//! trader's offer table, and the adaptation property.

use std::collections::{BTreeMap, BTreeSet};

use adapta_idl::Value;

/// A reply must equal the seeded request payload.
///
/// # Errors
///
/// A message naming both values.
pub fn echo(expected: &Value, got: &Value) -> Result<(), String> {
    if expected == got {
        Ok(())
    } else {
        Err(format!(
            "reply {} differs from request {}",
            short(got),
            short(expected)
        ))
    }
}

fn short(v: &Value) -> String {
    match v {
        Value::Bytes(b) => format!("<{} bytes>", b.len()),
        other => format!("{other:?}"),
    }
}

/// What one replica's servant counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServantCounts {
    /// Two-way calls through the bound proxy (or plain proxy).
    pub bound: u64,
    /// Two-way calls through the balanced proxy.
    pub balanced: u64,
    /// Oneways of either proxy.
    pub oneway: u64,
}

/// Servant-side counts must sum exactly to the calls made, and
/// bound-proxy calls must land only on the bound replica.
pub fn servant_counts(
    counts: &[ServantCounts],
    bound_replica: usize,
    sent: ServantCounts,
) -> Vec<String> {
    let mut out = Vec::new();
    let sum = counts
        .iter()
        .fold(ServantCounts::default(), |a, c| ServantCounts {
            bound: a.bound + c.bound,
            balanced: a.balanced + c.balanced,
            oneway: a.oneway + c.oneway,
        });
    if sum != sent {
        out.push(format!("servants counted {sum:?}, callers sent {sent:?}"));
    }
    for (i, c) in counts.iter().enumerate() {
        if i != bound_replica && c.bound > 0 {
            out.push(format!(
                "replica {i} served {} bound-proxy calls; the proxy is bound to replica {bound_replica}",
                c.bound
            ));
        }
    }
    out
}

// ---- trader mirror -------------------------------------------------------

/// Regions, with their share of offers.
pub const REGIONS: [(&str, f64); 4] = [("eu", 0.4), ("us", 0.3), ("asia", 0.2), ("sa", 0.1)];

/// The properties of one offer, as the benchmark generated them.
#[derive(Debug, Clone, PartialEq)]
pub struct Props {
    /// `Cost`: double, uniform in [0, 100).
    pub cost: f64,
    /// `Load`: double, uniform in [0, 10).
    pub load: f64,
    /// `Region`: one of [`REGIONS`].
    pub region: &'static str,
    /// `Tier`: long in 1..=5.
    pub tier: i64,
    /// `Name`: `n` plus the five-digit creation index.
    pub name: String,
    /// `Discount`: optional double in [0, 50).
    pub discount: Option<f64>,
}

impl Props {
    /// The properties as trader values.
    pub fn to_values(&self) -> Vec<(String, Value)> {
        let mut v = vec![
            ("Cost".to_owned(), Value::Double(self.cost)),
            ("Load".to_owned(), Value::Double(self.load)),
            ("Region".to_owned(), Value::from(self.region)),
            ("Tier".to_owned(), Value::Long(self.tier)),
            ("Name".to_owned(), Value::from(self.name.as_str())),
        ];
        if let Some(d) = self.discount {
            v.push(("Discount".to_owned(), Value::Double(d)));
        }
        v
    }
}

/// A query constraint shape with its own native evaluator.
#[derive(Debug, Clone, PartialEq)]
pub enum Shape {
    /// `Cost < c` (broad).
    CostBelow(f64),
    /// `Load <= l or Tier >= t` (broad).
    LoadOrTier(f64, i64),
    /// The empty constraint (broad).
    All,
    /// `Region == 'r' and Cost < c` (selective).
    RegionCost(&'static str, f64),
    /// `Tier == t and Load < l` (selective).
    TierLoad(i64, f64),
    /// `Name ~ 's'` (selective).
    NameHas(String),
    /// `exist Discount and Discount > d` (selective).
    DiscountAbove(f64),
}

impl Shape {
    /// The constraint string sent to the trader.
    pub fn constraint(&self) -> String {
        match self {
            Shape::CostBelow(c) => format!("Cost < {c}"),
            Shape::LoadOrTier(l, t) => format!("Load <= {l} or Tier >= {t}"),
            Shape::All => String::new(),
            Shape::RegionCost(r, c) => format!("Region == '{r}' and Cost < {c}"),
            Shape::TierLoad(t, l) => format!("Tier == {t} and Load < {l}"),
            Shape::NameHas(s) => format!("Name ~ '{s}'"),
            Shape::DiscountAbove(d) => format!("exist Discount and Discount > {d}"),
        }
    }

    /// The benchmark's own evaluation of the constraint.
    pub fn matches(&self, p: &Props) -> bool {
        match self {
            Shape::CostBelow(c) => p.cost < *c,
            Shape::LoadOrTier(l, t) => p.load <= *l || p.tier >= *t,
            Shape::All => true,
            Shape::RegionCost(r, c) => p.region == *r && p.cost < *c,
            Shape::TierLoad(t, l) => p.tier == *t && p.load < *l,
            Shape::NameHas(s) => p.name.contains(s.as_str()),
            Shape::DiscountAbove(d) => p.discount.is_some_and(|x| x > *d),
        }
    }

    /// Whether the shape matches most offers (low selectivity).
    pub fn broad(&self) -> bool {
        matches!(
            self,
            Shape::CostBelow(_) | Shape::LoadOrTier(..) | Shape::All
        )
    }
}

/// An import preference with its own native ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pref {
    /// `first`: registration order.
    First,
    /// `random`: any order.
    Random,
    /// `min Cost`.
    MinCost,
    /// `max Load`.
    MaxLoad,
    /// `with Region == 'eu'`.
    WithEu,
    /// `max Discount`: offers without a discount fail to score and,
    /// per the OMG rules, sort last.
    MaxDiscount,
}

impl Pref {
    /// The preference string sent to the trader.
    pub fn source(self) -> &'static str {
        match self {
            Pref::First => "first",
            Pref::Random => "random",
            Pref::MinCost => "min Cost",
            Pref::MaxLoad => "max Load",
            Pref::WithEu => "with Region == 'eu'",
            Pref::MaxDiscount => "max Discount",
        }
    }
}

/// One import query.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Service type index.
    pub ty: u8,
    /// Constraint shape.
    pub shape: Shape,
    /// Preference.
    pub pref: Pref,
    /// `return_card`.
    pub card: u32,
}

/// The trader's default `search_card`: offers considered per query.
pub const SEARCH_CARD: usize = 1000;

#[derive(Debug, Clone)]
struct MirrorOffer {
    ty: u8,
    props: Props,
}

/// The benchmark's own copy of the offer table, keyed by creation index
/// (which is also registration order).
#[derive(Debug, Clone, Default)]
pub struct Mirror {
    offers: BTreeMap<u32, MirrorOffer>,
}

impl Mirror {
    /// Records an export.
    pub fn export(&mut self, ix: u32, ty: u8, props: Props) {
        self.offers.insert(ix, MirrorOffer { ty, props });
    }

    /// Records a withdraw; returns whether the offer was live.
    pub fn withdraw(&mut self, ix: u32) -> bool {
        self.offers.remove(&ix).is_some()
    }

    /// Records a modify of `Cost` and `Load`.
    pub fn modify(&mut self, ix: u32, cost: f64, load: f64) {
        if let Some(o) = self.offers.get_mut(&ix) {
            o.props.cost = cost;
            o.props.load = load;
        }
    }

    /// Whether offer `ix` is live.
    pub fn is_live(&self, ix: u32) -> bool {
        self.offers.contains_key(&ix)
    }

    /// Offers the trader considers for `q`: the first [`SEARCH_CARD`]
    /// live offers of the type, in registration order.
    pub fn candidates(&self, ty: u8) -> Vec<u32> {
        self.offers
            .iter()
            .filter(|(_, o)| o.ty == ty)
            .take(SEARCH_CARD)
            .map(|(ix, _)| *ix)
            .collect()
    }

    /// Every match of `q` in preference order (ties and `random` in
    /// registration order), before `return_card`.
    pub fn expected(&self, q: &QuerySpec) -> Vec<u32> {
        let mut m: Vec<u32> = self
            .candidates(q.ty)
            .into_iter()
            .filter(|ix| q.shape.matches(&self.offers[ix].props))
            .collect();
        let p = |ix: &u32| &self.offers[ix].props;
        match q.pref {
            Pref::First | Pref::Random => {}
            Pref::MinCost => m.sort_by(|a, b| p(a).cost.total_cmp(&p(b).cost)),
            Pref::MaxLoad => m.sort_by(|a, b| p(b).load.total_cmp(&p(a).load)),
            Pref::WithEu => m.sort_by_key(|ix| p(ix).region != "eu"),
            Pref::MaxDiscount => m.sort_by(|a, b| match (p(a).discount, p(b).discount) {
                (Some(x), Some(y)) => y.total_cmp(&x),
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (None, None) => std::cmp::Ordering::Equal,
            }),
        }
        m
    }

    /// Checks one query answer: every returned offer live, the matches
    /// and their order (set membership for `random`), and `return_card`.
    ///
    /// # Errors
    ///
    /// What differs.
    pub fn check_query(&self, q: &QuerySpec, got: &[u32]) -> Result<(), String> {
        if let Some(dead) = got.iter().find(|ix| !self.is_live(**ix)) {
            return Err(format!("query returned withdrawn offer {dead}"));
        }
        let all = self.expected(q);
        let want = all.len().min(q.card as usize);
        if got.len() != want {
            return Err(format!(
                "`{}` / `{}` card {}: {} offers returned, {want} expected",
                q.shape.constraint(),
                q.pref.source(),
                q.card,
                got.len()
            ));
        }
        if q.pref == Pref::Random {
            let pool: BTreeSet<u32> = all.iter().copied().collect();
            let returned: BTreeSet<u32> = got.iter().copied().collect();
            if returned.len() != got.len() || !returned.is_subset(&pool) {
                return Err(format!(
                    "`{}` random: returned set is not a subset of the matches",
                    q.shape.constraint()
                ));
            }
            return Ok(());
        }
        // Equal preference keys may legitimately come in any order only
        // when the preference cannot tell them apart; the trader's sort
        // is stable, so registration order is the one answer.
        if got != &all[..want] {
            return Err(format!(
                "`{}` / `{}`: order differs at position {}",
                q.shape.constraint(),
                q.pref.source(),
                got.iter().zip(&all).position(|(a, b)| a != b).unwrap_or(0)
            ));
        }
        Ok(())
    }

    /// Checks one standing-query refresh against the previous result
    /// set; returns the new set.
    ///
    /// # Errors
    ///
    /// What differs.
    pub fn check_refresh(
        &self,
        q: &QuerySpec,
        previous: &BTreeSet<u32>,
        added: &[u32],
        kept: &[u32],
        removed: &[u32],
    ) -> Result<BTreeSet<u32>, String> {
        let all = self.expected(q);
        let current: BTreeSet<u32> = all[..all.len().min(q.card as usize)]
            .iter()
            .copied()
            .collect();
        let set = |v: &[u32]| v.iter().copied().collect::<BTreeSet<u32>>();
        let want_added: BTreeSet<u32> = current.difference(previous).copied().collect();
        let want_kept: BTreeSet<u32> = current.intersection(previous).copied().collect();
        let want_removed: BTreeSet<u32> = previous.difference(&current).copied().collect();
        if set(added) != want_added || set(kept) != want_kept || set(removed) != want_removed {
            return Err(format!(
                "refresh of `{}`: added/kept/removed {}/{}/{}, expected {}/{}/{}",
                q.shape.constraint(),
                added.len(),
                kept.len(),
                removed.len(),
                want_added.len(),
                want_kept.len(),
                want_removed.len()
            ));
        }
        Ok(current)
    }
}

// ---- adaptation property --------------------------------------------------

/// One background-load move: from `cycle` on, host `host` is loaded and
/// every other host is idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// First cycle of the new load.
    pub cycle: usize,
    /// The loaded host.
    pub host: u8,
}

/// Checks the load-sharing property over a run's history.
///
/// `bound[c][k]` is the host client `k` was bound to after cycle `c`;
/// `rebinds[c]` the rebinds all clients made in cycle `c`. After each
/// move, no client may stay on the loaded host for more than `grace`
/// cycles (an idle host always exists), and when clients were on that
/// host, at least one rebind must follow within `grace` cycles.
pub fn adaptation(bound: &[Vec<u8>], rebinds: &[u64], moves: &[Move], grace: usize) -> Vec<String> {
    let mut out = Vec::new();
    for (i, mv) in moves.iter().enumerate() {
        let end = moves
            .get(i + 1)
            .map_or(bound.len(), |n| n.cycle)
            .min(bound.len());
        let from = (mv.cycle + grace).min(end);
        let stayed = bound[from..end]
            .iter()
            .enumerate()
            .find_map(|(i, hosts)| Some((from + i, hosts.iter().position(|h| *h == mv.host)?)));
        if let Some((c, k)) = stayed {
            out.push(format!(
                "client {k} still on loaded host {} at cycle {c}, {} cycles after the move",
                mv.host,
                c - mv.cycle
            ));
        }
        let was_there = mv.cycle > 0 && bound[mv.cycle - 1].contains(&mv.host);
        let window = mv.cycle..(mv.cycle + grace).min(end);
        if was_there && end >= mv.cycle + grace && rebinds[window].iter().sum::<u64>() == 0 {
            out.push(format!(
                "no rebind within {grace} cycles of the move to host {} at cycle {}",
                mv.host, mv.cycle
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_rejects_a_wrong_reply() {
        assert!(echo(&Value::Long(7), &Value::Long(7)).is_ok());
        assert!(echo(&Value::Long(7), &Value::Long(8)).is_err());
        assert!(echo(
            &Value::Bytes(vec![1u8, 2].into()),
            &Value::Bytes(vec![1u8, 3].into())
        )
        .is_err());
    }

    #[test]
    fn servant_counts_reject_lost_calls_and_strays() {
        let sent = ServantCounts {
            bound: 3,
            balanced: 4,
            oneway: 2,
        };
        let good = [
            ServantCounts {
                bound: 3,
                balanced: 1,
                oneway: 1,
            },
            ServantCounts {
                bound: 0,
                balanced: 3,
                oneway: 1,
            },
        ];
        assert!(servant_counts(&good, 0, sent).is_empty());
        // A lost oneway.
        let mut lost = good;
        lost[1].oneway = 0;
        assert_eq!(servant_counts(&lost, 0, sent).len(), 1);
        // A bound call served by the wrong replica.
        let mut stray = good;
        stray[0].bound = 2;
        stray[1].bound = 1;
        assert_eq!(servant_counts(&stray, 0, sent).len(), 1);
    }

    fn props(cost: f64, region: &'static str, discount: Option<f64>) -> Props {
        Props {
            cost,
            load: cost / 10.0,
            region,
            tier: 1,
            name: format!("n{:05}", cost as u32),
            discount,
        }
    }

    fn mirror() -> Mirror {
        let mut m = Mirror::default();
        m.export(0, 0, props(30.0, "eu", None));
        m.export(1, 0, props(10.0, "us", Some(5.0)));
        m.export(2, 0, props(20.0, "eu", Some(9.0)));
        m.export(3, 1, props(5.0, "eu", None));
        m
    }

    fn q(shape: Shape, pref: Pref, card: u32) -> QuerySpec {
        QuerySpec {
            ty: 0,
            shape,
            pref,
            card,
        }
    }

    #[test]
    fn query_check_accepts_the_right_answer_only() {
        let m = mirror();
        let min = q(Shape::CostBelow(25.0), Pref::MinCost, 10);
        assert!(m.check_query(&min, &[1, 2]).is_ok());
        // Wrong order, a missing match, an extra match, another type.
        assert!(m.check_query(&min, &[2, 1]).is_err());
        assert!(m.check_query(&min, &[1]).is_err());
        assert!(m.check_query(&min, &[1, 2, 0]).is_err());
        assert!(m.check_query(&min, &[1, 3]).is_err());
        // return_card truncation.
        let first = q(Shape::All, Pref::First, 2);
        assert!(m.check_query(&first, &[0, 1]).is_ok());
        assert!(m.check_query(&first, &[0, 1, 2]).is_err());
        assert!(m.check_query(&first, &[1, 0]).is_err());
        // `with` puts eu first, stable.
        let with = q(Shape::All, Pref::WithEu, 10);
        assert!(m.check_query(&with, &[0, 2, 1]).is_ok());
        assert!(m.check_query(&with, &[0, 1, 2]).is_err());
        // `max` with failures last.
        let max = q(Shape::All, Pref::MaxDiscount, 10);
        assert!(m.check_query(&max, &[2, 1, 0]).is_ok());
        assert!(m.check_query(&max, &[0, 2, 1]).is_err());
        // `random`: any subset of the right size.
        let random = q(Shape::All, Pref::Random, 2);
        assert!(m.check_query(&random, &[2, 0]).is_ok());
        assert!(m.check_query(&random, &[2, 2]).is_err());
        assert!(m.check_query(&random, &[2, 3]).is_err());
        assert!(m.check_query(&random, &[2]).is_err());
    }

    #[test]
    fn query_check_rejects_a_withdrawn_offer() {
        let mut m = mirror();
        let all = q(Shape::All, Pref::First, 10);
        m.withdraw(1);
        assert!(m.check_query(&all, &[0, 2]).is_ok());
        let err = m.check_query(&all, &[0, 1, 2]).unwrap_err();
        assert!(err.contains("withdrawn"), "{err}");
    }

    #[test]
    fn refresh_check_rejects_a_wrong_delta() {
        let mut m = mirror();
        let cheap = q(Shape::CostBelow(25.0), Pref::MinCost, 10);
        let first = m
            .check_refresh(&cheap, &BTreeSet::new(), &[1, 2], &[], &[])
            .unwrap();
        m.modify(2, 90.0, 1.0);
        assert!(m.check_refresh(&cheap, &first, &[], &[1], &[2]).is_ok());
        assert!(m.check_refresh(&cheap, &first, &[], &[1, 2], &[]).is_err());
        assert!(m.check_refresh(&cheap, &first, &[2], &[1], &[]).is_err());
    }

    #[test]
    fn adaptation_check_rejects_a_client_that_stays() {
        let moves = [Move { cycle: 2, host: 0 }];
        // Two clients; client 0 sits on host 0 when it is loaded at
        // cycle 2 and leaves at cycle 4.
        let bound = vec![
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
            vec![0, 1],
            vec![2, 1],
            vec![2, 1],
            vec![2, 1],
        ];
        let rebinds = [0, 0, 0, 0, 1, 0, 0];
        assert!(adaptation(&bound, &rebinds, &moves, 3).is_empty());
        // With a grace of 1 cycle the client stayed too long, and its
        // rebind came too late.
        assert_eq!(adaptation(&bound, &rebinds, &moves, 1).len(), 2);
        // Never leaving, and never rebinding.
        let stuck: Vec<Vec<u8>> = (0..7).map(|_| vec![0, 1]).collect();
        assert_eq!(adaptation(&stuck, &[0; 7], &moves, 3).len(), 2);
    }
}
