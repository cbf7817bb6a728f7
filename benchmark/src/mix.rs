//! The seeded query mix of `store_mixed` and route mix of `fleet_api`.
//!
//! A mix is a pure function of `--seed` and the store's domain (classes,
//! node range, time window), drawn up front; the timed loop cycles the
//! list, so which operations run never depends on how fast they ran.

use hpc_diagnosis::query::{self, HistBucket, HistKey, QueryFilter};
use hpc_diagnosis::segment::{OpenError, Store};
use hpc_diagnosis::{Diagnosis, EventClass, EventStore};
use hpc_logs::time::{SimDuration, SimTime};
use hpc_platform::system::SchedulerKind;
use hpc_platform::NodeId;

use crate::inputs::{STREAM_QUERIES, STREAM_ROUTES};
use crate::rng::Rng;

/// Queries in one pass of the `store_mixed` list.
pub const QUERY_LIST: usize = 1200;
/// Requests in one pass of the `fleet_api` list.
pub const ROUTE_LIST: usize = 3000;
/// Rows a tail query keeps.
pub const TAIL_ROWS: usize = 20;

/// What a mix may ask about: taken from the diagnosis the store holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Domain {
    /// Classes with at least one event, in `EventClass` order.
    pub classes: Vec<EventClass>,
    /// Node ids are drawn from `0..nodes`.
    pub nodes: u32,
    pub from: SimTime,
    pub to: SimTime,
}

impl Domain {
    pub fn of(d: &Diagnosis) -> Domain {
        let mut classes: Vec<EventClass> = hpc_diagnosis::segment::class_counts(d.events())
            .into_keys()
            .collect();
        classes.sort_unstable_by_key(|c| *c as u8);
        let nodes = d
            .events()
            .iter()
            .filter_map(|e| e.subject_node())
            .map(|n| n.0 + 1)
            .max()
            .unwrap_or(1);
        let (from, to) = d.window();
        Domain {
            classes,
            nodes,
            from,
            to,
        }
    }

    /// A window of `len` starting uniformly inside the domain.
    fn window(&self, rng: &mut Rng, len: SimDuration) -> (SimTime, SimTime) {
        let span = self.to.since(self.from).as_millis();
        let latest = span.saturating_sub(len.as_millis()).max(1);
        let start = SimTime::from_millis(self.from.as_millis() + rng.below(latest));
        (start, start + len)
    }

    fn class(&self, rng: &mut Rng) -> EventClass {
        self.classes[rng.below(self.classes.len() as u64) as usize]
    }

    fn node(&self, rng: &mut Rng) -> NodeId {
        NodeId(rng.below(self.nodes as u64) as u32)
    }
}

/// Planner query kinds, in `catalogue::QUERY_KINDS` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryKind {
    /// One class, no window: answered from the manifest.
    CountClass,
    /// 24 h window, no entity: time columns only.
    CountWindow,
    /// One node in a 3-day window: full decode, residual predicate.
    CountNodeWindow,
    /// One class bucketed by day: that class's segments decoded.
    HistClassDay,
    /// Last 20 events of one node: every segment decoded.
    TailNode,
    /// Last 20 events of a 24 h window.
    TailWindow,
}

impl QueryKind {
    pub const ALL: [QueryKind; 6] = [
        QueryKind::CountClass,
        QueryKind::CountWindow,
        QueryKind::CountNodeWindow,
        QueryKind::HistClassDay,
        QueryKind::TailNode,
        QueryKind::TailWindow,
    ];
    /// Shares of the mix, in percent, in `ALL` order.
    pub const WEIGHTS: [u32; 6] = [30, 25, 15, 10, 10, 10];

    pub fn key(self) -> &'static str {
        crate::catalogue::QUERY_KINDS[self as usize]
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    pub kind: QueryKind,
    pub filter: QueryFilter,
}

/// One query's answer, comparable between the planner and the in-memory
/// reference verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    Count(u64),
    Histogram(Vec<HistBucket>),
    Tail(Vec<(SimTime, EventClass, String)>),
}

impl Answer {
    /// Rows the query handed back (1 for a count).
    pub fn rows(&self) -> u64 {
        match self {
            Answer::Count(_) => 1,
            Answer::Histogram(b) => b.len() as u64,
            Answer::Tail(r) => r.len() as u64,
        }
    }
}

impl Query {
    pub fn draw(kind: QueryKind, domain: &Domain, rng: &mut Rng) -> Query {
        let mut filter = QueryFilter::default();
        let day = SimDuration::from_hours(24);
        match kind {
            QueryKind::CountClass | QueryKind::HistClassDay => {
                filter.classes = vec![domain.class(rng)];
            }
            QueryKind::CountWindow | QueryKind::TailWindow => {
                let (from, to) = domain.window(rng, day);
                (filter.from, filter.to) = (Some(from), Some(to));
            }
            QueryKind::CountNodeWindow => {
                let (from, to) = domain.window(rng, SimDuration::from_days(3));
                (filter.from, filter.to) = (Some(from), Some(to));
                filter.node = Some(domain.node(rng));
            }
            QueryKind::TailNode => filter.node = Some(domain.node(rng)),
        }
        Query { kind, filter }
    }

    /// Through the lazy planner over an open (undecoded) store: the path
    /// `hpc-query` and fleetd's `/query` take.
    pub fn run(&self, store: &Store, scheduler: SchedulerKind) -> Result<Answer, OpenError> {
        let plan = query::plan(store, &self.filter);
        Ok(match self.kind {
            QueryKind::CountClass | QueryKind::CountWindow | QueryKind::CountNodeWindow => {
                Answer::Count(plan.count()?)
            }
            QueryKind::HistClassDay => Answer::Histogram(plan.histogram(HistKey::Day)?),
            QueryKind::TailNode | QueryKind::TailWindow => {
                Answer::Tail(plan.tail(TAIL_ROWS, scheduler)?)
            }
        })
    }

    /// The same question asked of the in-memory `EventStore` verbs.
    pub fn reference(&self, store: &EventStore, scheduler: SchedulerKind) -> Answer {
        match self.kind {
            QueryKind::CountClass | QueryKind::CountWindow | QueryKind::CountNodeWindow => {
                Answer::Count(query::count(store, &self.filter))
            }
            QueryKind::HistClassDay => {
                Answer::Histogram(query::histogram(store, &self.filter, HistKey::Day))
            }
            QueryKind::TailNode | QueryKind::TailWindow => {
                Answer::Tail(query::tail(store, &self.filter, TAIL_ROWS, scheduler))
            }
        }
    }
}

/// The `store_mixed` list for `seed`.
pub fn query_mix(seed: u64, domain: &Domain, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, STREAM_QUERIES);
    (0..n)
        .map(|_| {
            let kind = QueryKind::ALL[rng.weighted(&QueryKind::WEIGHTS)];
            Query::draw(kind, domain, &mut rng)
        })
        .collect()
}

/// fleetd routes, in `catalogue::ROUTES` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Route {
    Report,
    Window,
    Alerts,
    Failures,
    QueryCountWindow,
    QueryTailNode,
    Metrics,
    Systems,
}

impl Route {
    pub const ALL: [Route; 8] = [
        Route::Report,
        Route::Window,
        Route::Alerts,
        Route::Failures,
        Route::QueryCountWindow,
        Route::QueryTailNode,
        Route::Metrics,
        Route::Systems,
    ];
    /// Shares of the mix, in percent, in `ALL` order.
    pub const WEIGHTS: [u32; 8] = [20, 10, 20, 15, 15, 10, 5, 5];

    pub fn key(self) -> &'static str {
        crate::catalogue::ROUTES[self as usize]
    }
}

/// Name the benchmark's one system is served under.
pub const SYSTEM: &str = "S1";

#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub route: Route,
    /// Request target, path and query string.
    pub target: String,
}

impl Request {
    pub fn draw(route: Route, domain: &Domain, rng: &mut Rng) -> Request {
        let base = format!("/v1/systems/{SYSTEM}");
        let target = match route {
            Route::Report => format!("{base}/report"),
            Route::Window => format!("{base}/window"),
            Route::Alerts => format!("{base}/alerts"),
            Route::Failures => format!("{base}/failures"),
            Route::QueryCountWindow => {
                let (from, to) = domain.window(rng, SimDuration::from_hours(24));
                format!(
                    "{base}/query?verb=count&from={}&to={}",
                    from.as_millis(),
                    to.as_millis()
                )
            }
            Route::QueryTailNode => {
                format!(
                    "{base}/query?verb=tail&n={TAIL_ROWS}&node={}",
                    domain.node(rng).0
                )
            }
            Route::Metrics => "/metrics".to_string(),
            Route::Systems => "/v1/systems".to_string(),
        };
        Request { route, target }
    }

    /// The bytes a client puts on the wire.
    pub fn wire(&self) -> Vec<u8> {
        format!("GET {} HTTP/1.1\r\nHost: sysbench\r\n\r\n", self.target).into_bytes()
    }
}

/// The `fleet_api` list for `seed`.
pub fn route_mix(seed: u64, domain: &Domain, n: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed, STREAM_ROUTES);
    (0..n)
        .map(|_| {
            let route = Route::ALL[rng.weighted(&Route::WEIGHTS)];
            Request::draw(route, domain, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Domain {
        Domain {
            classes: vec![
                EventClass::Mce,
                EventClass::KernelPanic,
                EventClass::JobStart,
            ],
            nodes: 384,
            from: SimTime::from_millis(1_000),
            to: SimTime::from_millis(14 * 86_400_000),
        }
    }

    #[test]
    fn same_seed_gives_the_identical_lists() {
        let d = domain();
        assert_eq!(query_mix(42, &d, 500), query_mix(42, &d, 500));
        assert_eq!(route_mix(42, &d, 500), route_mix(42, &d, 500));
    }

    #[test]
    fn another_seed_gives_another_list() {
        let d = domain();
        assert_ne!(query_mix(42, &d, 500), query_mix(43, &d, 500));
        assert_ne!(route_mix(42, &d, 500), route_mix(43, &d, 500));
    }

    #[test]
    fn a_longer_list_extends_the_shorter_one() {
        let d = domain();
        let long = query_mix(9, &d, 300);
        assert_eq!(query_mix(9, &d, 100)[..], long[..100]);
    }

    #[test]
    fn mix_shares_follow_the_weights() {
        let d = domain();
        let list = query_mix(1, &d, 12_000);
        for (kind, weight) in QueryKind::ALL.into_iter().zip(QueryKind::WEIGHTS) {
            let share = list.iter().filter(|q| q.kind == kind).count() as f64 / 120.0;
            assert!((share - weight as f64).abs() < 2.0, "{kind:?}: {share}%");
        }
        let routes = route_mix(1, &d, 12_000);
        for (route, weight) in Route::ALL.into_iter().zip(Route::WEIGHTS) {
            let share = routes.iter().filter(|r| r.route == route).count() as f64 / 120.0;
            assert!((share - weight as f64).abs() < 2.0, "{route:?}: {share}%");
        }
    }

    #[test]
    fn windows_stay_inside_the_domain_and_requests_parse() {
        let d = domain();
        for q in query_mix(5, &d, 2_000) {
            if let (Some(from), Some(to)) = (q.filter.from, q.filter.to) {
                assert!(from >= d.from && from < to, "{q:?}");
            }
            if let Some(n) = q.filter.node {
                assert!(n.0 < d.nodes);
            }
        }
        for r in route_mix(5, &d, 2_000) {
            match hpc_fleet::http::parse_request(&r.wire()) {
                hpc_fleet::http::Parse::Complete(req, used) => {
                    assert_eq!(used, r.wire().len());
                    assert!(r.target.starts_with(&req.path));
                }
                other => panic!("{}: {other:?}", r.target),
            }
        }
    }
}
