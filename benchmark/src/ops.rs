//! The four workloads' statements and their seeded op streams.
//!
//! A stream is a sequence of *decks*.  A deck holds every statement of the
//! workload exactly as often as its share says (the TPC-C "deck of cards"),
//! and spreads each statement's occurrences evenly over the deck from a
//! seeded phase, so any stretch of the stream has the specified mix to
//! within one op per statement: the difference between two seeds is the keys
//! and the interleaving, never how many heavy statements happened to be
//! drawn, and a time-boxed run that stops mid-deck has still run the mix.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use relational::Value;
use sql::{parse_statement, Statement};
use tpcw::zipf::Zipf;
use tpcw::{join_queries, write_statements, JoinQuery, TpcwDataset, TpcwScale, WriteStatement};

/// Key skew of every workload (the Noria "significant skew" regime).
const ZIPF_S: f64 = 1.1;

/// Latency class of a statement; per-class metrics are keyed by [`Class::name`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    Point,
    List,
    Heavy,
    Insert,
    Update,
    Delete,
}

impl Class {
    pub const ALL: [Class; 6] = [
        Class::Point,
        Class::List,
        Class::Heavy,
        Class::Insert,
        Class::Update,
        Class::Delete,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Point => "point",
            Class::List => "list",
            Class::Heavy => "heavy",
            Class::Insert => "insert",
            Class::Update => "update",
            Class::Delete => "delete",
        }
    }

    pub fn is_read(self) -> bool {
        matches!(self, Class::Point | Class::List | Class::Heavy)
    }
}

/// The entry point an op goes through.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Via {
    /// SQL text through `SynergySystem::execute_sql`.
    Sql,
    /// A pre-parsed statement through `SynergySystem::execute`.
    Statement,
    /// The view-free join algorithm, `system.executor().execute`.
    Join,
    /// The join algorithm on an executor cloned `with_threads(2)`.
    JoinPar2,
}

/// How a statement's parameters are drawn.
enum Keys {
    /// `JoinQuery::params(scale, zipf rank)`.
    Query(JoinQuery),
    /// `WriteStatement::params(scale, zipf rank)`: an existing, skewed target.
    HotWrite(WriteStatement),
    /// `WriteStatement::params(scale, fresh id)`: a key no other op uses.
    FreshWrite(WriteStatement),
    /// W12: a cart line of the loaded dataset by zipf rank.  (`params`
    /// alone pairs a cart with an item it does not hold: a no-op update.)
    HotCartLine(WriteStatement),
    /// W8: the cart line this client's latest W7 inserted, so the delete
    /// removes a row and the cart lines stay as many as they were.
    OwnCartLine(WriteStatement),
    /// No parameters (the micro-benchmark's whole-table joins).
    Unbound,
    /// `fig_writes`' update: new names for a uniformly drawn customer.
    FatUpdate,
    /// One order by zipf rank (`fig_partial`'s keyed reads).
    Order,
    /// `fig_partial`'s order-total update, on one of the four orders this
    /// client displayed last (Q2K), as a shop updates the order on screen.
    /// Those orders are resident in both views, so every update maintains
    /// its eleven view rows; drawn by zipf rank like the reads, six updates
    /// in ten would, and `write_p50_us` would sit on the edge between the
    /// two kinds.
    OrderTotal,
}

pub struct Stmt {
    pub name: &'static str,
    pub sql: String,
    pub ast: Statement,
    pub class: Class,
    pub via: Via,
    /// The result is the same row set under every plan (no LIMIT over ties),
    /// so `verify` compares its values, not only its row count, to the join's.
    pub order_determined: bool,
    /// Every k-th occurrence of this read in the `count` pass is re-executed
    /// through the join algorithm (0 = never).
    pub compare_every: u32,
    keys: Keys,
}

impl Stmt {
    fn new(name: &'static str, sql: &str, class: Class, via: Via, keys: Keys) -> Stmt {
        let ast = parse_statement(sql).unwrap_or_else(|e| panic!("{name}: {e}"));
        let order_determined = ast.as_select().is_some_and(|s| s.limit.is_none());
        Stmt {
            name,
            sql: sql.to_string(),
            ast,
            class,
            via,
            order_determined,
            compare_every: 0,
            keys,
        }
    }

    fn compared_every(mut self, k: u32) -> Stmt {
        self.compare_every = k;
        self
    }

    fn order_determined(mut self) -> Stmt {
        self.order_determined = true;
        self
    }
}

/// One generated request: a statement of the spec and its bound parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    pub stmt: usize,
    pub params: Vec<Value>,
}

/// A workload: its statements, one deck of them, and who sends it.
pub struct Spec {
    pub name: &'static str,
    pub stmts: Vec<Stmt>,
    /// How often each statement occurs in one deck.
    pub per_deck: Vec<usize>,
    /// The deck's issue order where it is not spread from the seed.
    fixed_order: Option<Vec<usize>>,
    /// Ops per measurement window of the `timed` phase: a whole number of
    /// decks, or a whole fraction of one, so every window holds the mix.
    pub window: usize,
    pub customers: u64,
    /// `(scl_sc_id, scl_i_id)` of the loaded cart lines (TPC-W workloads).
    cart_lines: Vec<(Value, Value)>,
}

pub const WORKLOADS: [&str; 4] = ["tpcw_browse", "tpcw_order", "micro_scan", "micro_partial"];

/// Closed-loop clients a workload specifies (a box with fewer cores runs
/// fewer and marks the run degraded).
pub fn specified_clients(workload: &str) -> usize {
    if workload == "micro_scan" {
        1
    } else {
        2
    }
}

impl Spec {
    pub fn by_name(name: &str, customers: u64) -> Option<Spec> {
        match name {
            "tpcw_browse" => Some(tpcw_browse(customers)),
            "tpcw_order" => Some(tpcw_order(customers)),
            "micro_scan" => Some(micro_scan(customers)),
            "micro_partial" => Some(micro_partial(customers)),
            _ => None,
        }
    }

    fn from_shares(
        name: &'static str,
        window: usize,
        customers: u64,
        shares: Vec<(Stmt, usize)>,
    ) -> Spec {
        let (stmts, per_deck): (Vec<Stmt>, Vec<usize>) = shares.into_iter().unzip();
        let deck: usize = per_deck.iter().sum();
        assert!(
            deck.is_multiple_of(window) || window.is_multiple_of(deck),
            "{name}: windows and decks must align"
        );
        Spec {
            name,
            stmts,
            per_deck,
            fixed_order: None,
            window,
            customers,
            cart_lines: Vec::new(),
        }
    }

    /// The TPC-W workloads draw W12's targets from the loaded cart lines.
    fn with_cart_lines(mut self) -> Spec {
        let dataset = TpcwDataset::generate(TpcwScale::new(self.customers));
        let column =
            |row: &relational::Row, name| row.get(name).cloned().expect("a cart line column");
        self.cart_lines = dataset
            .rows("Shopping_cart_line")
            .iter()
            .map(|row| (column(row, "scl_sc_id"), column(row, "scl_i_id")))
            .collect();
        self
    }

    pub fn deck_len(&self) -> usize {
        self.per_deck.iter().sum()
    }

    pub fn stmt_index(&self, name: &str) -> Option<usize> {
        self.stmts.iter().position(|s| s.name == name)
    }
}

fn tpcw_class(id: &str) -> Class {
    match id {
        "Q6" | "Q8" | "Q1" | "Q2" => Class::Point,
        "Q4" | "Q5" | "Q3" | "Q7" => Class::List,
        "Q10" | "Q9" | "Q11" => Class::Heavy,
        "W8" => Class::Delete,
        "W9" | "W10" | "W11" | "W12" | "W13" => Class::Update,
        _ => Class::Insert,
    }
}

fn tpcw_read(id: &str) -> Stmt {
    let query = join_queries()
        .into_iter()
        .find(|q| q.id == id)
        .unwrap_or_else(|| panic!("unknown TPC-W query {id}"));
    let stmt = Stmt::new(
        query.id,
        query.sql,
        tpcw_class(id),
        Via::Sql,
        Keys::Query(query),
    );
    // Q2's ORDER BY ends in the unique o_id, so its LIMIT 1 is one fixed row.
    let stmt = if id == "Q2" {
        stmt.order_determined()
    } else {
        stmt
    };
    stmt.compared_every(10)
}

fn tpcw_write(id: &str) -> Stmt {
    let write = write_statements()
        .into_iter()
        .find(|w| w.id == id)
        .unwrap_or_else(|| panic!("unknown TPC-W write {id}"));
    let class = tpcw_class(id);
    // W1–W7 insert under keys nobody else uses; W9–W13 hit existing rows by
    // zipf rank, so two writers collide on hot roots.
    let keys = match id {
        "W8" => Keys::OwnCartLine(write.clone()),
        "W12" => Keys::HotCartLine(write.clone()),
        _ if class == Class::Insert => Keys::FreshWrite(write.clone()),
        _ => Keys::HotWrite(write.clone()),
    };
    Stmt::new(write.id, write.sql, class, Via::Sql, keys)
}

/// 95 % reads / 5 % writes.  Reads: 70 % point (view-served), 24 % list,
/// 6 % heavy, so p50 sits inside the point class and p95 inside the heavy
/// class, each a percentage point or more from a class boundary.
fn tpcw_browse(customers: u64) -> Spec {
    let reads = [
        ("Q6", 266),
        ("Q8", 133),
        ("Q1", 133),
        ("Q2", 133), // point: 70 % of 950
        ("Q4", 76),
        ("Q5", 76),
        ("Q3", 38),
        ("Q7", 38), // list: 24 %
        ("Q10", 19),
        ("Q9", 19),
        ("Q11", 19), // heavy: 6 %
    ];
    let writes = [
        ("W7", 8),
        ("W12", 8),
        ("W11", 6),
        ("W3", 6),
        ("W6", 3),
        ("W1", 3),
        ("W2", 3),
        ("W4", 3),
        ("W5", 3),
        ("W13", 3),
        ("W8", 2),
        ("W9", 1),
        ("W10", 1),
    ];
    let shares = reads
        .iter()
        .map(|&(id, n)| (tpcw_read(id), n))
        .chain(writes.iter().map(|&(id, n)| (tpcw_write(id), n)))
        .collect();
    Spec::from_shares("tpcw_browse", 250, customers, shares).with_cart_lines()
}

/// 50 % reads (no heavy class) / 50 % writes.
fn tpcw_order(customers: u64) -> Spec {
    let reads = [
        ("Q6", 28),
        ("Q8", 28),
        ("Q3", 20),
        ("Q1", 8),
        ("Q2", 8),
        ("Q7", 8),
    ];
    let writes = [
        ("W7", 16),
        ("W12", 16),
        ("W11", 12),
        ("W3", 12),
        ("W6", 6),
        ("W1", 6),
        ("W2", 6),
        ("W4", 6),
        ("W5", 6),
        ("W13", 6),
        ("W8", 4),
        ("W9", 3),
        ("W10", 1),
    ];
    let shares = reads
        .iter()
        .map(|&(id, n)| (tpcw_read(id), n))
        .chain(writes.iter().map(|&(id, n)| (tpcw_write(id), n)))
        .collect();
    Spec::from_shares("tpcw_order", 200, customers, shares).with_cart_lines()
}

const MICRO_Q1: &str = "SELECT * FROM Customer AS c, Orders AS o WHERE c.c_id = o.o_c_id";
const MICRO_Q2: &str = "SELECT * FROM Customer AS c, Orders AS o, Order_line AS ol \
                        WHERE c.c_id = o.o_c_id AND o.o_id = ol.ol_o_id";

/// The paper's Figure 10 shapes (and `tests/golden_plans.rs`'), each read
/// followed by `fig_writes`' fat update.  Fixed order, one client.
fn micro_scan(customers: u64) -> Spec {
    let read = |name, sql, class, via| {
        let stmt = Stmt::new(name, sql, class, via, Keys::Unbound);
        if via == Via::Statement {
            stmt.compared_every(1)
        } else {
            stmt
        }
    };
    let stmts = vec![
        read("q1_view", MICRO_Q1, Class::List, Via::Statement),
        read("q1_join", MICRO_Q1, Class::List, Via::Join),
        read("q2_view", MICRO_Q2, Class::Heavy, Via::Statement),
        read("q2_join", MICRO_Q2, Class::Heavy, Via::Join),
        read("q2_join_par2", MICRO_Q2, Class::Heavy, Via::JoinPar2),
        read(
            "topk_view",
            "SELECT c.c_uname, o.o_total FROM Customer AS c, Orders AS o \
             WHERE c.c_id = o.o_c_id ORDER BY o.o_date DESC, o.o_id DESC LIMIT 10",
            Class::List,
            Via::Statement,
        )
        .order_determined(),
        read(
            "limit50_view",
            "SELECT * FROM Customer AS c, Orders AS o WHERE c.c_id = o.o_c_id LIMIT 50",
            Class::Point,
            Via::Statement,
        ),
        Stmt::new(
            "fat_update",
            "UPDATE Customer SET c_fname = ?, c_lname = ? WHERE c_id = ?",
            Class::Update,
            Via::Statement,
            Keys::FatUpdate,
        ),
    ];
    // q1_view ×3, q1_join ×3, q2_view, q2_join, q2_join_par2, topk, limit50.
    let reads = [0, 1, 2, 0, 1, 3, 0, 1, 4, 5, 6];
    let order: Vec<usize> = reads.iter().flat_map(|&r| [r, 7]).collect();
    Spec {
        name: "micro_scan",
        per_deck: (0..stmts.len())
            .map(|s| order.iter().filter(|&&o| o == s).count())
            .collect(),
        stmts,
        window: order.len(),
        fixed_order: Some(order),
        customers,
        cart_lines: Vec::new(),
    }
}

/// The `fig_partial` mix: 90 % Q1K, 2 % Q2K, 8 % order-total updates.
fn micro_partial(customers: u64) -> Spec {
    let shares = vec![
        (
            Stmt::new(
                "Q1K",
                "SELECT * FROM Customer AS c, Orders AS o WHERE c.c_id = o.o_c_id AND o.o_id = ?",
                Class::Point,
                Via::Statement,
                Keys::Order,
            )
            .compared_every(10),
            45,
        ),
        (
            Stmt::new(
                "Q2K",
                "SELECT * FROM Customer AS c, Orders AS o, Order_line AS ol \
                 WHERE c.c_id = o.o_c_id AND o.o_id = ol.ol_o_id AND ol.ol_o_id = ?",
                Class::List,
                Via::Statement,
                Keys::Order,
            )
            .compared_every(1),
            1,
        ),
        (
            Stmt::new(
                "order_total_update",
                "UPDATE Orders SET o_total = ? WHERE o_id = ?",
                Class::Update,
                Via::Statement,
                Keys::OrderTotal,
            ),
            4,
        ),
    ];
    Spec::from_shares("micro_partial", 500, customers, shares)
}

/// The phases that draw from their own stream: a phase never repeats another
/// phase's fresh insert keys, and its list does not depend on how far a
/// time-boxed phase before it got.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Warmup = 0,
    Count = 1,
    Timed = 2,
    Traced = 3,
}

/// Seeded generator of one client's op stream in one phase.
pub struct OpGen<'a> {
    spec: &'a Spec,
    scale: TpcwScale,
    rng: StdRng,
    zipf: Zipf,
    /// Next fresh insert id: `client·10^7 + phase·10^6 + counter`.
    fresh: u64,
    /// Cart lines this stream's W7s inserted and its W8s have not deleted.
    own_cart_lines: Vec<(Value, Value)>,
    /// The orders this stream's Q2Ks read last (0 = none yet).
    displayed_orders: [i64; 4],
}

impl<'a> OpGen<'a> {
    pub fn new(spec: &'a Spec, seed: u64, client: usize, phase: Phase) -> OpGen<'a> {
        let scale = TpcwScale::new(spec.customers);
        let stream = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(((client as u64) << 8) | phase as u64);
        OpGen {
            spec,
            scale,
            rng: StdRng::seed_from_u64(stream),
            zipf: Zipf::new(scale.orders(), ZIPF_S, stream ^ 0x5A5A_5A5A),
            fresh: client as u64 * 10_000_000 + phase as u64 * 1_000_000,
            own_cart_lines: Vec::new(),
            displayed_orders: [0; 4],
        }
    }

    fn params(&mut self, stmt: &Stmt) -> Vec<Value> {
        match &stmt.keys {
            Keys::Query(query) => query.params(self.scale, self.zipf.sample()),
            Keys::HotWrite(write) => write.params(self.scale, self.zipf.sample()),
            Keys::FreshWrite(write) => {
                self.fresh += 1;
                let params = write.params(self.scale, self.fresh);
                if write.id == "W7" {
                    self.own_cart_lines
                        .push((params[0].clone(), params[1].clone()));
                }
                params
            }
            Keys::HotCartLine(write) => {
                let rank = self.zipf.sample();
                let mut params = write.params(self.scale, rank);
                let lines = &self.spec.cart_lines;
                if let Some((cart, item)) = lines.get((rank as usize - 1) % lines.len().max(1)) {
                    (params[1], params[2]) = (cart.clone(), item.clone());
                }
                params
            }
            Keys::OwnCartLine(write) => match self.own_cart_lines.pop() {
                Some((cart, item)) => vec![cart, item],
                None => write.params(self.scale, self.zipf.sample()),
            },
            Keys::Unbound => Vec::new(),
            Keys::FatUpdate => {
                self.fresh += 1;
                vec![
                    Value::str(format!("First{}u", self.fresh)),
                    Value::str(format!("Last{}u", self.fresh)),
                    Value::Int(self.rng.random_range(1..=self.scale.customers as i64)),
                ]
            }
            Keys::Order => {
                let order = self.zipf.sample() as i64;
                if stmt.name == "Q2K" {
                    self.displayed_orders.rotate_right(1);
                    self.displayed_orders[0] = order;
                }
                vec![Value::Int(order)]
            }
            Keys::OrderTotal => {
                self.fresh += 1;
                let order = self.rng.random_range(1..=self.scale.orders() as i64);
                vec![
                    Value::Float(100.0 + (self.fresh % 97) as f64),
                    Value::Int(order),
                ]
            }
        }
    }

    /// One deck's statements in issue order: each statement's occurrences
    /// evenly spaced from a seeded phase.
    fn order(&mut self) -> Vec<usize> {
        if let Some(order) = &self.spec.fixed_order {
            return order.clone();
        }
        let mut slots: Vec<(f64, usize)> = Vec::with_capacity(self.spec.deck_len());
        for (stmt, &n) in self.spec.per_deck.iter().enumerate() {
            let phase: f64 = self.rng.random_range(0.0..1.0);
            slots.extend((0..n).map(|k| ((k as f64 + phase) / n as f64, stmt)));
        }
        slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        slots.into_iter().map(|(_, stmt)| stmt).collect()
    }

    /// The next deck of the stream.
    pub fn deck(&mut self) -> Vec<Op> {
        self.order()
            .into_iter()
            .map(|stmt| Op {
                stmt,
                params: self.params(&self.spec.stmts[stmt]),
            })
            .collect()
    }

    /// The next `n` decks as one list.
    pub fn decks(&mut self, n: usize) -> Vec<Op> {
        (0..n).flat_map(|_| self.deck()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn stream(workload: &str, seed: u64, client: usize, phase: Phase) -> Vec<Op> {
        let spec = Spec::by_name(workload, 40).unwrap();
        OpGen::new(&spec, seed, client, phase).decks(3)
    }

    #[test]
    fn every_statement_has_a_per_statement_metric() {
        for workload in WORKLOADS {
            for stmt in Spec::by_name(workload, 40).unwrap().stmts {
                let name = stmt.name;
                assert!(
                    crate::metrics::STATEMENTS.contains(&name),
                    "{workload} {name}"
                );
            }
        }
    }

    #[test]
    fn same_seed_same_list_and_a_different_seed_differs() {
        for workload in WORKLOADS {
            let a = stream(workload, 1, 0, Phase::Timed);
            assert_eq!(a, stream(workload, 1, 0, Phase::Timed), "{workload}");
            assert_ne!(a, stream(workload, 2, 0, Phase::Timed), "{workload}");
            assert_ne!(a, stream(workload, 1, 1, Phase::Timed), "{workload}");
        }
    }

    #[test]
    fn every_deck_holds_exactly_the_specified_mix() {
        for workload in WORKLOADS {
            let spec = Spec::by_name(workload, 40).unwrap();
            let mut gen = OpGen::new(&spec, 7, 0, Phase::Count);
            for _ in 0..3 {
                let deck = gen.deck();
                let count = |s| deck.iter().filter(|op| op.stmt == s).count();
                let got: Vec<usize> = (0..spec.stmts.len()).map(count).collect();
                assert_eq!(got, spec.per_deck, "{workload}");
            }
        }
        let reads = |spec: &Spec| -> usize {
            let shares = spec.stmts.iter().zip(&spec.per_deck);
            shares
                .filter(|(s, _)| s.class.is_read())
                .map(|(_, n)| n)
                .sum()
        };
        let browse = Spec::by_name("tpcw_browse", 40).unwrap();
        assert_eq!((browse.deck_len(), reads(&browse)), (1000, 950));
        let order = Spec::by_name("tpcw_order", 40).unwrap();
        assert_eq!((order.deck_len(), reads(&order)), (200, 100));
    }

    #[test]
    fn any_stretch_of_a_deck_has_the_mix_to_within_an_op_per_statement() {
        let spec = Spec::by_name("tpcw_browse", 40).unwrap();
        let deck = OpGen::new(&spec, 5, 1, Phase::Timed).deck();
        for window in deck.chunks(spec.window) {
            for (stmt, &n) in spec.per_deck.iter().enumerate() {
                let got = window.iter().filter(|op| op.stmt == stmt).count() as f64;
                let want = n as f64 * spec.window as f64 / deck.len() as f64;
                assert!(
                    (got - want).abs() <= 1.0,
                    "{}: {got} of {want}",
                    spec.stmts[stmt].name
                );
            }
        }
    }

    #[test]
    fn cart_line_writes_hit_rows_that_exist() {
        let spec = Spec::by_name("tpcw_order", 40).unwrap();
        let [w7, w8, w12] = ["W7", "W8", "W12"].map(|name| spec.stmt_index(name).unwrap());
        let mut inserted = Vec::new();
        let mut real_deletes = 0;
        for op in OpGen::new(&spec, 2, 0, Phase::Timed).decks(2) {
            if op.stmt == w7 {
                inserted.push((op.params[0].clone(), op.params[1].clone()));
            } else if op.stmt == w8 {
                let line = (op.params[0].clone(), op.params[1].clone());
                if let Some(at) = inserted.iter().position(|l| *l == line) {
                    inserted.remove(at);
                    real_deletes += 1;
                }
            } else if op.stmt == w12 {
                let line = (op.params[1].clone(), op.params[2].clone());
                assert!(
                    spec.cart_lines.contains(&line),
                    "W12 updates a loaded cart line"
                );
            }
        }
        assert!(
            real_deletes >= 7,
            "all but the first W8s delete a line a W7 inserted"
        );
    }

    #[test]
    fn insert_keys_never_collide_across_clients_or_phases() {
        for workload in ["tpcw_browse", "tpcw_order"] {
            let spec = Spec::by_name(workload, 40).unwrap();
            let mut seen = BTreeSet::new();
            for client in 0..2 {
                for phase in [Phase::Warmup, Phase::Count, Phase::Timed, Phase::Traced] {
                    for op in stream(workload, 3, client, phase) {
                        let stmt = &spec.stmts[op.stmt];
                        if stmt.class != Class::Insert {
                            continue;
                        }
                        // The fresh component is the first parameter of
                        // W1/W2/W4/W5/W6 and the second of W3/W7.
                        let fresh = if matches!(stmt.name, "W3" | "W7") {
                            1
                        } else {
                            0
                        };
                        let key = (stmt.name, format!("{:?}", op.params[fresh]));
                        assert!(seen.insert(key.clone()), "{workload}: {key:?} drawn twice");
                    }
                }
            }
            assert!(!seen.is_empty());
        }
    }
}
