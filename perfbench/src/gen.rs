//! The seeded input generator. Everything a run feeds the program —
//! table data seeds, the serving schedule, query texts and inserted
//! rows — comes from here and from `--seed` alone.

use std::time::Duration;

/// SplitMix64: small, fast, and fully specified, so a seed names the
/// same inputs on every build and platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// An independent seed for one input stream of a run.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

pub const TPCH_STREAM: u64 = 1;
pub const HIBENCH_STREAM: u64 = 2;
pub const SCHEDULE_STREAM: u64 = 3;

/// Zipf(theta) over ranks `0..n`, by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }
}

/// The table the serving mix writes to and aggregates.
pub const EVENTS_TABLE: &str = "perfbench_events";
pub const EVENTS_DDL: &str = "CREATE TABLE perfbench_events (k BIGINT, v BIGINT) STORED AS ORC";

/// One kind of serving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    Q1,
    Q3,
    Q6,
    Q12,
    Q14,
    /// Aggregate over [`EVENTS_TABLE`].
    Events,
    /// `INSERT INTO` [`EVENTS_TABLE`].
    Insert,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::Q1,
        Kind::Q3,
        Kind::Q6,
        Kind::Q12,
        Kind::Q14,
        Kind::Events,
        Kind::Insert,
    ];
    pub const TPCH: [Kind; 5] = [Kind::Q1, Kind::Q3, Kind::Q6, Kind::Q12, Kind::Q14];
    /// How many of each TPC-H read template, in [`Kind::TPCH`] order, a
    /// block of requests holds besides one events read and one insert.
    /// The shares place the mix's median latency inside Q14's spread, and
    /// keep the joins Q3 and Q12 so few that fewer than ten of them run
    /// alongside another query in a run, so that neither percentile sits
    /// at the edge between two templates' latencies, where it would jump
    /// from run to run (README.md).
    pub const PER_BLOCK: [usize; 5] = [5, 1, 3, 1, 6];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Q1 => "q1",
            Kind::Q3 => "q3",
            Kind::Q6 => "q6",
            Kind::Q12 => "q12",
            Kind::Q14 => "q14",
            Kind::Events => "events",
            Kind::Insert => "insert",
        }
    }
}

/// One statement of the serving mix.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub kind: Kind,
    pub sql: String,
    /// `Events`: the `v >=` threshold. `Insert`: the inserted `v`.
    pub v: i64,
    /// `Insert`: the inserted `k`, unique within a run.
    pub k: i64,
}

/// A request and when it is due, relative to the start of the open loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub due: Duration,
    pub request: Request,
}

const SEGMENTS: [&str; 5] = [
    "AUTOMOBILE",
    "BUILDING",
    "FURNITURE",
    "HOUSEHOLD",
    "MACHINERY",
];
const SHIPMODES: [&str; 7] = ["AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"];

/// Every literal choice of one TPC-H read template, in a fixed order.
fn literal_pool(kind: Kind) -> Vec<String> {
    let mut pool = Vec::new();
    match kind {
        Kind::Q1 => {
            for m in 1..=11 {
                for d in 1..=28 {
                    pool.push(format!(
                        "SELECT l_returnflag, l_linestatus, SUM(l_quantity) AS sum_qty, \
                         SUM(l_extendedprice) AS sum_base_price, \
                         SUM(l_extendedprice * (1 - l_discount)) AS sum_disc_price, \
                         SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge, \
                         AVG(l_quantity) AS avg_qty, AVG(l_extendedprice) AS avg_price, \
                         AVG(l_discount) AS avg_disc, COUNT(*) AS count_order \
                         FROM lineitem WHERE l_shipdate <= DATE '1998-{m:02}-{d:02}' \
                         GROUP BY l_returnflag, l_linestatus \
                         ORDER BY l_returnflag, l_linestatus"
                    ));
                }
            }
        }
        Kind::Q3 => {
            for seg in SEGMENTS {
                for (m, d) in (2..=4).flat_map(|m| (1..=28).map(move |d| (m, d))) {
                    pool.push(format!(
                        "SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue, \
                         o_orderdate, o_shippriority \
                         FROM customer c JOIN orders o ON c.c_custkey = o.o_custkey \
                         JOIN lineitem l ON l.l_orderkey = o.o_orderkey \
                         WHERE c_mktsegment = '{seg}' AND o_orderdate < DATE '1995-{m:02}-{d:02}' \
                         AND l_shipdate > DATE '1995-{m:02}-{d:02}' \
                         GROUP BY l_orderkey, o_orderdate, o_shippriority \
                         ORDER BY revenue DESC, o_orderdate LIMIT 10"
                    ));
                }
            }
        }
        Kind::Q6 => {
            for y in 1993..=1997 {
                for disc in 2..=9 {
                    for qty in 20..=35 {
                        pool.push(format!(
                            "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
                             WHERE l_shipdate >= DATE '{y}-01-01' AND l_shipdate < DATE '{}-01-01' \
                             AND l_discount BETWEEN 0.{:02} AND 0.{:02} AND l_quantity < {qty}",
                            y + 1,
                            disc - 1,
                            disc + 1
                        ));
                    }
                }
            }
        }
        Kind::Q12 => {
            for (i, m1) in SHIPMODES.iter().enumerate() {
                for m2 in &SHIPMODES[i + 1..] {
                    for (y, m) in (1993..=1997).flat_map(|y| (1..=6).map(move |m| (y, m))) {
                        pool.push(format!(
                            "SELECT l_shipmode, \
                             SUM(CASE WHEN o_orderpriority = '1-URGENT' OR o_orderpriority = '2-HIGH' \
                             THEN 1 ELSE 0 END) AS high_line_count, \
                             SUM(CASE WHEN o_orderpriority <> '1-URGENT' AND o_orderpriority <> '2-HIGH' \
                             THEN 1 ELSE 0 END) AS low_line_count \
                             FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey \
                             WHERE l_shipmode IN ('{m1}', '{m2}') AND l_commitdate < l_receiptdate \
                             AND l_shipdate < l_commitdate AND l_receiptdate >= DATE '{y}-{m:02}-01' \
                             AND l_receiptdate < DATE '{}-{m:02}-01' \
                             GROUP BY l_shipmode ORDER BY l_shipmode",
                            y + 1
                        ));
                    }
                }
            }
        }
        Kind::Q14 => {
            for (y, m) in (1993..=1997).flat_map(|y| (1..=12).map(move |m| (y, m))) {
                for d in 1..=12 {
                    let (ny, nm) = if m == 12 { (y + 1, 1) } else { (y, m + 1) };
                    pool.push(format!(
                        "SELECT 100.0 * SUM(CASE WHEN p_type LIKE 'PROMO%' \
                         THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) \
                         / SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue \
                         FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey \
                         WHERE l_shipdate >= DATE '{y}-{m:02}-{d:02}' \
                         AND l_shipdate < DATE '{ny}-{nm:02}-{d:02}'"
                    ));
                }
            }
        }
        Kind::Events | Kind::Insert => {}
    }
    pool
}

pub fn events_sql(threshold: i64) -> String {
    format!(
        "SELECT v, COUNT(*) AS n FROM {EVENTS_TABLE} WHERE v >= {threshold} GROUP BY v ORDER BY v"
    )
}

pub fn insert_sql(k: i64, v: i64) -> String {
    format!("INSERT INTO {EVENTS_TABLE} VALUES ({k}, {v})")
}

/// Fixes which literals of each read template are popular.
const POPULARITY_SEED: u64 = 0x5EED_0F7E;
/// Zipf skew of text popularity within each read template.
const ZIPF_THETA: f64 = 0.8;
/// Thresholds of the events aggregate (`v >= 1..=EVENTS_THRESHOLDS`).
const EVENTS_THRESHOLDS: usize = 50;
/// Inserted `v` values are `1..=INSERT_VALUES`.
pub const INSERT_VALUES: usize = 100;

/// Draws serving requests: kinds in blocks of [`Kind::PER_BLOCK`], each
/// block a seeded shuffle of the same kinds, so every seed gets the same
/// mix to within one block; then a TPC-H text by Zipf popularity over
/// that template's literal pool. The pool is shuffled once, the same way
/// for every seed: which literals are popular changes a template's cost
/// (their selectivity differs), so fixing them keeps seeds comparable
/// while the draws, the order, the schedule and the data vary.
pub struct Mix {
    rng: Rng,
    pools: Vec<(Kind, Vec<String>, Zipf)>,
    events: Zipf,
    block: Vec<Kind>,
    inserts: i64,
}

impl Mix {
    pub fn new(seed: u64) -> Mix {
        let mut rng = Rng::new(POPULARITY_SEED);
        let pools = Kind::TPCH
            .iter()
            .map(|&kind| {
                let mut pool = literal_pool(kind);
                shuffle(&mut pool, &mut rng);
                let zipf = Zipf::new(pool.len(), ZIPF_THETA);
                (kind, pool, zipf)
            })
            .collect();
        Mix {
            rng: Rng::new(seed),
            pools,
            events: Zipf::new(EVENTS_THRESHOLDS, ZIPF_THETA),
            block: Vec::new(),
            inserts: 0,
        }
    }

    /// The `rank`-th least popular text of a TPC-H read template.
    pub fn cold_text(&self, kind: Kind, rank: usize) -> String {
        let (pool, _) = pool_of(&self.pools, kind);
        pool[pool.len() - 1 - rank % pool.len()].clone()
    }

    /// Distinct TPC-H read texts the mix can draw.
    pub fn distinct_texts(&self) -> usize {
        self.pools.iter().map(|(_, p, _)| p.len()).sum()
    }

    fn next_kind(&mut self) -> Kind {
        if self.block.is_empty() {
            for (kind, n) in Kind::TPCH.into_iter().zip(Kind::PER_BLOCK) {
                self.block.extend(std::iter::repeat_n(kind, n));
            }
            self.block.extend([Kind::Events, Kind::Insert]);
            shuffle(&mut self.block, &mut self.rng);
        }
        self.block.pop().expect("a refilled block")
    }

    pub fn next(&mut self) -> Request {
        match self.next_kind() {
            Kind::Events => {
                let v = self.events.sample(&mut self.rng) as i64 + 1;
                Request {
                    kind: Kind::Events,
                    sql: events_sql(v),
                    v,
                    k: 0,
                }
            }
            Kind::Insert => {
                self.inserts += 1;
                let (k, v) = (self.inserts, self.rng.below(INSERT_VALUES) as i64 + 1);
                Request {
                    kind: Kind::Insert,
                    sql: insert_sql(k, v),
                    v,
                    k,
                }
            }
            kind => {
                let (pool, zipf) = pool_of(&self.pools, kind);
                let sql = pool[zipf.sample(&mut self.rng)].clone();
                Request {
                    kind,
                    sql,
                    v: 0,
                    k: 0,
                }
            }
        }
    }
}

fn pool_of(pools: &[(Kind, Vec<String>, Zipf)], kind: Kind) -> (&[String], &Zipf) {
    pools
        .iter()
        .find(|(k, _, _)| *k == kind)
        .map(|(_, pool, zipf)| (pool.as_slice(), zipf))
        .expect("a TPC-H read template")
}

/// Fisher-Yates.
fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// An open-loop schedule of exactly `count` arrivals over `span`: a
/// Poisson process conditioned on its count, i.e. sorted uniform due
/// times. Fixing the count keeps the offered load identical across seeds.
pub fn schedule(mix: &mut Mix, count: usize, span: Duration, rng: &mut Rng) -> Vec<Arrival> {
    let mut dues: Vec<f64> = (0..count)
        .map(|_| rng.unit() * span.as_secs_f64())
        .collect();
    dues.sort_by(f64::total_cmp);
    dues.into_iter()
        .map(|d| Arrival {
            due: Duration::from_secs_f64(d),
            request: mix.next(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64) -> Vec<Arrival> {
        let mut mix = Mix::new(seed);
        let mut rng = Rng::new(seed ^ 1);
        schedule(&mut mix, 400, Duration::from_secs(20), &mut rng)
    }

    fn fnv(arrivals: &[Arrival]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for a in arrivals {
            let text = format!("{}|{}\n", a.due.as_nanos(), a.request.sql);
            for b in text.bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn same_seed_same_schedule_texts_and_inserts() {
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        // Pins the generator itself: a change to it changes every
        // seed's inputs and must be made on purpose.
        assert_eq!(fnv(&run(1)), 0xf02085804682d388);
    }

    #[test]
    fn schedule_is_sorted_within_span_and_mixes_every_kind() {
        let s = run(3);
        assert!(s.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(s.iter().all(|a| a.due < Duration::from_secs(20)));
        for kind in Kind::ALL {
            assert!(s.iter().any(|a| a.request.kind == kind), "{kind:?}");
        }
        let block = Kind::PER_BLOCK.iter().sum::<usize>() + 2;
        for block in s.chunks_exact(block) {
            for kind in Kind::ALL {
                let want = match Kind::TPCH.iter().position(|k| *k == kind) {
                    Some(i) => Kind::PER_BLOCK[i],
                    None => 1,
                };
                let got = block.iter().filter(|a| a.request.kind == kind).count();
                assert_eq!(got, want, "{kind:?}");
            }
        }
        let keys: Vec<i64> = s
            .iter()
            .filter(|a| a.request.kind == Kind::Insert)
            .map(|a| a.request.k)
            .collect();
        assert_eq!(keys, (1..=keys.len() as i64).collect::<Vec<_>>());
    }

    #[test]
    fn read_texts_outnumber_the_result_cache() {
        let mix = Mix::new(1);
        assert!(mix.distinct_texts() > 256, "{}", mix.distinct_texts());
        for kind in Kind::TPCH {
            let pool = literal_pool(kind);
            let distinct: std::collections::HashSet<_> = pool.iter().collect();
            assert_eq!(distinct.len(), pool.len(), "{kind:?}");
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = Rng::new(5);
        let mut counts = [0usize; 100];
        for _ in 0..10_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }
}
