//! Stands up the deployment each workload runs against, timing every public
//! call of the set-up on the way.

use nosql_store::{Cluster, ClusterConfig};
use std::time::Instant;
use synergy::{SynergyConfig, SynergySystem, TxnError};
use tpcw::micro::MicroBench;
use tpcw::{TpcwDataset, TpcwScale};

/// `tpcw_order`'s group-commit interval (every other workload syncs per write).
pub const ORDER_WAL_SYNC_INTERVAL: usize = 8;

/// Region servers of every deployment, each with a log of its own.
pub fn region_servers() -> usize {
    ClusterConfig::default().region_servers
}

/// Wall time of each set-up step and what the view population wrote.  The
/// micro-benchmark deployments come from one `MicroBench::build_*` call, so
/// their whole set-up is `build_s`.
#[derive(Default, Clone, Copy)]
pub struct Setup {
    pub datagen_s: f64,
    pub build_s: f64,
    pub bulk_load_s: f64,
    pub materialize_s: f64,
    /// Major compaction, plus `tpcw_order`'s checkpoint.
    pub compact_s: f64,
    pub view_rows: u64,
    pub view_bytes: u64,
}

impl Setup {
    pub fn total_s(&self) -> f64 {
        self.datagen_s + self.build_s + self.bulk_load_s + self.materialize_s + self.compact_s
    }
}

pub struct Deployment {
    pub system: SynergySystem,
    pub setup: Setup,
}

/// View budget of `micro_partial`: 500 kB at 500 customers, 4.7 % of the
/// 10.6 MB fully materialized footprint (`fig_partial`'s 5 % cell), scaled
/// with the data.  At this size the budget fills within the warm-up, CLOCK
/// eviction runs throughout, and one read in eight misses, so `read_p95_us`
/// sits inside the upquery reads.  (At 1 MB the budget never filled in the
/// fixed passes and 5.5 % of reads missed: p95 sat on the edge between hits
/// and misses.)
fn partial_budget(customers: u64) -> u64 {
    500_000 * customers / 500
}

pub fn deploy(workload: &str, customers: u64) -> Result<Deployment, TxnError> {
    match workload {
        "tpcw_browse" => deploy_tpcw(customers, ClusterConfig::default(), false),
        "tpcw_order" => {
            let config = ClusterConfig {
                replication_factor: 2,
                wal_sync_interval: ORDER_WAL_SYNC_INTERVAL,
                ..ClusterConfig::default()
            };
            deploy_tpcw(customers, config, true)
        }
        "micro_scan" => deploy_micro(|| MicroBench::build_with_threads(customers, 1)),
        "micro_partial" => deploy_micro(|| {
            MicroBench::build_partial(customers, 1, Some(partial_budget(customers)))
        }),
        other => Err(TxnError::Unsupported(format!("unknown workload {other}"))),
    }
}

fn deploy_tpcw(
    customers: u64,
    config: ClusterConfig,
    checkpoint: bool,
) -> Result<Deployment, TxnError> {
    let mut setup = Setup::default();
    let mut lap = Instant::now();
    let mut split = || {
        let s = lap.elapsed().as_secs_f64();
        lap = Instant::now();
        s
    };

    let dataset = TpcwDataset::generate(TpcwScale::new(customers));
    setup.datagen_s = split();
    let system = SynergySystem::build(
        Cluster::new(config),
        SynergyConfig::new(
            tpcw::schema::tpcw_schema(),
            tpcw::writes::full_workload(),
            tpcw::schema::tpcw_roots(),
            &tpcw::schema::tpcw_types,
        ),
    )?;
    setup.build_s = split();
    for table in TpcwDataset::load_order() {
        system.bulk_load(table, dataset.rows(table))?;
    }
    setup.bulk_load_s = split();
    let materialized = system.materialize_views()?;
    setup.materialize_s = split();
    system.cluster().major_compact_all();
    if checkpoint {
        system.cluster().checkpoint();
    }
    setup.compact_s = split();
    setup.view_rows = materialized.rows as u64;
    setup.view_bytes = materialized.bytes;
    Ok(Deployment { system, setup })
}

fn deploy_micro(
    build: impl FnOnce() -> Result<MicroBench, TxnError>,
) -> Result<Deployment, TxnError> {
    let start = Instant::now();
    let bench = build()?;
    let setup = Setup {
        build_s: start.elapsed().as_secs_f64(),
        view_rows: bench.materialized().rows as u64,
        view_bytes: bench.materialized().bytes,
        ..Setup::default()
    };
    Ok(Deployment {
        system: bench.system().clone(),
        setup,
    })
}
