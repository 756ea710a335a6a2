//! The `count` pass: one client, a fixed op list, tracing off.  Between ops
//! the benchmark reads the system's own counters, so every count and every
//! sim-ms figure of this pass repeats exactly at one seed; sampled reads are
//! re-executed through the join algorithm and the answers compared.

use crate::deploy::region_servers;
use crate::metrics::{set, Values};
use crate::ops::{Class, Op, Via};
use crate::run::{ns, ratio, Client};
use nosql_store::OpCounters;
use relational::Row;
use sql::Statement;
use std::time::Instant;
use synergy::SynergySystem;

#[derive(Default, Clone, Copy)]
pub(crate) struct ClassTotals {
    pub(crate) ops: u64,
    pub(crate) wall_ns: u64,
    pub(crate) sim_ms: f64,
}

impl ClassTotals {
    fn add(&mut self, wall_ns: u64, sim_ms: f64) {
        self.ops += 1;
        self.wall_ns += wall_ns;
        self.sim_ms += sim_ms;
    }
}

/// Everything the benchmark can read off the system's own counters.
pub(crate) struct Counters {
    plan_cache: query::PlanCacheStats,
    maintenance: synergy::MaintenanceStatsSnapshot,
    residency: Option<synergy::ResidencySnapshot>,
    wal_records: u64,
    replication: nosql_store::ReplicationStats,
}

impl Counters {
    pub(crate) fn read(system: &SynergySystem) -> Counters {
        let cluster = system.cluster();
        Counters {
            plan_cache: system.plan_cache_stats(),
            maintenance: system.maintenance_stats(),
            residency: system.residency_snapshot(),
            wal_records: (0..region_servers())
                .map(|s| cluster.wal(s).len() as u64)
                .sum(),
            replication: cluster.replication_stats(),
        }
    }
}

#[derive(Default)]
pub(crate) struct CountPass {
    pub(crate) ops: u64,
    pub(crate) failed: u64,
    pub(crate) class: [ClassTotals; 6],
    read_store: OpCounters,
    write_store: OpCounters,
    result_rows: u64,
    peak_rows: Vec<usize>,
    view_routed_reads: u64,
    upquery_reads: u64,
    upquery_wall_ns: u64,
    /// Per statement: every read through Synergy, and the reads re-executed
    /// through the join algorithm.
    synergy: Vec<ClassTotals>,
    pub(crate) join: Vec<ClassTotals>,
    pub(crate) mismatches: Vec<String>,
}

impl CountPass {
    /// Mean wall time of an op of this pass: one client, nothing traced.
    pub(crate) fn wall_ns_per_op(&self) -> f64 {
        let wall_ns: u64 = self.class.iter().map(|c| c.wall_ns).sum();
        ratio(wall_ns as f64, self.ops as f64)
    }

    /// What the join algorithm would have taken for the reads of every
    /// sampled statement ÷ what Synergy took for them, in wall and sim time.
    /// The join's cost per read is taken from the re-executed sample;
    /// Synergy's from all reads, because under a view budget a few misses
    /// carry most of its time and a sample's share of them varies.
    fn view_speedup(&self) -> (f64, f64) {
        let (mut join_ns, mut join_ms, mut synergy_ns, mut synergy_ms) = (0.0, 0.0, 0.0, 0.0);
        for (all, sampled) in self
            .synergy
            .iter()
            .zip(&self.join)
            .filter(|(_, j)| j.ops > 0)
        {
            let scale = all.ops as f64 / sampled.ops as f64;
            join_ns += sampled.wall_ns as f64 * scale;
            join_ms += sampled.sim_ms * scale;
            synergy_ns += all.wall_ns as f64;
            synergy_ms += all.sim_ms;
        }
        (ratio(join_ns, synergy_ns), ratio(join_ms, synergy_ms))
    }
}

fn add_counters(into: &mut OpCounters, d: &OpCounters) {
    into.gets += d.gets;
    into.puts += d.puts;
    into.deletes += d.deletes;
    into.increments += d.increments;
    into.check_and_puts += d.check_and_puts;
    into.scans += d.scans;
    into.scanned_rows += d.scanned_rows;
    into.scanned_bytes += d.scanned_bytes;
}

/// Order-insensitive checksum of a result: per row, the sorted encoded
/// values (the two plans qualify column names differently, so names are left
/// out), hashed FNV-1a and summed over rows.
fn checksum(rows: &[Row]) -> u64 {
    rows.iter()
        .map(|row| {
            let mut values: Vec<String> = row.iter().map(|(_, v)| v.encode()).collect();
            values.sort_unstable();
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            for byte in values.iter().flat_map(|v| v.bytes().chain([0])) {
                hash = (hash ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
            }
            hash
        })
        .fold(0, u64::wrapping_add)
}

fn is_view_routed(system: &SynergySystem, statement: &Statement) -> bool {
    system.rewrite(statement) != *statement
}

pub(crate) fn count_pass(client: &Client, ops: &[Op]) -> CountPass {
    let system = &client.system;
    let cluster = system.cluster();
    let clock = cluster.clock();
    let routed: Vec<bool> = client
        .spec
        .stmts
        .iter()
        .map(|s| matches!(s.via, Via::Sql | Via::Statement) && is_view_routed(system, &s.ast))
        .collect();
    let mut seen = vec![0u32; client.spec.stmts.len()];
    let mut pass = CountPass {
        synergy: vec![ClassTotals::default(); client.spec.stmts.len()],
        join: vec![ClassTotals::default(); client.spec.stmts.len()],
        ..CountPass::default()
    };

    for op in ops {
        let stmt = &client.spec.stmts[op.stmt];
        let misses_before = system.residency_snapshot().map_or(0, |r| r.misses);
        let store_before = cluster.metrics().ops;
        let sim_before = clock.now();
        let start = Instant::now();
        let (reply, _) = client.issue(op);
        let wall = ns(start.elapsed());
        let sim_ms = (clock.now() - sim_before).as_millis_f64();
        let store = cluster.metrics().ops.delta_since(&store_before);

        pass.ops += 1;
        pass.class[stmt.class as usize].add(wall, sim_ms);
        let result = match reply {
            Ok(result) => result,
            Err(e) => {
                pass.failed += 1;
                pass.mismatches.push(format!("{} failed: {e}", stmt.name));
                continue;
            }
        };
        if !stmt.class.is_read() {
            add_counters(&mut pass.write_store, &store);
            continue;
        }
        add_counters(&mut pass.read_store, &store);
        pass.result_rows += result.len() as u64;
        pass.peak_rows.push(result.peak_rows_resident);
        pass.view_routed_reads += routed[op.stmt] as u64;
        if system.residency_snapshot().map_or(0, |r| r.misses) > misses_before {
            pass.upquery_reads += 1;
            pass.upquery_wall_ns += wall;
        }

        pass.synergy[op.stmt].add(wall, sim_ms);
        seen[op.stmt] += 1;
        if stmt.compare_every == 0 || !(seen[op.stmt] - 1).is_multiple_of(stmt.compare_every) {
            continue;
        }
        let sim_before = clock.now();
        let start = Instant::now();
        let joined = system.executor().execute(&stmt.ast, &op.params);
        let join_wall = ns(start.elapsed());
        pass.join[op.stmt].add(join_wall, (clock.now() - sim_before).as_millis_f64());
        match joined {
            Err(e) => pass
                .mismatches
                .push(format!("{} join failed: {e}", stmt.name)),
            Ok(joined) if joined.len() != result.len() => pass.mismatches.push(format!(
                "{} {:?}: Synergy {} rows, join {}",
                stmt.name,
                op.params,
                result.len(),
                joined.len()
            )),
            Ok(joined)
                if stmt.order_determined && checksum(&joined.rows) != checksum(&result.rows) =>
            {
                pass.mismatches.push(format!(
                    "{} {:?}: Synergy and join values differ",
                    stmt.name, op.params
                ))
            }
            Ok(_) => {}
        }
    }
    pass
}

pub(crate) fn count_metrics(pass: &CountPass, before: &Counters, after: &Counters, v: &mut Values) {
    let total = |reads: bool| {
        let classes = Class::ALL.iter().filter(|c| c.is_read() == reads);
        classes.fold(ClassTotals::default(), |mut t, &c| {
            let class = &pass.class[c as usize];
            t.ops += class.ops;
            t.sim_ms += class.sim_ms;
            t
        })
    };
    let (read, write) = (total(true), total(false));
    let (n_reads, n_writes) = (read.ops as f64, write.ops as f64);

    set(v, "sim_ms_per_read", ratio(read.sim_ms, n_reads));
    set(v, "sim_ms_per_write", ratio(write.sim_ms, n_writes));
    let (speedup_wall, speedup_sim) = pass.view_speedup();
    set(v, "view_speedup_wall", speedup_wall);
    set(v, "view_speedup_sim", speedup_sim);

    for class in Class::ALL {
        let t = &pass.class[class as usize];
        let name = format!("sim.ms_per_op.{}", class.name());
        set(v, &name, ratio(t.sim_ms, t.ops as f64));
    }
    let hits = (after.plan_cache.hits - before.plan_cache.hits) as f64;
    let misses = (after.plan_cache.misses - before.plan_cache.misses) as f64;
    set(v, "query.plan_cache_hit_rate", ratio(hits, hits + misses));
    let examined = (pass.read_store.scanned_rows + pass.read_store.gets) as f64;
    let returned = pass.result_rows as f64;
    set(v, "query.rows_examined_per_row", ratio(examined, returned));
    let mut peaks = pass.peak_rows.clone();
    peaks.sort_unstable();
    let p95 = peaks.get((peaks.len() * 95 / 100).min(peaks.len().saturating_sub(1)));
    set(v, "query.peak_rows_p95", p95.map_or(0.0, |&p| p as f64));
    let routed = pass.view_routed_reads as f64;
    set(v, "synergy.view_routed_share", ratio(routed, n_reads));

    let touched = after.maintenance.view_rows_touched - before.maintenance.view_rows_touched;
    let deltas = after.maintenance.deltas_propagated - before.maintenance.deltas_propagated;
    let touched_per_write = ratio(touched as f64, n_writes);
    set(v, "synergy.view_rows_touched_per_write", touched_per_write);
    set(
        v,
        "synergy.deltas_per_write",
        ratio(deltas as f64, n_writes),
    );
    if let (Some(b), Some(a)) = (&before.residency, &after.residency) {
        let (hits, misses) = ((a.hits - b.hits) as f64, (a.misses - b.misses) as f64);
        set(v, "synergy.partial_hit_rate", ratio(hits, hits + misses));
        set(v, "synergy.upqueries", (a.upqueries - b.upqueries) as f64);
        set(
            v,
            "synergy.evicted_keys",
            (a.evicted_keys - b.evicted_keys) as f64,
        );
        set(
            v,
            "synergy.annihilated",
            (a.annihilated - b.annihilated) as f64,
        );
        set(v, "synergy.bypasses", (a.bypasses - b.bypasses) as f64);
        set(v, "synergy.resident_bytes", a.resident_bytes as f64);
        let upquery_us = pass.upquery_wall_ns as f64 / 1e3;
        set(
            v,
            "synergy.upquery_us",
            ratio(upquery_us, pass.upquery_reads as f64),
        );
    }

    let (r, w) = (&pass.read_store, &pass.write_store);
    let gets = (r.gets + w.gets) as f64;
    set(v, "store.gets_per_op", ratio(gets, pass.ops as f64));
    set(v, "store.puts_per_write", ratio(w.puts as f64, n_writes));
    set(
        v,
        "store.cas_per_write",
        ratio(w.check_and_puts as f64, n_writes),
    );
    set(v, "store.scans_per_read", ratio(r.scans as f64, n_reads));
    set(
        v,
        "store.rows_scanned_per_read",
        ratio(r.scanned_rows as f64, n_reads),
    );
    let scanned_bytes = r.scanned_bytes as f64;
    set(
        v,
        "store.bytes_scanned_per_read",
        ratio(scanned_bytes, n_reads),
    );
    let wal = (after.wal_records - before.wal_records) as f64;
    let shipped = (after.replication.records_shipped - before.replication.records_shipped) as f64;
    set(v, "store.wal_records_per_write", ratio(wal, n_writes));
    set(
        v,
        "store.records_shipped_per_write",
        ratio(shipped, n_writes),
    );
    set(v, "store.replica_lag", after.replication.replica_lag as f64);
}
