//! The `timed` phase: K closed-loop clients, each on its own pre-generated
//! list, tracing off, for `--seconds`.  Every wall-clock end-to-end metric
//! comes from here.

use crate::hist::Hist;
use crate::metrics::{set, Values};
use crate::ops::{Op, OpGen, Phase, Spec};
use crate::run::{median, ns, ratio, Client, RunArgs};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use synergy::SynergySystem;

/// What one client measured over one window of `Spec::window` ops.  Every
/// window holds the same mix, so windows are repeated measurements of one
/// thing, and the run reports their medians: a disturbed stretch of the run
/// (or the slow drift as versions pile up in the store) moves a few windows,
/// not the result.
struct Window {
    seconds: f64,
    /// p50 and p95 in ns.
    read: [f64; 2],
    write: [f64; 2],
}

struct ClientRun {
    windows: Vec<Window>,
    /// Whole-run histograms: per statement, and the fallback for a run too
    /// short to complete a window.
    reads: Hist,
    writes: Hist,
    by_stmt: Vec<Hist>,
    ops: u64,
    failed: u64,
    retries: u64,
    elapsed_s: f64,
}

fn p50_p95(hist: &Hist) -> [f64; 2] {
    [hist.quantile(0.50), hist.quantile(0.95)]
}

fn run_client(client: &Client, ops: &[Op], budget: Duration, start: &Barrier) -> ClientRun {
    let spec = client.spec;
    let mut run = ClientRun {
        windows: Vec::with_capacity(ops.len() / spec.window),
        reads: Hist::default(),
        writes: Hist::default(),
        by_stmt: vec![Hist::default(); spec.stmts.len()],
        ops: 0,
        failed: 0,
        retries: 0,
        elapsed_s: 0.0,
    };
    start.wait();
    let begin = Instant::now();
    'windows: for window in ops.chunks_exact(spec.window) {
        let (mut reads, mut writes) = (Hist::default(), Hist::default());
        let window_begin = Instant::now();
        for op in window {
            let sent = Instant::now();
            if sent.duration_since(begin) >= budget {
                break 'windows;
            }
            let (reply, retries) = client.issue(op);
            let latency = ns(sent.elapsed());
            let hist = if spec.stmts[op.stmt].class.is_read() {
                &mut reads
            } else {
                &mut writes
            };
            run.ops += 1;
            run.retries += retries as u64;
            if reply.is_ok() {
                hist.record(latency);
                run.by_stmt[op.stmt].record(latency);
            } else {
                hist.record_infinite();
                run.by_stmt[op.stmt].record_infinite();
                run.failed += 1;
            }
        }
        run.windows.push(Window {
            seconds: window_begin.elapsed().as_secs_f64(),
            read: p50_p95(&reads),
            write: p50_p95(&writes),
        });
        run.reads.merge(&reads);
        run.writes.merge(&writes);
    }
    run.elapsed_s = begin.elapsed().as_secs_f64();
    run
}

pub(crate) struct Timed {
    pub(crate) ops: u64,
    pub(crate) failed: u64,
    pub(crate) throughput: f64,
}

pub(crate) fn timed_phase(
    spec: &Spec,
    system: &SynergySystem,
    clients: usize,
    args: &RunArgs,
    rate_cap: f64,
    v: &mut Values,
) -> Timed {
    let budget = Duration::from_secs_f64(args.seconds);
    let decks_needed = (args.seconds * rate_cap / spec.deck_len() as f64).ceil() as usize + 1;
    let lists: Vec<Vec<Op>> = (0..clients)
        .map(|c| OpGen::new(spec, args.seed, c, Phase::Timed).decks(decks_needed))
        .collect();
    let barrier = Barrier::new(clients);
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = lists
            .iter()
            .map(|ops| {
                let client = Client::new(spec, system);
                let barrier = &barrier;
                scope.spawn(move || run_client(&client, ops, budget, barrier))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });

    let mut reads = Hist::default();
    let mut writes = Hist::default();
    let mut by_stmt = vec![Hist::default(); spec.stmts.len()];
    let mut timed = Timed {
        ops: 0,
        failed: 0,
        throughput: 0.0,
    };
    let mut retries = 0;
    for run in &runs {
        reads.merge(&run.reads);
        writes.merge(&run.writes);
        for (all, one) in by_stmt.iter_mut().zip(&run.by_stmt) {
            all.merge(one);
        }
        timed.ops += run.ops;
        timed.failed += run.failed;
        retries += run.retries;
        // A client's rate is one window of ops over its median window time.
        let mut seconds: Vec<f64> = run.windows.iter().map(|w| w.seconds).collect();
        timed.throughput += if seconds.is_empty() {
            ratio(run.ops as f64, run.elapsed_s)
        } else {
            spec.window as f64 / median(&mut seconds)
        };
    }
    // Latency percentiles: each window's own, then the median over every
    // window of every client; the whole-run histogram where no window ended.
    let windows: Vec<&Window> = runs.iter().flat_map(|run| &run.windows).collect();
    let over_windows = |pick: fn(&Window) -> f64, whole_run: f64| {
        let mut values: Vec<f64> = windows.iter().map(|w| pick(w)).collect();
        if values.is_empty() {
            whole_run
        } else {
            median(&mut values)
        }
    };
    let (whole_reads, whole_writes) = (p50_p95(&reads), p50_p95(&writes));
    let us = |pick: fn(&Window) -> f64, whole_run: f64| over_windows(pick, whole_run) / 1e3;
    set(v, "throughput_ops_s", timed.throughput);
    set(v, "read_p50_us", us(|w| w.read[0], whole_reads[0]));
    set(v, "read_p95_us", us(|w| w.read[1], whole_reads[1]));
    set(v, "write_p50_us", us(|w| w.write[0], whole_writes[0]));
    set(v, "write_p95_us", us(|w| w.write[1], whole_writes[1]));
    let retry_share = ratio(retries as f64, writes.len() as f64);
    set(v, "synergy.lock_retry_share", retry_share);
    for (stmt, hist) in spec.stmts.iter().zip(&by_stmt) {
        let name = format!("stmt.{}.p50_us", stmt.name);
        set(v, &name, hist.quantile(0.50) / 1e3);
    }
    let p50 = |name: &str| {
        let hist = spec.stmt_index(name).map(|i| &by_stmt[i]);
        hist.map_or(0.0, |h| h.quantile(0.50))
    };
    set(v, "pool.par2_x", ratio(p50("q2_join"), p50("q2_join_par2")));
    println!(
        "{} timed: {} reads, {} writes, {} windows of {} ops, {} lock retries, {} failed in {:.1} s",
        spec.name,
        reads.len(),
        writes.len(),
        windows.len(),
        spec.window,
        retries,
        timed.failed,
        args.seconds
    );
    timed
}
