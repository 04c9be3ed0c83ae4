//! The `store-feedback` workload: a durable store behind its TCP server,
//! driven by a frame writer and a feedback reader.
//!
//! The traffic is the campaign's own feedback traffic on the full-Summit
//! rung, as the program's tracer counted it (see `README.md` beside this
//! file for the derivation). Every ten virtual minutes the campaign's
//! feedback pass finds [`PASS_FRAMES`] new CG frames, each written on its
//! own as the event loop produced it and each keyed by its own id (its
//! own hash tag, so frames spread over every shard). The pass lists the
//! live namespace in one request, then reads each frame and moves it to
//! the processed namespace, one round trip per frame.
//!
//! Set-up preloads a data directory with [`PRELOAD`] processed frames,
//! then reopens it (WAL replay) and binds `StoreServer` on 127.0.0.1,
//! several times; `setup_s` is the median. The run then repeats rounds
//! until `--seconds` have passed. A round is one feedback pass, on two
//! connections driven in turn by one thread:
//!
//! - the writer `put_many`s each of the pass's 17 KB frames in its own
//!   request;
//! - the feedback reader `scan`s the live namespace (one page holds the
//!   pass), then for each frame `get_many`s it and `rename`s it into
//!   `frame:done:`, one round trip each, and finally `del_many`s the
//!   pass's processed frames in one request.
//!
//! So writes and reads meet on every shard, and every round does the
//! same requests. The benchmark keeps its own model of acknowledged
//! keys and regenerates each payload from its key, so every fetched
//! value, scan and count is checked against a computation made apart
//! from the store. At the end the directory is reopened once more:
//! recovery must replay exactly the mutations acknowledged since it was
//! created.
//!
//! The process pins itself to one CPU first (see
//! [`crate::pin_to_current_cpu`]).
//!
//! The served engine syncs its WAL with [`STORE_SYNC`]: records are
//! written and flushed to the kernel before each acknowledgement, but
//! not fsynced. With fsync the host's sync latency, which moved between
//! 0.2 ms and 4 ms (p50) from one minute to the next, decided every
//! number. The traced run still times the mutations of the first
//! [`LAYER_SPLIT_ROUNDS`] rounds through `WalShard::append` + `sync`
//! with `SyncMode::Real` (`storeserver.wal_s`).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use storeserver::proto::read_frame;
use storeserver::wal::WalShard;
use storeserver::{Request, Response, StoreClient, StoreEngine, StoreServer, SyncMode, WalOp};

use crate::report::Outcome;
use crate::spans::{now, secs_since, Recorder};
use crate::stats;
use crate::Args;

/// Shards of the durable engine (the paper's 20 Redis nodes).
pub const SHARDS: usize = 20;
/// One CG frame.
pub const PAYLOAD_BYTES: usize = 17 * 1024;
/// New frames one feedback pass finds on the full-Summit rung: 139,797
/// `feedback.frames` over the 96 ten-minute passes of a 16-hour
/// allocation (traced `summit-1x`, configuration seed).
pub const PASS_FRAMES: u64 = 1456;
/// Processed frames in the data directory before each run: the store a
/// campaign reopens after its first feedback pass.
pub const PRELOAD: u64 = PASS_FRAMES;
/// Keys per scan page: the whole live namespace in one request, as the
/// program's feedback pass lists it with one `keys`.
pub const SCAN_PAGE: u32 = 4096;
/// How the served engine syncs its WAL (see the module docs).
pub const STORE_SYNC: SyncMode = SyncMode::Virtual;
/// Reopen + bind passes timed for `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Rounds whose requests a traced run replays through the codec, an
/// in-memory engine and the WAL: the WAL replay fsyncs after every
/// mutating round trip, and a whole run of them would outlast the run.
pub const LAYER_SPLIT_ROUNDS: u64 = 2;
/// The live and processed namespaces of the feedback pass.
pub const LIVE: &str = "new";
pub const DONE: &str = "done";

/// splitmix64: the payload and key generator.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The payload stored under `key`: regenerated from the key alone, so
/// the reader can check every value without remembering it. The
/// namespace is left out, so a renamed frame keeps its bytes.
pub fn payload(seed: u64, key: &str) -> Vec<u8> {
    let id = key.splitn(3, ':').nth(2).unwrap_or(key);
    let mut x = seed ^ fnv(id);
    let mut out = Vec::with_capacity(PAYLOAD_BYTES + 8);
    while out.len() < PAYLOAD_BYTES {
        x = mix(x);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(PAYLOAD_BYTES);
    out
}

/// The key of frame `n` written in round `round` (`None`: the preload),
/// in namespace `ns`. The whole frame id is the hash tag, as in the
/// campaign's store, and it is drawn from the seed, so the seed decides
/// which shard each frame lands on.
pub fn frame_key(ns: &str, seed: u64, round: Option<u64>, n: u64) -> String {
    let (tag, r) = match round {
        Some(r) => (format!("r{r}"), r + 1),
        None => ("pre".to_string(), 0),
    };
    format!("frame:{ns}:{{{tag}-{:016x}}}", mix(seed ^ (r << 32) ^ n))
}

/// The scan pattern of the live namespace.
pub fn live_pattern() -> String {
    format!("frame:{LIVE}:{{*")
}

/// The frames of one round's pass, in the order the writer puts them.
pub fn pass_keys(seed: u64, round: u64) -> Vec<String> {
    (0..PASS_FRAMES)
        .map(|n| frame_key(LIVE, seed, Some(round), n))
        .collect()
}

/// The same frame in another namespace (same hash tag, same shard).
pub fn renamed(key: &str, to_ns: &str) -> String {
    let rest = key.splitn(3, ':').nth(2).unwrap_or(key);
    format!("frame:{to_ns}:{rest}")
}

/// Checks a scan's key set against the model's set for its pattern.
pub fn check_scan(
    pattern: &str,
    want: &BTreeSet<String>,
    got: &BTreeSet<String>,
) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let missing = want.difference(got).count();
    let extra = got.difference(want).count();
    Err(format!(
        "scan of {pattern}: {} keys, the model holds {} ({missing} missing, {extra} unknown)",
        got.len(),
        want.len()
    ))
}

/// The kinds of request the workload makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PutMany,
    GetMany,
    Scan,
    Rename,
    DelMany,
}

impl Kind {
    pub const ALL: [Kind; 5] = [
        Kind::PutMany,
        Kind::GetMany,
        Kind::Scan,
        Kind::Rename,
        Kind::DelMany,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::PutMany => "put_many",
            Kind::GetMany => "get_many",
            Kind::Scan => "scan",
            Kind::Rename => "rename",
            Kind::DelMany => "del_many",
        }
    }

    fn is_write(self) -> bool {
        matches!(self, Kind::PutMany | Kind::Rename | Kind::DelMany)
    }

    fn metrics(self) -> (&'static str, &'static str) {
        match self {
            Kind::PutMany => ("store.put_many.calls", "store.put_many.busy_s"),
            Kind::GetMany => ("store.get_many.calls", "store.get_many.busy_s"),
            Kind::Scan => ("store.scan.calls", "store.scan.busy_s"),
            Kind::Rename => ("store.rename.calls", "store.rename.busy_s"),
            Kind::DelMany => ("store.del_many.calls", "store.del_many.busy_s"),
        }
    }
}

/// One round trip as the client saw it, and what it carried. The keys
/// are kept so a traced run can push the same requests through the
/// codec, an in-memory engine and the WAL afterwards.
#[derive(Debug, Clone)]
struct Trip {
    kind: Kind,
    at: Instant,
    rtt_s: f64,
    keys: Vec<String>,
    /// For renames: the destinations, parallel to `keys`.
    to: Vec<String>,
    /// For scans: the pattern and cursor.
    pattern: String,
    cursor: u64,
    /// The round the trip belongs to.
    round: u64,
}

impl Trip {
    fn new(kind: Kind, at: Instant, rtt_s: f64, keys: Vec<String>) -> Trip {
        Trip {
            kind,
            at,
            rtt_s,
            keys,
            to: Vec::new(),
            pattern: String::new(),
            cursor: 0,
            round: 0,
        }
    }
}

/// What the run did, round trip by round trip.
#[derive(Debug, Default)]
struct Tally {
    /// Keep the keys of the first [`LAYER_SPLIT_ROUNDS`] rounds' trips
    /// (traced runs replay them).
    keep_keys: bool,
    trips: Vec<Trip>,
    attempted: u64,
    failures: Vec<String>,
    problems: Vec<String>,
    keys_put: u64,
    keys_renamed: u64,
    keys_deleted: u64,
    values_read: u64,
    scan_keys: u64,
}

impl Tally {
    /// Books a round trip of round `round` and records its span.
    fn trip(&mut self, mut trip: Trip, spans: &mut Recorder, round: u64) {
        self.attempted += 1;
        spans.since(trip.kind.name(), round, trip.at);
        trip.round = round;
        if !self.keep_keys || round >= LAYER_SPLIT_ROUNDS {
            trip.keys = Vec::new();
            trip.to = Vec::new();
        }
        self.trips.push(trip);
    }
}

/// A scratch directory of this process under the checkout's build
/// directory; removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(name: &str) -> std::io::Result<ScratchDir> {
        let dir = crate::scratch_dir().join(format!("{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn preload_keys(seed: u64) -> Vec<String> {
    (0..PRELOAD)
        .map(|n| frame_key(DONE, seed, None, n))
        .collect()
}

/// Creates the data directory with [`PRELOAD`] acknowledged records.
fn preload(dir: &Path, seed: u64) -> Result<(), String> {
    let engine = StoreEngine::open(dir, SHARDS, STORE_SYNC).map_err(|e| e.to_string())?;
    for chunk in preload_keys(seed).chunks(100) {
        let pairs = chunk
            .iter()
            .map(|k| (k.clone(), Bytes::from(payload(seed, k))))
            .collect();
        match engine.handle(Request::PutMany { pairs }) {
            Response::Count(n) if n == chunk.len() as u64 => {}
            other => return Err(format!("preload put_many answered {other:?}")),
        }
    }
    engine.sync_dirty().map_err(|e| e.to_string())?;
    Ok(())
}

/// Reopens the directory and binds the server; returns both and the
/// seconds `StoreEngine::open` alone took.
fn open_and_bind(dir: &Path) -> Result<(Arc<StoreEngine>, StoreServer, f64), String> {
    let t0 = now();
    let engine = StoreEngine::open(dir, SHARDS, STORE_SYNC).map_err(|e| e.to_string())?;
    let open_s = secs_since(t0);
    let engine = Arc::new(engine);
    let server =
        StoreServer::start(Arc::clone(&engine), "127.0.0.1:0").map_err(|e| e.to_string())?;
    Ok((engine, server, open_s))
}

pub fn run(args: &Args, spans: &mut Recorder) -> Outcome {
    let mut out = Outcome::default();
    crate::pin_to_current_cpu();
    let scratch = match ScratchDir::new("store") {
        Ok(s) => s,
        Err(e) => {
            out.check(false, || format!("scratch directory: {e}"));
            return out;
        }
    };
    let dir = scratch.0.join("data");
    if let Err(e) = preload(&dir, args.seed) {
        out.check(false, || format!("preload: {e}"));
        return out;
    }

    // Set-up: reopen (WAL replay) and bind, several times.
    let mut setups = Vec::new();
    let mut served = None;
    for i in 0..SETUP_REPEATS {
        let t0 = now();
        match open_and_bind(&dir) {
            Ok((engine, server, open_s)) => {
                setups.push(secs_since(t0));
                let rec = engine.recovery().clone();
                out.check(rec.records == PRELOAD && rec.torn_bytes == 0, || {
                    format!("reopen replayed {rec:?}, expected {PRELOAD} records")
                });
                if i + 1 == SETUP_REPEATS {
                    served = Some((engine, server, open_s, rec.records));
                } else {
                    server.stop();
                }
            }
            Err(e) => {
                out.check(false, || format!("open: {e}"));
                return out;
            }
        }
    }
    let Some((engine, server, open_s, recovered)) = served else {
        return out;
    };
    out.set("setup_s", stats::median(&setups));
    let addr = server.addr();

    let mut tally = Tally {
        keep_keys: args.trace,
        ..Tally::default()
    };
    let mut rounds = Vec::new();
    let t_start = now();
    let connected = StoreClient::connect(addr).and_then(|w| Ok((w, StoreClient::connect(addr)?)));
    let result = match connected {
        Err(e) => Err(format!("connect: {e}")),
        Ok((mut writer, mut reader)) => {
            let mut round = 0u64;
            loop {
                if round > 0 && secs_since(t_start) >= args.seconds {
                    break Ok(reader);
                }
                let t_round = now();
                let done = write_pass(&mut writer, args.seed, round, &mut tally, spans)
                    .and_then(|()| read_pass(&mut reader, args.seed, round, &mut tally, spans));
                if let Err(e) = done {
                    break Err(e);
                }
                rounds.push(secs_since(t_round));
                round += 1;
            }
        }
    };
    let window = secs_since(t_start);
    out.set("peak_rss_mib", crate::peak_rss_mib());

    // Quiescent checks: the store holds the preload and nothing else.
    let final_stats = match result {
        Err(e) => {
            out.failed_op(e);
            None
        }
        Ok(mut client) => quiescent_checks(&mut client, args.seed, &mut out),
    };
    server.stop();
    drop(engine);

    out.attempted += tally.attempted;
    out.failed += tally.failures.len() as u64;
    for f in &tally.failures {
        eprintln!("perfbench: operation failed: {f}");
    }
    out.problems.extend(tally.problems.iter().cloned());
    let mutations = tally.keys_put + tally.keys_renamed + tally.keys_deleted;

    // Recovery replays exactly what was acknowledged.
    match StoreEngine::open(&dir, SHARDS, STORE_SYNC) {
        Ok(e) => {
            let rec = e.recovery();
            let want = recovered + mutations;
            out.check(rec.records == want && rec.torn_bytes == 0, || {
                format!(
                    "final reopen replayed {} records ({} torn bytes), {want} acknowledged",
                    rec.records, rec.torn_bytes
                )
            });
        }
        Err(e) => out.check(false, || format!("final reopen: {e}")),
    }

    let trips = std::mem::take(&mut tally.trips);
    let puts: Vec<f64> = trips
        .iter()
        .filter(|t| t.kind == Kind::PutMany)
        .map(|t| t.rtt_s * 1e3)
        .collect();
    let put_lat = stats::summarize(&puts);
    let ops = mutations + tally.values_read;
    if args.trace {
        layer_metrics(
            &mut out,
            &trips,
            window,
            &tally,
            final_stats,
            open_s,
            recovered,
            args.seed,
            spans,
        );
    } else {
        out.set("wall_s", stats::median(&rounds));
        out.note("wall_s", format!("median of {} rounds", rounds.len()));
        out.set("ops_per_s", ops as f64 / window);
        out.note(
            "ops_per_s",
            "keys put, renamed and deleted plus values read".into(),
        );
        out.set("latency_p50_ms", put_lat.p50);
        out.set("latency_tail_ms", put_lat.tail);
        out.note(
            "latency_p50_ms",
            format!("put_many round trip, n={}", put_lat.count),
        );
        out.note(
            "latency_tail_ms",
            format!(
                "{} of put_many round trip, n={}",
                put_lat.tail_label, put_lat.count
            ),
        );
        out.note(
            "setup_s",
            format!("median of {SETUP_REPEATS} reopen + bind"),
        );
    }
    out
}

/// Writes one pass: a `put_many` of one frame per frame, as the event
/// loop writes each frame when it produces it.
fn write_pass(
    client: &mut StoreClient,
    seed: u64,
    round: u64,
    tally: &mut Tally,
    spans: &mut Recorder,
) -> Result<(), String> {
    for key in pass_keys(seed, round) {
        let pairs = vec![(key.clone(), Bytes::from(payload(seed, &key)))];
        let at = now();
        let result = client.put_many(pairs);
        let rtt_s = secs_since(at);
        tally.trip(Trip::new(Kind::PutMany, at, rtt_s, vec![key]), spans, round);
        let n = result.map_err(|e| format!("put_many: {e}"))?;
        tally.keys_put += n;
        if n != 1 {
            tally
                .problems
                .push(format!("put_many of one new key answered {n}"));
        }
    }
    Ok(())
}

/// One feedback pass over the acknowledged frames: scan the live
/// namespace, then fetch, check and rename each frame, then delete the
/// processed ones.
fn read_pass(
    client: &mut StoreClient,
    seed: u64,
    round: u64,
    tally: &mut Tally,
    spans: &mut Recorder,
) -> Result<(), String> {
    let want: BTreeSet<String> = pass_keys(seed, round).into_iter().collect();

    // Scan the live namespace, page by page.
    let pattern = live_pattern();
    let mut scanned = BTreeSet::new();
    let mut cursor = 0u64;
    loop {
        let at = now();
        let result = client.scan(&pattern, cursor, SCAN_PAGE);
        let rtt_s = secs_since(at);
        let mut trip = Trip::new(Kind::Scan, at, rtt_s, Vec::new());
        trip.pattern = pattern.clone();
        trip.cursor = cursor;
        tally.trip(trip, spans, round);
        let (keys, next) = result.map_err(|e| format!("scan: {e}"))?;
        tally.scan_keys += keys.len() as u64;
        scanned.extend(keys);
        match next {
            Some(c) => cursor = c,
            None => break,
        }
    }
    if let Err(e) = check_scan(&pattern, &want, &scanned) {
        tally.problems.push(e);
    }

    // Fetch, check and rename each frame, one round trip each.
    let mut done = Vec::with_capacity(scanned.len());
    for key in scanned {
        let at = now();
        let result = client.get_many(vec![key.clone()]);
        let rtt_s = secs_since(at);
        tally.trip(
            Trip::new(Kind::GetMany, at, rtt_s, vec![key.clone()]),
            spans,
            round,
        );
        let values = result.map_err(|e| format!("get_many: {e}"))?;
        match values.first() {
            Some(Some(v)) if v[..] == payload(seed, &key)[..] => tally.values_read += 1,
            Some(Some(_)) => tally.problems.push(format!("{key}: value differs")),
            _ => tally.problems.push(format!("{key}: scanned but not found")),
        }

        let to = renamed(&key, DONE);
        let at = now();
        let result = client.rename(&key, &to);
        let rtt_s = secs_since(at);
        let mut trip = Trip::new(Kind::Rename, at, rtt_s, vec![key.clone()]);
        trip.to = vec![to.clone()];
        tally.trip(trip, spans, round);
        match result {
            Ok(()) => tally.keys_renamed += 1,
            Err(e) => tally.failures.push(format!("rename {key}: {e}")),
        }
        done.push(to);
    }

    // Delete the processed frames, so every round starts from the same
    // store. The program's feedback pass leaves them in its processed
    // namespace.
    let expected = done.len() as u64;
    let at = now();
    let result = client.del_many(done.clone());
    let rtt_s = secs_since(at);
    tally.trip(Trip::new(Kind::DelMany, at, rtt_s, done), spans, round);
    let n = result.map_err(|e| format!("del_many: {e}"))?;
    tally.keys_deleted += n;
    if n != expected {
        tally
            .problems
            .push(format!("del_many of {expected} keys removed {n}"));
    }
    Ok(())
}

/// Full scans of every namespace against the model, and the server's
/// key count. Returns the server's statistics.
fn quiescent_checks(
    client: &mut StoreClient,
    seed: u64,
    out: &mut Outcome,
) -> Option<storeserver::StoreStats> {
    let preload: BTreeSet<String> = preload_keys(seed).into_iter().collect();
    for (pattern, want) in [
        (live_pattern(), BTreeSet::new()),
        (format!("frame:{DONE}:*"), preload),
        ("*".to_string(), preload_keys(seed).into_iter().collect()),
    ] {
        let mut got = BTreeSet::new();
        let mut cursor = 0;
        loop {
            out.attempted += 1;
            match client.scan(&pattern, cursor, SCAN_PAGE) {
                Ok((keys, next)) => {
                    got.extend(keys);
                    match next {
                        Some(c) => cursor = c,
                        None => break,
                    }
                }
                Err(e) => {
                    out.failed_op(format!("final scan: {e}"));
                    out.attempted -= 1;
                    return None;
                }
            }
        }
        out.check(got == want, || {
            format!(
                "final scan of {pattern}: {} keys, the model holds {}",
                got.len(),
                want.len()
            )
        });
    }
    out.attempted += 1;
    match client.stats() {
        Ok(s) => {
            out.check(s.keys == PRELOAD, || {
                format!("stats.keys = {}, the model holds {PRELOAD}", s.keys)
            });
            Some(s)
        }
        Err(e) => {
            out.attempted -= 1;
            out.failed_op(format!("stats: {e}"));
            None
        }
    }
}

/// Per-layer metrics of a traced run.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    out: &mut Outcome,
    trips: &[Trip],
    window: f64,
    tally: &Tally,
    stats_op: Option<storeserver::StoreStats>,
    open_s: f64,
    recovered: u64,
    seed: u64,
    spans: &mut Recorder,
) {
    for kind in Kind::ALL {
        let (calls, busy) = kind.metrics();
        let mine = trips.iter().filter(|t| t.kind == kind);
        out.set(calls, mine.clone().count() as f64);
        out.set(busy, mine.map(|t| t.rtt_s).sum::<f64>());
    }
    let rtts = |write: bool| -> Vec<f64> {
        trips
            .iter()
            .filter(|t| t.kind.is_write() == write)
            .map(|t| t.rtt_s * 1e3)
            .collect()
    };
    let (w, r) = (rtts(true), rtts(false));
    let mut w_sorted = w.clone();
    let mut r_sorted = r.clone();
    stats::sort(&mut w_sorted);
    stats::sort(&mut r_sorted);
    out.set("store.write_rtt_p50_ms", stats::percentile(&w_sorted, 50.0));
    out.set("store.write_rtt_p99_ms", stats::percentile(&w_sorted, 99.0));
    out.set("store.read_rtt_p50_ms", stats::percentile(&r_sorted, 50.0));
    out.set("store.read_rtt_p99_ms", stats::percentile(&r_sorted, 99.0));
    out.note("store.write_rtt_p99_ms", format!("n={}", w.len()));
    out.note("store.read_rtt_p99_ms", format!("n={}", r.len()));
    let mutations = tally.keys_put + tally.keys_renamed + tally.keys_deleted;
    out.set("store.write_ops_per_s", mutations as f64 / window);
    out.set("store.read_values_per_s", tally.values_read as f64 / window);
    out.set("store.scan_keys_per_s", tally.scan_keys as f64 / window);
    if let Some(s) = stats_op {
        out.set("store.wal_records", s.wal_records as f64);
        out.set("store.wal_syncs", s.wal_syncs as f64);
        out.set(
            "store.records_per_sync",
            s.wal_records as f64 / s.wal_syncs.max(1) as f64,
        );
        out.set("kvstore.memory_bytes", s.memory_bytes as f64);
    }
    out.set("store.recovery_records", recovered as f64);
    out.set("store.recovery_s", open_s);

    // The same requests again, through each layer on its own.
    let (split, _) = spans.time("storeserver.layer_split", None, 0, || {
        layer_split(trips, seed)
    });
    match split {
        Ok((codec, engine, wal)) => {
            out.set("storeserver.codec_s", codec);
            out.set("storeserver.engine_s", engine);
            out.set("storeserver.wal_s", wal);
            for name in [
                "storeserver.codec_s",
                "storeserver.engine_s",
                "storeserver.wal_s",
            ] {
                out.note(
                    name,
                    format!("the first {LAYER_SPLIT_ROUNDS} rounds' requests"),
                );
            }
        }
        Err(e) => out.check(false, || format!("layer split: {e}")),
    }
}

/// Rebuilds the wire requests of the recorded round trips.
fn requests_of(trip: &Trip, seed: u64) -> Vec<Request> {
    match trip.kind {
        Kind::PutMany => vec![Request::PutMany {
            pairs: trip
                .keys
                .iter()
                .map(|k| (k.clone(), Bytes::from(payload(seed, k))))
                .collect(),
        }],
        Kind::GetMany => vec![Request::GetMany {
            keys: trip.keys.clone(),
        }],
        Kind::Scan => vec![Request::Scan {
            pattern: trip.pattern.clone(),
            cursor: trip.cursor,
            count: SCAN_PAGE,
        }],
        Kind::Rename => trip
            .keys
            .iter()
            .zip(&trip.to)
            .map(|(from, to)| Request::Rename {
                from: from.clone(),
                to: to.clone(),
            })
            .collect(),
        Kind::DelMany => vec![Request::DelMany {
            keys: trip.keys.clone(),
        }],
    }
}

/// The WAL records a request appends.
fn wal_ops(req: &Request) -> Vec<WalOp> {
    match req {
        Request::PutMany { pairs } => pairs
            .iter()
            .map(|(key, value)| WalOp::Put {
                key: key.clone(),
                value: value.clone(),
            })
            .collect(),
        Request::Rename { from, to } => vec![WalOp::Rename {
            from: from.clone(),
            to: to.clone(),
        }],
        Request::DelMany { keys } => keys
            .iter()
            .map(|key| WalOp::Del { key: key.clone() })
            .collect(),
        _ => Vec::new(),
    }
}

/// Times the requests of the run's first [`LAYER_SPLIT_ROUNDS`] rounds,
/// in order, through the wire codec (request
/// and response, encode and decode), an in-memory `StoreEngine::handle`
/// (engine and kvstore), and `WalShard::append` + `sync` in a scratch
/// directory (one log per shard, synced after each round trip as the
/// server does). Returns the three totals in seconds.
fn layer_split(trips: &[Trip], seed: u64) -> Result<(f64, f64, f64), String> {
    let engine = StoreEngine::in_memory(SHARDS);
    for k in preload_keys(seed) {
        let value = Bytes::from(payload(seed, &k));
        engine.handle(Request::Put { key: k, value });
    }
    let scratch = ScratchDir::new("wal-split").map_err(|e| e.to_string())?;
    let mut wals = (0..SHARDS)
        .map(|i| {
            WalShard::open_append(&scratch.0.join(format!("shard-{i}.wal")), SyncMode::Real, 0)
        })
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| e.to_string())?;
    let cluster = engine.cluster();
    let (mut codec, mut handle, mut wal) = (0.0, 0.0, 0.0);
    let mut seq = 0u64;
    for trip in trips.iter().filter(|t| t.round < LAYER_SPLIT_ROUNDS) {
        let reqs = requests_of(trip, seed);
        // WAL: append every record of the round trip, then sync.
        let t0 = now();
        for req in &reqs {
            for op in wal_ops(req) {
                let key = match &op {
                    WalOp::Put { key, .. } | WalOp::Del { key } => key,
                    WalOp::Rename { from, .. } => from,
                };
                wals[cluster.shard_for(key)]
                    .append(&op)
                    .map_err(|e| e.to_string())?;
            }
        }
        for w in &mut wals {
            w.sync().map_err(|e| e.to_string())?;
        }
        wal += secs_since(t0);
        for req in reqs {
            seq += 1;
            let t0 = now();
            let frame = req.encode_frame(seq);
            let (_, op, body) = read_frame(&mut &frame[..])
                .map_err(|e| e.to_string())?
                .ok_or("empty request frame")?;
            let decoded = Request::decode(op, &body)?;
            codec += secs_since(t0);
            let t0 = now();
            let resp = engine.handle(decoded);
            handle += secs_since(t0);
            let t0 = now();
            let frame = resp.encode_frame(seq);
            let (_, st, body) = read_frame(&mut &frame[..])
                .map_err(|e| e.to_string())?
                .ok_or("empty response frame")?;
            let back = Response::decode(st, &body)?;
            codec += secs_since(t0);
            std::hint::black_box(back);
        }
    }
    Ok((codec, handle, wal))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(keys: &[&str]) -> BTreeSet<String> {
        keys.iter().map(|k| k.to_string()).collect()
    }

    #[test]
    fn payloads_regenerate_from_the_key_and_survive_a_rename() {
        let k = frame_key(LIVE, 9, Some(1), 7);
        assert!(k.starts_with("frame:new:{r1-"), "{k}");
        let p = payload(9, &k);
        assert_eq!(p.len(), PAYLOAD_BYTES);
        assert_eq!(p, payload(9, &k));
        assert_eq!(p, payload(9, &renamed(&k, DONE)));
        assert_ne!(p, payload(10, &k));
        assert_ne!(p, payload(9, &frame_key(LIVE, 9, Some(1), 8)));
    }

    #[test]
    fn renames_keep_the_hash_tag() {
        let k = frame_key(LIVE, 3, Some(4), 40);
        let cluster = kvstore::Cluster::new(SHARDS);
        assert_eq!(cluster.shard_for(&k), cluster.shard_for(&renamed(&k, DONE)));
    }

    #[test]
    fn a_pass_has_distinct_keys_spread_over_every_shard_by_the_seed() {
        let cluster = kvstore::Cluster::new(SHARDS);
        for seed in [1, 2] {
            let keys = pass_keys(seed, 3);
            let distinct: BTreeSet<&String> = keys.iter().collect();
            assert_eq!(distinct.len() as u64, PASS_FRAMES);
            let shards: BTreeSet<usize> = keys.iter().map(|k| cluster.shard_for(k)).collect();
            assert_eq!(shards.len(), SHARDS);
            for k in &keys {
                assert!(kvstore::glob_match(&live_pattern(), k), "{k}");
            }
        }
        assert_ne!(pass_keys(1, 3), pass_keys(2, 3));
        assert_ne!(pass_keys(1, 3), pass_keys(1, 4));
        // Neither the processed namespace nor the preload is live.
        assert!(!kvstore::glob_match(
            &live_pattern(),
            &renamed(&pass_keys(1, 3)[0], DONE)
        ));
        assert!(preload_keys(1)
            .iter()
            .all(|k| !kvstore::glob_match(&live_pattern(), k)));
    }

    #[test]
    fn scan_check_wants_exactly_the_model() {
        let want = set(&["a", "b"]);
        assert!(check_scan("p", &want, &set(&["a", "b"])).is_ok());
        let err = check_scan("p", &want, &set(&["a", "z"])).unwrap_err();
        assert!(err.contains("1 missing, 1 unknown"), "{err}");
        assert!(check_scan("p", &want, &set(&["a"])).is_err());
    }
}
