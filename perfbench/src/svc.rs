//! The chunk service, driven over loopback by one load thread.
//!
//! * `svc_stream`: an in-memory server, one long SS job, 16 multiplexed
//!   connections at batch 8. Each connection writes its `ReportDone`
//!   and `FetchChunk` as one buffer and waits for both replies (closed
//!   loop). The codec, the event loop, the shard lock, the `dls`
//!   calculator and the `LeaseTable` carry the load.
//! * `svc_churn`: a journaled server (sync `every:512`), eight short
//!   jobs in flight, each on a fresh connection: create, drive to done,
//!   close. Accept, `CreateJob`, journal records, snapshots and the
//!   per-connection and per-job state carry the load. A campaign is
//!   5000 create attempts against one server, so the lifetime job cap
//!   (1024 by default) refuses the rest; those refusals are failures.

use crate::tally::{Tally, Unit};
use crate::{e2e, metric, Cfg, Clock, Out, Rng};
use dls::sequence::schedule_all;
use dls::{Kind, LoopSpec, SchedKind, Technique};
use dls_service::protocol::{frame, LeaseId, Request, Response};
use dls_service::{ErrorCode, JobId, Server, ServiceConfig, StatsSnapshot};
use durability::{GrantEntry, Journal, JournalOptions, JournalRecord, SyncPolicy};
use resilience::LeaseTable;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::Instant;

/// Connections the stream load thread multiplexes.
pub const STREAM_CONNS: u32 = 16;
const BATCH: u32 = 8;
/// Iterations of the stream job: more than any run can schedule.
const STREAM_N: u64 = 1 << 40;
const STREAM_SETUPS: usize = 9;
/// The stream's resident set is read once this many chunks have been
/// granted: every granted lease stays in the job's table, so a read at
/// the end of the run would scale with how fast this run happened to be.
const STREAM_RSS_AT: u64 = 1 << 21;

/// Jobs the churn load thread keeps in flight.
pub const CHURN_SLOTS: usize = 8;
/// Create attempts per campaign against one server.
const CHURN_ATTEMPTS: u64 = 5_000;
const CHURN_N: u64 = 2_000;
const CHURN_KINDS: [Kind; 4] = [Kind::GSS, Kind::FAC2, Kind::TSS, Kind::STATIC];
/// Journal records between snapshots (the `dls-serverd` default).
const SNAPSHOT_EVERY: u64 = 4_096;

fn server_cfg() -> ServiceConfig {
    ServiceConfig { max_connections: 64, event_loops: 1, ..ServiceConfig::default() }
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).expect("connect to the chunk service");
    s.set_nodelay(true).expect("nodelay");
    s
}

/// Connect with `SO_LINGER` {on, 0}, so closing sends a reset instead of
/// leaving the socket in TIME_WAIT. The churn load thread opens thousands of
/// loopback connections a second; in TIME_WAIT they fill the host's
/// table (65536 buckets) within seconds, and how full a previous run
/// left it would change the next run's connect cost.
fn connect_no_time_wait(addr: SocketAddr) -> TcpStream {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        onoff: i32,
        secs: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const Linger, len: u32) -> i32;
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let stream = connect(addr);
    let linger = Linger { onoff: 1, secs: 0 };
    // SAFETY: the descriptor belongs to `stream`, which is open for the
    // whole call; `linger` outlives the call and `len` is its size.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
    assert_eq!(rc, 0, "setsockopt(SO_LINGER): {}", std::io::Error::last_os_error());
    stream
}

fn push_frame(buf: &mut Vec<u8>, req: &Request) {
    buf.extend_from_slice(&frame(&req.encode()));
}

/// Read one reply frame's payload.
fn read_payload(stream: &mut TcpStream, payload: &mut Vec<u8>) {
    let mut len = [0u8; 4];
    stream.read_exact(&mut len).expect("read reply length");
    payload.resize(u32::from_le_bytes(len) as usize, 0);
    stream.read_exact(payload).expect("read reply payload");
}

fn read_reply(stream: &mut TcpStream, payload: &mut Vec<u8>) -> Response {
    read_payload(stream, payload);
    Response::decode(payload).expect("decode reply")
}

/// Exactly-once ledger check of one job row.
fn settled_once(j: &dls_service::JobSnapshot, expect_completed: u64) -> bool {
    j.leases_granted == j.leases_completed
        && j.leases_reclaimed == 0
        && j.completed == expect_completed
        && j.scheduled == expect_completed
}

// ---------------------------------------------------------------- stream

struct StreamConn {
    stream: TcpStream,
    worker: u32,
    pending: Vec<LeaseId>,
    epoch: u32,
    awaiting_ack: bool,
}

/// Per-round-trip client split, summed over the traced phase.
#[derive(Default)]
struct ClientSplit {
    encode_ns: u64,
    write_ns: u64,
    wait_ns: u64,
    decode_ns: u64,
    trips: u64,
    /// The round-trip frames, kept for the server codec replay.
    sample_req: Vec<u8>,
    sample_resp: Vec<u8>,
}

pub fn stream(cfg: &Cfg) -> Out {
    let mut setup_s = Vec::new();
    let mut live = None;
    for _ in 0..STREAM_SETUPS {
        let t0 = Instant::now();
        let server = Server::start(server_cfg(), "127.0.0.1:0").expect("start the chunk service");
        let mut conns: Vec<StreamConn> = (0..STREAM_CONNS)
            .map(|worker| StreamConn {
                stream: connect(server.addr()),
                worker,
                pending: Vec::new(),
                epoch: 0,
                awaiting_ack: false,
            })
            .collect();
        let mut payload = Vec::new();
        let mut buf = Vec::new();
        push_frame(
            &mut buf,
            &Request::CreateJob { n: STREAM_N, kind: Kind::SS.into(), weights: vec![] },
        );
        conns[0].stream.write_all(&buf).expect("send CreateJob");
        let Response::JobCreated { job } = read_reply(&mut conns[0].stream, &mut payload) else {
            panic!("the stream job was refused");
        };
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((old, old_conns, _)) = live.replace((server, conns, job)) {
            drop(old_conns);
            old.shutdown();
        }
    }
    let (server, mut conns, job) = live.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut split = ClientSplit::default();
    let mut rtt_ms = Vec::new();
    let mut chunks = 0u64;
    let mut buf = Vec::new();
    let mut payload = Vec::new();
    let mut t_enc = vec![Instant::now(); conns.len()];
    let mut t_wrote = vec![Instant::now(); conns.len()];
    let mut rss = None;
    let before = crate::procfs::threads();
    let cpu0 = crate::procfs::thread_cpu_ns("dls-loop-0").expect("server loop thread");
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < cfg.seconds {
        if rss.is_none() && chunks >= STREAM_RSS_AT {
            rss = Some(crate::procfs::rss_mb());
        }
        for (k, c) in conns.iter_mut().enumerate() {
            t_enc[k] = Instant::now();
            buf.clear();
            if !c.pending.is_empty() {
                let leases = std::mem::take(&mut c.pending);
                push_frame(&mut buf, &Request::ReportDone { job, leases, epoch: c.epoch });
                c.awaiting_ack = true;
            }
            push_frame(&mut buf, &Request::FetchChunk { job, worker: c.worker, batch: BATCH });
            let t_encoded = Instant::now();
            c.stream.write_all(&buf).expect("write round trip");
            t_wrote[k] = Instant::now();
            if cfg.traced {
                split.encode_ns += (t_encoded - t_enc[k]).as_nanos() as u64;
                split.write_ns += (t_wrote[k] - t_encoded).as_nanos() as u64;
                // Keep one report + fetch pair for the codec replay.
                if split.sample_req.is_empty() && c.awaiting_ack {
                    split.sample_req = buf.clone();
                }
            }
        }
        for (k, c) in conns.iter_mut().enumerate() {
            if std::mem::take(&mut c.awaiting_ack) {
                read_payload(&mut c.stream, &mut payload);
                if !matches!(Response::decode(&payload), Ok(Response::Ack)) {
                    tally.record(Unit::Wrong);
                }
            }
            read_payload(&mut c.stream, &mut payload);
            let t_read = Instant::now();
            let reply = Response::decode(&payload).expect("decode reply");
            let t_done = Instant::now();
            rtt_ms.push((t_done - t_enc[k]).as_nanos() as f64 / 1e6);
            if cfg.traced {
                split.wait_ns += (t_read - t_wrote[k]).as_nanos() as u64;
                split.decode_ns += (t_done - t_read).as_nanos() as u64;
                split.trips += 1;
                if split.sample_resp.is_empty() {
                    split.sample_resp = frame(&payload);
                }
            }
            match reply {
                Response::Chunks { chunks: granted, epoch } if !granted.is_empty() => {
                    c.epoch = epoch;
                    chunks += granted.len() as u64;
                    tally.record_n(Unit::Ok, granted.len() as u64);
                    c.pending = granted.iter().map(|g| g.lease).collect();
                }
                Response::Chunks { .. } => tally.record(Unit::Pending),
                Response::Error { code, .. } => tally.record(Unit::Refused(code)),
                _ => tally.record(Unit::Wrong),
            }
        }
    }
    let timed_s = start.elapsed().as_secs_f64();
    let cpu_ns = crate::procfs::thread_cpu_ns("dls-loop-0").expect("server loop thread") - cpu0;
    let rq_wait_ms =
        crate::procfs::runqueue_wait_ns(&before, &crate::procfs::threads()) as f64 / 1e6;

    // Settle what is still leased, then check the ledger: every granted
    // chunk settled exactly once, nothing reclaimed.
    for c in conns.iter_mut().filter(|c| !c.pending.is_empty()) {
        buf.clear();
        let leases = std::mem::take(&mut c.pending);
        push_frame(&mut buf, &Request::ReportDone { job, leases, epoch: c.epoch });
        c.stream.write_all(&buf).expect("final report");
        tally.verify(matches!(read_reply(&mut c.stream, &mut payload), Response::Ack));
    }
    let snap = server.snapshot();
    let row = snap.jobs.iter().find(|j| j.job == job);
    tally.verify(row.is_some_and(|j| settled_once(j, chunks) && !j.done));
    let rss = rss.unwrap_or_else(crate::procfs::rss_mb);
    drop(conns);
    server.shutdown();

    let mut out = Out::new(tally);
    out.e2e = e2e(&setup_s, rss, out.tally, chunks as f64 / timed_s, &mut rtt_ms);
    let rtt_sorted = rtt_ms;
    out.named = vec![
        metric("chunks_per_s", chunks as f64 / timed_s, "1/s", Clock::Wall),
        metric(
            "fetch_p50_us",
            crate::stats::percentile(&rtt_sorted, 50.0) * 1e3,
            "us",
            Clock::Wall,
        ),
        metric(
            "fetch_p99_us",
            crate::stats::percentile(&rtt_sorted, 99.0) * 1e3,
            "us",
            Clock::Wall,
        ),
        metric(
            "fetch_mean_us",
            rtt_sorted.iter().sum::<f64>() / rtt_sorted.len() as f64 * 1e3,
            "us",
            Clock::Wall,
        ),
    ];

    if cfg.traced {
        let trips = split.trips as f64;
        let per_trip = |ns: u64| ns as f64 / trips;
        let codec_ns = server_codec_ns(&split.sample_req, &split.sample_resp);
        let calc_ns = ss_chunk_calc_ns();
        let lease_ns = grant_settle_ns();
        let cpu_per_chunk = cpu_ns as f64 / chunks as f64;
        // A round trip settles and grants BATCH chunks.
        let codec_per_chunk = codec_ns / f64::from(BATCH);
        let unattributed = cpu_per_chunk - codec_per_chunk - calc_ns - lease_ns;
        out.layers = vec![
            metric("client.encode_ns", per_trip(split.encode_ns), "ns", Clock::Wall),
            metric("client.write_us", per_trip(split.write_ns) / 1e3, "us", Clock::Wall),
            metric("client.wait_us", per_trip(split.wait_ns) / 1e3, "us", Clock::Wall),
            metric("client.decode_ns", per_trip(split.decode_ns), "ns", Clock::Wall),
            metric("protocol.server_codec_ns", codec_ns, "ns", Clock::Wall),
            metric("dls.ss_chunk_calc_ns", calc_ns, "ns", Clock::Wall),
            metric("resilience.grant_settle_ns", lease_ns, "ns", Clock::Wall),
            metric("server.cpu_ns_per_chunk", cpu_per_chunk, "ns", Clock::Wall),
            metric("server.unattributed_ns_per_chunk", unattributed, "ns", Clock::Wall),
            metric("os.svc_stream.runqueue_wait_ms", rq_wait_ms, "ms", Clock::Wall),
        ];
        let parts = vec![
            ("encode", per_trip(split.encode_ns) / 1e3),
            ("write", per_trip(split.write_ns) / 1e3),
            ("wait", per_trip(split.wait_ns) / 1e3),
            ("decode", per_trip(split.decode_ns) / 1e3),
        ];
        out.recon.push(crate::recon::Recon {
            workload: "svc_stream",
            what: "client encode+write+wait+decode per round trip against the untraced mean round trip",
            unit: "us",
            parts,
            total_name: "untraced_rtt_us",
            total: cfg.untraced_metric("fetch_mean_us").expect("untraced run first"),
            tolerance: 0.10,
        });
        out.recon.push(crate::recon::Recon {
            workload: "svc_stream",
            what: "replayed server layers plus unattributed against dls-loop-0 CPU per chunk",
            unit: "ns",
            parts: vec![
                ("protocol_codec", codec_per_chunk),
                ("dls_calc", calc_ns),
                ("lease_grant_settle", lease_ns),
                ("unattributed", unattributed),
            ],
            total_name: "server_cpu_ns_per_chunk",
            total: cpu_per_chunk,
            tolerance: 1e-9,
        });
    }
    out
}

/// Server-side codec cost of one round trip, replayed: decode the
/// `ReportDone` + `FetchChunk` frames, encode the `Ack` + `Chunks`.
fn server_codec_ns(req_frames: &[u8], resp_frame: &[u8]) -> f64 {
    const REPS: u32 = 100_000;
    let mut reqs = Vec::new();
    let mut at = 0;
    while at + 4 <= req_frames.len() {
        let len = u32::from_le_bytes(req_frames[at..at + 4].try_into().expect("4 bytes")) as usize;
        reqs.push(&req_frames[at + 4..at + 4 + len]);
        at += 4 + len;
    }
    let resp = Response::decode(&resp_frame[4..]).expect("recorded reply decodes");
    let t0 = Instant::now();
    for _ in 0..REPS {
        for r in &reqs {
            std::hint::black_box(Request::decode(std::hint::black_box(r)).expect("decode"));
        }
        std::hint::black_box(Response::Ack.encode());
        std::hint::black_box(std::hint::black_box(&resp).encode());
    }
    t0.elapsed().as_nanos() as f64 / f64::from(REPS)
}

/// The SS job's chunk sequence replayed through the calculator: ns per
/// chunk.
fn ss_chunk_calc_ns() -> f64 {
    let spec = LoopSpec::new(2_000_000, 8);
    let t0 = Instant::now();
    let n = std::hint::black_box(schedule_all(&spec, &Technique::ss())).len();
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// `LeaseTable::grant` plus `complete` per chunk, replayed in batches
/// of [`BATCH`] as the server grants them.
fn grant_settle_ns() -> f64 {
    const CHUNKS: u64 = 2_000_000;
    let mut table = LeaseTable::new();
    let mut ids = Vec::with_capacity(BATCH as usize);
    let t0 = Instant::now();
    for lo in (0..CHUNKS).step_by(BATCH as usize) {
        ids.clear();
        for i in lo..lo + u64::from(BATCH) {
            ids.push(table.grant((i % 16) as u32, i, i + 1, i));
        }
        for &id in &ids {
            table.complete(id).expect("settle a fresh lease");
        }
    }
    let ns = t0.elapsed().as_nanos() as f64 / CHUNKS as f64;
    std::hint::black_box(table.len());
    ns
}

// ----------------------------------------------------------------- churn

#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Next write is `CreateJob`.
    Create,
    /// Next write is a (report +) fetch.
    Drive,
}

struct Slot {
    stream: Option<TcpStream>,
    phase: Phase,
    job: JobId,
    epoch: u32,
    pending: Vec<LeaseId>,
    awaiting_ack: bool,
    covered: u64,
    t_start: Instant,
    /// When the slot's last job or attempt ended.
    closed_at: Option<Instant>,
    /// When the slot found no attempt left to start.
    idle_since: Option<Instant>,
}

struct Campaign {
    setup_s: f64,
    wall_s: f64,
    completed: u64,
    job_ms: Vec<f64>,
    tally: Tally,
    /// Slot time, seconds, for the occupancy reconciliation: in jobs, in
    /// refused attempts, between one attempt's end and the next one's
    /// connect, and with no attempt left to start.
    busy_s: f64,
    refused_s: f64,
    gap_s: f64,
    idle_s: f64,
    server_cpu_ns: u64,
    runqueue_wait_ns: u64,
    /// Resident set with the campaign's server state still live.
    rss_mb: f64,
    snap: StatsSnapshot,
    drained: StatsSnapshot,
}

fn campaign(dir: &Path, rng: &mut Rng) -> Campaign {
    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    let mut jopts = JournalOptions::new(dir);
    jopts.sync = SyncPolicy::EveryN(512);
    let server = Server::start_with_journal(server_cfg(), "127.0.0.1:0", jopts, SNAPSHOT_EVERY)
        .expect("start the journaled chunk service");
    let addr = server.addr();
    let setup_s = t0.elapsed().as_secs_f64();

    let mut slots: Vec<Slot> = (0..CHURN_SLOTS)
        .map(|_| Slot {
            stream: None,
            phase: Phase::Create,
            job: 0,
            epoch: 0,
            pending: Vec::new(),
            awaiting_ack: false,
            covered: 0,
            t_start: Instant::now(),
            closed_at: None,
            idle_since: None,
        })
        .collect();
    let mut tally = Tally::default();
    let mut job_ms = Vec::new();
    let (mut busy_s, mut refused_s, mut gap_s, mut idle_s) = (0.0, 0.0, 0.0, 0.0f64);
    let mut attempts = 0u64;
    let mut completed = 0u64;
    let mut buf = Vec::new();
    let mut payload = Vec::new();
    let before = crate::procfs::threads();
    let cpu0 = crate::procfs::thread_cpu_ns("dls-loop-0").expect("server loop thread");
    let start = Instant::now();
    loop {
        // Write phase: one buffer per slot with work.
        for s in slots.iter_mut() {
            if s.stream.is_none() {
                if attempts == CHURN_ATTEMPTS {
                    s.idle_since.get_or_insert_with(Instant::now);
                    continue;
                }
                attempts += 1;
                s.t_start = Instant::now();
                if let Some(t) = s.closed_at {
                    gap_s += (s.t_start - t).as_secs_f64();
                }
                s.stream = Some(connect_no_time_wait(addr));
                s.phase = Phase::Create;
            }
            buf.clear();
            match s.phase {
                Phase::Create => {
                    let kind = SchedKind::from(CHURN_KINDS[rng.below(CHURN_KINDS.len())]);
                    push_frame(&mut buf, &Request::CreateJob { n: CHURN_N, kind, weights: vec![] });
                }
                Phase::Drive => {
                    if !s.pending.is_empty() {
                        let leases = std::mem::take(&mut s.pending);
                        push_frame(
                            &mut buf,
                            &Request::ReportDone { job: s.job, leases, epoch: s.epoch },
                        );
                        s.awaiting_ack = true;
                    }
                    push_frame(
                        &mut buf,
                        &Request::FetchChunk { job: s.job, worker: 0, batch: BATCH },
                    );
                }
            }
            s.stream.as_mut().expect("connected").write_all(&buf).expect("write churn request");
        }
        if slots.iter().all(|s| s.stream.is_none()) {
            break;
        }
        // Read phase: every reply owed.
        for s in slots.iter_mut() {
            let Some(stream) = s.stream.as_mut() else { continue };
            if std::mem::take(&mut s.awaiting_ack) {
                let ack = read_reply(stream, &mut payload);
                if ack != Response::Ack {
                    tally.record(Unit::Wrong);
                }
            }
            let mut closed = true;
            match (s.phase, read_reply(stream, &mut payload)) {
                (Phase::Create, Response::JobCreated { job }) => {
                    s.job = job;
                    s.covered = 0;
                    s.phase = Phase::Drive;
                    closed = false;
                }
                (Phase::Create, Response::Error { code, .. }) => {
                    tally.record(Unit::Refused(code));
                    refused_s += s.t_start.elapsed().as_secs_f64();
                }
                (Phase::Drive, Response::Chunks { chunks, epoch }) => {
                    s.epoch = epoch;
                    if chunks.is_empty() {
                        tally.record(Unit::Pending);
                    }
                    s.covered += chunks.iter().map(|g| g.hi - g.lo).sum::<u64>();
                    s.pending = chunks.iter().map(|g| g.lease).collect();
                    closed = false;
                }
                (Phase::Drive, Response::Error { code: ErrorCode::JobFinished, .. }) => {
                    let secs = s.t_start.elapsed().as_secs_f64();
                    job_ms.push(secs * 1e3);
                    busy_s += secs;
                    completed += 1;
                    tally.check(s.covered == CHURN_N);
                }
                (_, Response::Error { code, .. }) => tally.record(Unit::Refused(code)),
                _ => tally.record(Unit::Wrong),
            }
            if closed {
                s.stream = None;
                s.closed_at = Some(Instant::now());
            }
        }
    }
    let end = Instant::now();
    let wall_s = (end - start).as_secs_f64();
    for s in &slots {
        if let Some(i) = s.idle_since {
            idle_s += (end - i).as_secs_f64();
            gap_s += s.closed_at.map_or(0.0, |c| (i - c).as_secs_f64());
        }
    }
    let server_cpu_ns =
        crate::procfs::thread_cpu_ns("dls-loop-0").expect("server loop thread") - cpu0;
    let runqueue_wait_ns = crate::procfs::runqueue_wait_ns(&before, &crate::procfs::threads());
    let snap = server.snapshot();
    for j in &snap.jobs {
        tally.verify(j.done && settled_once(j, j.n));
    }
    tally.verify(snap.totals.jobs_created == completed);
    let rss_mb = crate::procfs::rss_mb();
    let drained = server.shutdown();
    let _ = std::fs::remove_dir_all(dir);
    Campaign {
        setup_s,
        wall_s,
        completed,
        job_ms,
        tally,
        busy_s,
        refused_s,
        gap_s,
        idle_s,
        server_cpu_ns,
        runqueue_wait_ns,
        rss_mb,
        snap,
        drained,
    }
}

pub fn churn(cfg: &Cfg) -> Out {
    let mut rng = Rng::new(cfg.seed);
    let dir = cfg.work_dir.join("churn-journal");
    let mut runs = Vec::new();
    let start = Instant::now();
    while runs.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        runs.push(campaign(&dir, &mut rng));
    }

    let mut tally = Tally::default();
    for r in &runs {
        tally.add(r.tally);
    }
    let med = crate::stats::median;
    let setup_s: Vec<f64> = runs.iter().map(|r| r.setup_s).collect();
    let jobs_per_s: Vec<f64> = runs.iter().map(|r| r.completed as f64 / r.wall_s).collect();
    let mut job_ms: Vec<f64> = runs.iter().flat_map(|r| r.job_ms.iter().copied()).collect();
    let rss: Vec<f64> = runs.iter().map(|r| r.rss_mb).collect();
    let mut out = Out::new(tally);
    out.e2e = e2e(&setup_s, med(&rss), out.tally, med(&jobs_per_s), &mut job_ms);
    let job_sorted = job_ms;
    out.named = vec![
        metric("jobs_per_s", med(&jobs_per_s), "1/s", Clock::Wall),
        metric("job_p50_ms", crate::stats::percentile(&job_sorted, 50.0), "ms", Clock::Wall),
        metric("job_p99_ms", crate::stats::percentile(&job_sorted, 99.0), "ms", Clock::Wall),
        metric("campaigns", runs.len() as f64, "count", Clock::Count),
    ];

    if cfg.traced {
        let last = runs.last().expect("at least one campaign");
        let per_job = |v: u64| v as f64 / last.completed as f64;
        let jt = &last.drained.journal;
        let refused = CHURN_ATTEMPTS - last.snap.totals.jobs_created;
        let (append_ns, commit_us, fsync_us) = journal_replay(
            &cfg.work_dir.join("journal-replay"),
            per_job(jt.journal_records),
            &mut rng,
        );
        out.layers = vec![
            metric("server.cpu_us_per_job", per_job(last.server_cpu_ns) / 1e3, "us", Clock::Wall),
            metric("server.conn_rows", last.snap.conns.len() as f64, "count", Clock::Count),
            metric("server.job_rows", last.snap.jobs.len() as f64, "count", Clock::Count),
            metric("server.stats_bytes", last.snap.to_json().len() as f64, "bytes", Clock::Count),
            metric("server.refused_creates", refused as f64, "count", Clock::Count),
            metric(
                "durability.records_per_job",
                per_job(jt.journal_records),
                "count",
                Clock::Count,
            ),
            metric("durability.bytes_per_job", per_job(jt.journal_bytes), "bytes", Clock::Count),
            metric("durability.fsyncs", jt.fsyncs as f64, "count", Clock::Count),
            metric("durability.snapshots", jt.snapshots as f64, "count", Clock::Count),
            metric("durability.append_ns", append_ns, "ns", Clock::Wall),
            metric("durability.commit_us", commit_us, "us", Clock::Wall),
            metric("durability.fsync_us", fsync_us, "us", Clock::Wall),
            metric(
                "os.svc_churn.runqueue_wait_ms",
                last.runqueue_wait_ns as f64 / 1e6,
                "ms",
                Clock::Wall,
            ),
        ];
        // A slot always holds a job or a refused attempt, waits for the
        // load thread to start its next attempt, or has nothing left to start,
        // so the four add up to slots x campaign wall.
        out.recon.push(crate::recon::Recon {
            workload: "svc_churn",
            what: "slot time in jobs, refused creates, between attempts and ramp-down against slots x campaign wall",
            unit: "s",
            parts: vec![
                ("jobs", last.busy_s),
                ("refused", last.refused_s),
                ("between_attempts", last.gap_s),
                ("ramp_down", last.idle_s),
            ],
            total_name: "slots_x_wall_s",
            total: CHURN_SLOTS as f64 * last.wall_s,
            tolerance: 0.05,
        });
    }
    out
}

/// Replay a churn record mix through a fresh journal on the same
/// filesystem: per job a `JobCreated`, `Granted`/`Settled` pairs of
/// [`BATCH`] leases and a `JobFinished`, committed once per round of
/// [`CHURN_SLOTS`] jobs' requests as the event loop would. Returns ns
/// per append, us per commit and us per forced fsync.
fn journal_replay(dir: &Path, records_per_job: f64, rng: &mut Rng) -> (f64, f64, f64) {
    const JOBS: u64 = 1_024;
    const FSYNCS: usize = 20;
    let _ = std::fs::remove_dir_all(dir);
    let mut jopts = JournalOptions::new(dir);
    jopts.sync = SyncPolicy::EveryN(512);
    let (mut journal, _) = Journal::open(jopts).expect("open the replay journal");
    let pairs = ((records_per_job - 2.0) / 2.0).round().max(1.0) as u64;
    let (mut append_ns, mut appends, mut commit_ns, mut commits) = (0u128, 0u64, 0u128, 0u64);
    let mut lease = 0u64;
    let mut round: Vec<JournalRecord> = Vec::new();
    for job in 0..JOBS {
        let kind = SchedKind::from(CHURN_KINDS[rng.below(CHURN_KINDS.len())]);
        round.push(JournalRecord::JobCreated { job, n: CHURN_N, kind, weights: vec![] });
        let chunk = CHURN_N / (pairs * u64::from(BATCH));
        for p in 0..pairs {
            let grants: Vec<GrantEntry> = (0..u64::from(BATCH))
                .map(|b| {
                    let lo = (p * u64::from(BATCH) + b) * chunk;
                    lease += 1;
                    GrantEntry { lease, worker: 0, lo, hi: lo + chunk, from_pool: false }
                })
                .collect();
            let leases = grants.iter().map(|g| g.lease).collect();
            let hi = grants.last().map_or(0, |g| g.hi);
            round.push(JournalRecord::Granted {
                job,
                step: (p + 1) * u64::from(BATCH),
                scheduled: hi,
                grants,
            });
            round.push(JournalRecord::Settled { job, leases });
        }
        round.push(JournalRecord::JobFinished { job });
        if (job + 1) % CHURN_SLOTS as u64 == 0 {
            for rec in round.drain(..) {
                let t0 = Instant::now();
                journal.append(&rec);
                append_ns += t0.elapsed().as_nanos();
                appends += 1;
            }
            let t0 = Instant::now();
            journal.commit().expect("commit the replay journal");
            commit_ns += t0.elapsed().as_nanos();
            commits += 1;
        }
    }
    let mut fsync_us = Vec::new();
    for _ in 0..FSYNCS {
        journal.append(&JournalRecord::JobFinished { job: 0 });
        let t0 = Instant::now();
        journal.sync().expect("fsync the replay journal");
        fsync_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    (
        append_ns as f64 / appends as f64,
        commit_ns as f64 / 1e3 / commits as f64,
        crate::stats::median(&fsync_us),
    )
}
