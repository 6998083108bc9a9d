//! The serve-mixed workload: an open loop from one thread over at most
//! `nproc` pipelined keep-alive connections, driving an in-process
//! `hms-serve` (`ServerConfig` defaults, tenants `k80` and `c2050`) at
//! a ladder of fixed offered rates.
//!
//! Latency runs from each request's *scheduled* arrival, so a stall is
//! charged to every request queued behind it. Refused (429, 503, 504)
//! and unanswered requests count as failures and as misses of the
//! latency limit. A rate meets the limit only when its tail latency is
//! within [`LIMIT_MS`] and the backlog — requests already older than
//! the limit and still unanswered — is no larger at the end of its
//! window than at its start (zero).
//!
//! `BENCHMARK.json` does not gate this workload: on a two-vCPU machine
//! its latencies depend on where the scheduler puts the generator, the
//! event loop and the workers far more than any allowed bound (see
//! README.md).

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use hms_core::Predictor;
use hms_kernels::Scale;
use hms_serve::wire::v1::PredictRequest;
use hms_serve::{Advisor, ConfigRegistry, Effort, Metrics, ServerConfig, ServerHandle};

use crate::inputs::{self, Req, ServeMix, TENANTS};
use crate::layers::{self, Probe, ProbeKernel};
use crate::search::Kernel;
use crate::spans::Spans;
use crate::stats::Summary;
use crate::{metric, Args, Digest, Metric, Report};

/// Tail latency limit a rate must meet.
const LIMIT_MS: f64 = 50.0;
/// Offered rates (req/s), ascending. The first is the reference rate.
const RATES: [f64; 3] = [1000.0, 2000.0, 8000.0];
/// Share of the window spent at the reference rate; the rest is split
/// evenly over the other rates.
const REFERENCE_SHARE: f64 = 0.5;
/// Requests in flight past which a rate is abandoned as overloaded.
const MAX_IN_FLIGHT: usize = 4096;
/// How long the generator spins after a send before it blocks.
const SPIN_NS: u64 = 300_000;
/// How long the tail of a window may take to drain before the rest
/// counts as timed out.
const DRAIN: Duration = Duration::from_secs(5);

pub fn render_request(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One complete response at the head of `buf`: `(length, status, body
/// range)`. The server's header block is fixed-shape.
fn parse_response(buf: &[u8]) -> Option<(usize, u16, std::ops::Range<usize>)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = &buf[..head_end];
    let status: u16 = std::str::from_utf8(head.get(9..12)?).ok()?.parse().ok()?;
    let at = head.windows(15).position(|w| w == b"content-length:")?;
    let len = head[at + 15..]
        .iter()
        .skip_while(|b| **b == b' ')
        .take_while(|b| b.is_ascii_digit())
        .fold(0usize, |acc, b| acc * 10 + usize::from(b - b'0'));
    let body = head_end + 4..head_end + 4 + len;
    (buf.len() >= body.end).then_some((body.end, status, body))
}

fn connect(addr: SocketAddr) -> TcpStream {
    for _ in 0..100 {
        if let Ok(s) = TcpStream::connect(addr) {
            s.set_nodelay(true).ok();
            return s;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("cannot connect to the benchmark server at {addr}");
}

/// A blocking keep-alive client, for warm-up and closed-loop probes.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        let s = connect(addr);
        s.set_read_timeout(Some(Duration::from_secs(60))).ok();
        Client {
            writer: s.try_clone().expect("clones stream"),
            reader: BufReader::new(s),
        }
    }

    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.writer.write_all(&render_request(path, body))?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let mut len = 0usize;
        loop {
            line.clear();
            self.reader.read_line(&mut line)?;
            let l = line.trim_end().to_ascii_lowercase();
            if l.is_empty() {
                break;
            }
            if let Some(v) = l.strip_prefix("content-length:") {
                len = v.trim().parse().unwrap_or(0);
            }
        }
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok((status, String::from_utf8_lossy(&body).into_owned()))
    }
}

fn spawn(tenants: &[(&str, Predictor)]) -> ServerHandle {
    let mut registry: Option<ConfigRegistry> = None;
    for (name, predictor) in tenants {
        let advisor = Advisor::new(predictor.cfg.clone(), predictor.clone());
        registry = Some(match registry {
            None => ConfigRegistry::new(*name, advisor),
            Some(r) => r.with(*name, advisor),
        });
    }
    ServerConfig::new()
        .bind("127.0.0.1:0")
        .spawn(registry.expect("at least one tenant"))
        .expect("binds an ephemeral port")
}

fn served_tenants() -> Vec<(&'static str, Predictor)> {
    TENANTS
        .iter()
        .map(|t| (*t, Predictor::new(inputs::tenant_config(t))))
        .collect()
}

/// Counter and histogram deltas between two `/metrics` renderings.
struct MetricsDelta<'a> {
    before: &'a str,
    after: &'a str,
}

impl MetricsDelta<'_> {
    fn get(&self, series: &str) -> f64 {
        Metrics::scrape_counter(self.after, series).unwrap_or(0.0)
            - Metrics::scrape_counter(self.before, series).unwrap_or(0.0)
    }

    /// Median request duration over every route, interpolated inside
    /// the `/metrics` latency buckets (ms).
    fn server_p50_ms(&self) -> f64 {
        let buckets = |text: &str| -> Vec<(f64, f64)> {
            let mut by_le: Vec<(f64, f64)> = Vec::new();
            for line in text
                .lines()
                .filter(|l| l.starts_with("hms_request_duration_seconds_bucket{"))
            {
                let Some(le) = line.split("le=\"").nth(1).and_then(|r| r.split('"').next()) else {
                    continue;
                };
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::INFINITY)
                };
                let n: f64 = line
                    .rsplit(' ')
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0.0);
                match by_le.iter_mut().find(|(b, _)| *b == le) {
                    Some(e) => e.1 += n,
                    None => by_le.push((le, n)),
                }
            }
            by_le.sort_by(|a, b| a.0.total_cmp(&b.0));
            by_le
        };
        let (a, b) = (buckets(self.after), buckets(self.before));
        let cum: Vec<(f64, f64)> = a
            .iter()
            .map(|(le, n)| {
                (
                    *le,
                    n - b.iter().find(|(l, _)| l == le).map_or(0.0, |x| x.1),
                )
            })
            .collect();
        let total = cum.last().map_or(0.0, |c| c.1);
        let half = total / 2.0;
        let mut prev = (0.0, 0.0);
        for &(le, n) in &cum {
            if n >= half && total > 0.0 {
                let hi = if le.is_finite() { le } else { prev.0 };
                let frac = if n > prev.1 {
                    (half - prev.1) / (n - prev.1)
                } else {
                    1.0
                };
                return 1e3 * (prev.0 + (hi - prev.0) * frac);
            }
            prev = (le, n);
        }
        0.0
    }
}

/// The server-side per-layer metrics of one measured window.
fn server_metrics(
    d: &MetricsDelta,
    client_p50_ms: f64,
    queue_max: f64,
    late_ms: f64,
    n: usize,
    out: &mut Vec<Metric>,
) {
    let server = d.server_p50_ms();
    let hits = d.get("hms_prediction_cache_hits_total") + d.get("hms_search_cache_hits_total");
    let misses =
        d.get("hms_prediction_cache_misses_total") + d.get("hms_search_cache_misses_total");
    out.push(metric("serve.server_ms_p50", "ms", server, n));
    out.push(metric(
        "serve.client_minus_server_ms",
        "ms",
        client_p50_ms - server,
        n,
    ));
    out.push(metric(
        "serve.cache_hit_ratio",
        "ratio",
        hits / (hits + misses).max(1.0),
        n,
    ));
    out.push(metric(
        "serve.coalesced_per_leader",
        "ratio",
        d.get("hms_coalesced_requests_total") / d.get("hms_singleflight_leaders_total").max(1.0),
        n,
    ));
    out.push(metric("serve.shed", "count", d.get("hms_shed_total"), n));
    out.push(metric("serve.queue_depth_max", "jobs", queue_max, n));
    out.push(metric(
        "serve.engine_cands",
        "count",
        d.get("hms_engine_candidates_evaluated_total"),
        n,
    ));
    out.push(metric("serve.gen_late_ms", "ms", late_ms, n));
}

fn queue_depth(handle: &ServerHandle) -> f64 {
    Metrics::scrape_counter(&handle.metrics().render(), "hms_queue_depth").unwrap_or(0.0)
}

/// Serve the search workloads' own queries over HTTP, closed loop, each
/// once cold and once more hot, for the server's per-layer metrics.
pub fn probe_server(p: &Probe, spans: &mut Spans, out: &mut Vec<Metric>) {
    let handle = spawn(&[("k80", p.predictor.clone())]);
    let mut client = Client::new(handle.addr());
    let mut requests: Vec<(String, String)> = p
        .requests()
        .into_iter()
        .filter(|(path, _)| path == "/v1/predict")
        .take(6)
        .collect();
    // One search: the kernel with the smallest placement space.
    if let Some(k) = p.kernels.iter().min_by_key(|k| k.space.len()) {
        requests.push((
            "/v1/search".into(),
            format!(
                "{{\"kernel\":\"{}\",\"scale\":\"{}\",\"top\":5}}",
                k.name,
                p.scale.as_str()
            ),
        ));
    }
    let before = handle.metrics().render();
    let mut lat = Vec::new();
    let mut queue_max: f64 = 0.0;
    for (i, (path, body)) in requests.iter().enumerate() {
        for _ in 0..2 {
            let t0 = Instant::now();
            let r = spans.span("serve.request", i as u64, |_| client.post(path, body));
            lat.push(t0.elapsed().as_secs_f64() * 1e3);
            assert!(matches!(r, Ok((200, _))), "probe request failed: {r:?}");
            queue_max = queue_max.max(queue_depth(&handle));
        }
    }
    let after = handle.metrics().render();
    drop(client);
    handle.shutdown();
    let d = MetricsDelta {
        before: &before,
        after: &after,
    };
    server_metrics(
        &d,
        crate::stats::median(&lat),
        queue_max,
        0.0,
        lat.len(),
        out,
    );
}

// ---------------------------------------------------------------------
// the open loop
// ---------------------------------------------------------------------

/// Readiness waiting for the generator: std has no poll, so `ppoll(2)`
/// (nanosecond timeout) is declared here, plus a tighter timer slack so
/// the generator wakes on schedule instead of up to 50 µs late.
mod sys {
    use std::time::Duration;

    #[repr(C)]
    pub struct PollFd {
        pub fd: i32,
        pub events: i16,
        pub revents: i16,
    }

    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    pub const POLLIN: i16 = 0x1;
    pub const POLLOUT: i16 = 0x4;

    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
        fn prctl(option: i32, ...) -> i32;
    }

    /// Block until one of `fds` is ready or `timeout` passes.
    pub fn wait(fds: &mut [PollFd], timeout: Duration) {
        let ts = Timespec {
            tv_sec: timeout.as_secs() as i64,
            tv_nsec: i64::from(timeout.subsec_nanos()),
        };
        // SAFETY: `fds` is an exclusively borrowed array of `fds.len()`
        // records with the C `struct pollfd` layout, `ts` outlives the
        // call, and a null sigmask leaves the signal mask unchanged.
        unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    }

    /// Let this thread's timed waits expire within 1 µs.
    pub fn tight_timer_slack() {
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK reads one unsigned long argument and
        // changes only the calling thread's timer slack.
        unsafe { prctl(PR_SET_TIMERSLACK, 1_000u64) };
    }
}

/// Sub-windows a rate's window is split into: tails are taken in each
/// and their median reported, so one stall of the box does not decide a
/// run.
const SUB_WINDOWS: u64 = 10;

/// Every distinct request sent in the run and the first answer to it.
#[derive(Default)]
struct Log {
    distinct: Vec<Req>,
    index: HashMap<String, usize>,
    first: Vec<Option<String>>,
    /// `ranked_total` of each distinct search's answer.
    cands: Vec<f64>,
    /// Requests whose repeats or burst copies were answered differently.
    differing: Vec<String>,
}

impl Log {
    fn intern(&mut self, req: &Req) -> usize {
        if let Some(&i) = self.index.get(&req.body) {
            return i;
        }
        self.index.insert(req.body.clone(), self.distinct.len());
        self.distinct.push(req.clone());
        self.first.push(None);
        self.cands.push(0.0);
        self.distinct.len() - 1
    }

    fn answer(&mut self, i: usize, body: &[u8]) {
        match &self.first[i] {
            Some(first) if first.as_bytes() != body => {
                self.differing.push(self.distinct[i].body.clone())
            }
            Some(_) => {}
            None => {
                let body = String::from_utf8_lossy(body).into_owned();
                if self.distinct[i].path == "/v1/search" {
                    self.cands[i] = hms_serve::decode(&body)
                        .ok()
                        .and_then(|v| v.get("ranked_total").and_then(|x| x.as_f64()))
                        .unwrap_or(0.0);
                }
                self.first[i] = Some(body);
            }
        }
    }

    fn is_search(&self, i: usize) -> bool {
        self.distinct[i].path == "/v1/search"
    }
}

struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    /// In-flight requests on this connection, oldest first (HTTP/1.1
    /// pipelining answers in order): `(sent index, due ns)`.
    due: VecDeque<(usize, u64)>,
}

/// One sent request: status 0 means it was never answered.
struct Sent {
    req: usize,
    due_ns: u64,
    status: u16,
    latency_ms: f64,
}

struct Window {
    rate: f64,
    secs: f64,
    sent: Vec<Sent>,
    late_ms: Vec<f64>,
    /// Requests older than the limit and unanswered when the window ended.
    backlog_end: usize,
    queue_max: f64,
    /// Seconds from the window's start to its last answer.
    wall_s: f64,
}

impl Window {
    fn failed(&self) -> usize {
        self.sent.iter().filter(|s| s.status != 200).count()
    }

    /// Each sub-window's tail (every failure a miss) and its level.
    fn sub_tails(&self, keep: impl Fn(&Sent) -> bool) -> Vec<(f64, f64)> {
        let span = (self.secs * 1e9) as u64 / SUB_WINDOWS + 1;
        let mut out = Vec::new();
        for k in 0..SUB_WINDOWS {
            let mut l: Vec<f64> = self
                .sent
                .iter()
                .filter(|s| s.due_ns / span == k && keep(s))
                .map(|s| {
                    if s.status == 200 {
                        s.latency_ms
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            if !l.is_empty() {
                l.sort_by(f64::total_cmp);
                out.push(crate::stats::tail_sorted(&l));
            }
        }
        out
    }

    /// Median over the sub-windows of each one's tail, with the median
    /// tail level.
    fn tail_ms(&self, keep: impl Fn(&Sent) -> bool) -> (f64, f64) {
        let tails = self.sub_tails(keep);
        if tails.is_empty() {
            return (f64::INFINITY, 100.0);
        }
        let t: Vec<f64> = tails.iter().map(|x| x.0).collect();
        let l: Vec<f64> = tails.iter().map(|x| x.1).collect();
        (crate::stats::median(&t), crate::stats::median(&l))
    }

    fn passed(&self) -> bool {
        self.tail_ms(|_| true).0 <= LIMIT_MS && self.backlog_end == 0
    }

    /// Answers per second, from the window's start to its last answer.
    fn achieved_rps(&self) -> f64 {
        self.sent.iter().filter(|s| s.status == 200).count() as f64 / self.wall_s
    }

    /// Exact latency summary of the answered requests `keep` selects.
    fn summary(&self, keep: impl Fn(&Sent) -> bool) -> Option<Summary> {
        let l: Vec<f64> = self
            .sent
            .iter()
            .filter(|s| s.status == 200 && keep(s))
            .map(|s| s.latency_ms)
            .collect();
        Summary::of(&l)
    }
}

/// Drive one offered rate for `secs` over `conns`, from one thread.
fn open_loop(
    conns: &mut [Conn],
    mix: &mut ServeMix,
    log: &mut Log,
    rate: f64,
    secs: f64,
    handle: &ServerHandle,
    spans: &mut Spans,
) -> Window {
    use std::os::fd::AsRawFd;
    let ns_per_req = 1e9 / rate;
    let window_ns = (secs * 1e9) as u64;
    let mut w = Window {
        rate,
        secs,
        sent: Vec::new(),
        late_ms: Vec::new(),
        backlog_end: 0,
        queue_max: 0.0,
        wall_s: secs,
    };
    let mut next_due = 0.0f64;
    let mut rr = 0usize;
    let mut in_flight = 0usize;
    let mut scratch = vec![0u8; 64 * 1024];
    let mut next_sample = 0u64;
    let mut closed_at = None;
    let mut last_send = 0u64;
    let origin = spans.now_ns();
    let t0 = Instant::now();
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        // 1. Queue everything due by now.
        while closed_at.is_none() && (next_due as u64) <= now {
            let op = mix.next_op();
            let due = next_due as u64;
            let req = log.intern(&op.req);
            w.late_ms.push((now - due) as f64 / 1e6);
            for c in 0..op.copies {
                let conn = &mut conns[(if op.copies > 1 { c } else { rr }) % conns.len()];
                conn.wbuf
                    .extend_from_slice(&render_request(op.req.path, &op.req.body));
                conn.due.push_back((w.sent.len(), due));
                w.sent.push(Sent {
                    req,
                    due_ns: due,
                    status: 0,
                    latency_ms: 0.0,
                });
                in_flight += 1;
            }
            rr += 1;
            next_due += ns_per_req * op.copies as f64;
            last_send = now;
        }
        // 2. Write until the kernel pushes back.
        for c in conns.iter_mut() {
            while c.wpos < c.wbuf.len() {
                match c.stream.write(&c.wbuf[c.wpos..]) {
                    Ok(0) => break,
                    Ok(n) => c.wpos += n,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            if c.wpos == c.wbuf.len() {
                c.wbuf.clear();
                c.wpos = 0;
            }
        }
        // 3. Read and retire complete responses.
        for c in conns.iter_mut() {
            loop {
                match c.stream.read(&mut scratch) {
                    Ok(0) => break,
                    Ok(n) => c.rbuf.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => break,
                }
            }
            let stamp = t0.elapsed().as_nanos() as u64;
            let mut at = 0;
            while let Some((len, status, body)) = parse_response(&c.rbuf[at..]) {
                let Some((id, due)) = c.due.pop_front() else {
                    break;
                };
                let s = &mut w.sent[id];
                s.status = status;
                s.latency_ms = stamp.saturating_sub(due) as f64 / 1e6;
                if status == 200 {
                    log.answer(s.req, &c.rbuf[at + body.start..at + body.end]);
                }
                spans.record("serve.request", id as u64, origin + due, origin + stamp);
                w.wall_s = w.wall_s.max(stamp as f64 / 1e9);
                at += len;
                in_flight -= 1;
            }
            c.rbuf.drain(..at);
        }
        let now = t0.elapsed().as_nanos() as u64;
        if now >= next_sample {
            w.queue_max = w.queue_max.max(queue_depth(handle));
            next_sample = now + 50_000_000;
        }
        // 4. End of window (or an overload past saving): measure the
        //    backlog, stop sending, drain.
        let overdue = conns
            .iter()
            .flat_map(|c| c.due.iter())
            .filter(|(_, due)| now.saturating_sub(*due) as f64 / 1e6 > LIMIT_MS)
            .count();
        if closed_at.is_none() && (now >= window_ns || overdue > 200 || in_flight >= MAX_IN_FLIGHT)
        {
            closed_at = Some(now);
            w.backlog_end = overdue.max(usize::from(now < window_ns));
        }
        match closed_at {
            Some(_) if in_flight == 0 => break,
            Some(at) if now >= at + DRAIN.as_nanos() as u64 => break, // the rest timed out
            _ => {}
        }
        // 5. Sleep until a socket is ready or the next request is due;
        //    spin instead for a short while after each send, when a
        //    cache-hit answer is about to arrive, so its latency does not
        //    include the generator's own wake-up.
        if in_flight > 0 && now.saturating_sub(last_send) < SPIN_NS {
            std::hint::spin_loop();
            continue;
        }
        let mut fds: Vec<sys::PollFd> = conns
            .iter()
            .map(|c| sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events: if c.wbuf.is_empty() { 0 } else { sys::POLLOUT }
                    | if c.due.is_empty() { 0 } else { sys::POLLIN },
                revents: 0,
            })
            .collect();
        let until_due = if closed_at.is_none() {
            (next_due as u64).saturating_sub(now)
        } else {
            1_000_000
        };
        if until_due > 0 {
            sys::wait(&mut fds, Duration::from_nanos(until_due.min(50_000_000)));
        }
    }
    w
}

// ---------------------------------------------------------------------
// the workload
// ---------------------------------------------------------------------

struct Setup {
    handle: ServerHandle,
    conns: Vec<Conn>,
    mix: ServeMix,
}

fn setup(args: &Args) -> Setup {
    let handle = spawn(&served_tenants());
    let nconn = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, 2);
    let mix = ServeMix::new(args.seed, nconn);
    // Warm-up: build and profile every kernel of the mix for both
    // tenants (a one-result search does both) and answer every hot body
    // once, so the window measures steady state.
    let mut c = Client::new(handle.addr());
    for tenant in TENANTS {
        for k in inputs::PREDICT_KERNELS
            .iter()
            .chain(&inputs::SEARCH_KERNELS)
        {
            let body = format!(
                "{{\"kernel\":\"{k}\",\"scale\":\"test\",\"config\":\"{tenant}\",\"top\":1}}"
            );
            let (status, body) = c.post("/v1/search", &body).expect("warm-up request");
            assert_eq!(status, 200, "warm-up failed: {body}");
        }
    }
    for r in mix.hot() {
        let (status, body) = c.post(r.path, &r.body).expect("warm-up request");
        assert_eq!(status, 200, "warm-up failed: {body}");
    }
    let conns = (0..nconn)
        .map(|_| {
            let stream = connect(handle.addr());
            stream.set_nonblocking(true).expect("nonblocking socket");
            Conn {
                stream,
                wbuf: Vec::new(),
                wpos: 0,
                rbuf: Vec::new(),
                due: VecDeque::new(),
            }
        })
        .collect();
    Setup { handle, conns, mix }
}

/// The rate ladder: the reference rate first, then upward until a rate
/// misses the limit.
fn ladder(s: &mut Setup, log: &mut Log, secs: f64, spans: &mut Spans) -> Vec<Window> {
    let mut out = Vec::new();
    for (i, &rate) in RATES.iter().enumerate() {
        let share = if i == 0 {
            REFERENCE_SHARE
        } else {
            (1.0 - REFERENCE_SHARE) / (RATES.len() - 1) as f64
        };
        let w = open_loop(
            &mut s.conns,
            &mut s.mix,
            log,
            rate,
            secs * share,
            &s.handle,
            spans,
        );
        let stop = !w.passed() || w.sent.iter().any(|x| x.status == 0);
        out.push(w);
        if stop {
            break;
        }
    }
    out
}

fn e2e(windows: &[Window], log: &Log, out: &mut Vec<Metric>) {
    let reference = &windows[0];
    let is_search = |s: &Sent| log.is_search(s.req);
    // Candidates ranked per second of search latency.
    let (mut cands, mut secs) = (0.0, 0.0);
    for s in reference
        .sent
        .iter()
        .filter(|s| s.status == 200 && is_search(s))
    {
        cands += log.cands[s.req];
        secs += s.latency_ms / 1e3;
    }
    let searches = reference
        .summary(is_search)
        .expect("searches at the reference rate");
    out.push(metric(
        "cand_per_s",
        "cand/s",
        cands / secs.max(1e-9),
        searches.n,
    ));
    let (tail, pct) = reference.tail_ms(is_search);
    out.push(metric("search_ms_p50", "ms", searches.median, searches.n));
    out.push(Metric {
        note: format!("median of {SUB_WINDOWS} sub-window p{pct:.2}"),
        ..metric("search_ms_tail", "ms", tail, searches.n)
    });
    let best = windows.iter().rfind(|w| w.passed());
    out.push(Metric {
        note: format!("offered {:.0} req/s", best.map_or(0.0, |w| w.rate)),
        ..metric(
            "serve_rps_max",
            "req/s",
            best.map_or(0.0, Window::achieved_rps),
            best.map_or(0, |w| w.sent.len()),
        )
    });
    let all = reference
        .summary(|_| true)
        .expect("answers at the reference rate");
    let (tail, pct) = reference.tail_ms(|_| true);
    out.push(metric("serve_ms_p50", "ms", all.median, all.n));
    out.push(Metric {
        note: format!("median of {SUB_WINDOWS} sub-window p{pct:.2}"),
        ..metric("serve_ms_tail", "ms", tail, all.n)
    });
}

/// Byte-identity of every distinct predict's answer against the encoded
/// `Advisor::predict` result (repeats and burst copies were compared
/// with the first answer as they arrived).
fn check_bodies(log: &Log, mismatches: &mut Vec<String>) -> usize {
    for body in &log.differing {
        mismatches.push(format!("{body} answered differently on a repeat"));
    }
    let advisors: HashMap<&str, Advisor> = served_tenants()
        .into_iter()
        .map(|(t, p)| (t, Advisor::new(p.cfg.clone(), p)))
        .collect();
    let predicts: Vec<(&Req, &String)> = log
        .distinct
        .iter()
        .zip(&log.first)
        .filter_map(|(req, first)| Some((req, first.as_ref()?)))
        .filter(|(req, _)| req.path == "/v1/predict")
        .collect();
    let same = hms_stats::par_map(&predicts, |(req, body)| {
        let q = hms_serve::decode(&req.body)
            .ok()
            .and_then(|v| PredictRequest::from_json(&v).ok())?;
        let advisor = &advisors[q.config.as_deref().unwrap_or(TENANTS[0])];
        let (json, _) = advisor.predict(&q, &mut Effort::default()).ok()?;
        Some(json.encode_pretty() == **body)
    });
    for ((req, _), same) in predicts.iter().zip(&same) {
        if *same != Some(true) {
            mismatches.push(format!(
                "{}: served body differs from Advisor::predict",
                req.body
            ));
        }
    }
    predicts.len()
}

/// Model error of the served predictions of every Table IV evaluation
/// target (Test scale, both tenants) against the simulator.
fn model_error(
    addr: SocketAddr,
    digest: &mut Digest,
    mismatches: &mut Vec<String>,
) -> (f64, usize) {
    let mut c = Client::new(addr);
    let mut errs = Vec::new();
    for tenant in TENANTS {
        let cfg = inputs::tenant_config(tenant);
        for t in hms_bench::evaluation_suite() {
            let kt = t.kernel(Scale::Test);
            let target = t.target_placement(&kt);
            if target.validate(&kt.arrays, &cfg).is_err() {
                continue;
            }
            let body = layers::predict_body(t.kernel, &kt, &target, Scale::Test).replacen(
                '{',
                &format!("{{\"config\":\"{tenant}\","),
                1,
            );
            let pred = c
                .post("/v1/predict", &body)
                .ok()
                .filter(|(s, _)| *s == 200)
                .and_then(|(_, b)| {
                    hms_serve::decode(&b)
                        .ok()?
                        .get("predicted_cycles")?
                        .as_f64()
                });
            let sim = hms_trace::materialize(&kt, &target, &cfg)
                .ok()
                .and_then(|tr| hms_sim::simulate_default(&tr, &cfg).ok());
            match (pred, sim) {
                (Some(p), Some(s)) if s.cycles > 0 => {
                    digest.add(p);
                    errs.push((p - s.cycles as f64).abs() / s.cycles as f64);
                }
                _ => mismatches.push(format!(
                    "{}: served prediction or simulation failed",
                    t.label
                )),
            }
        }
    }
    (
        100.0 * errs.iter().sum::<f64>() / errs.len().max(1) as f64,
        errs.len(),
    )
}

pub fn run(args: &Args, start: Instant) -> Report {
    sys::tight_timer_slack();
    let mut spans = Spans::new(false);
    let (mut s, first_s) = crate::first_setup(start, || setup(args));
    let secs = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut log = Log::default();
    let windows = ladder(&mut s, &mut log, secs, &mut spans);
    let traced = args.trace.then(|| {
        spans.enabled = true;
        let before = s.handle.metrics().render();
        let w = spans.span("bench.loop", 0, |spans| {
            ladder(&mut s, &mut log, secs, spans)
        });
        (w, before, s.handle.metrics().render())
    });

    let mut report = Report::default();
    let mut mismatches = Vec::new();
    let checked = check_bodies(&log, &mut mismatches);
    let mut all: Vec<&Window> = windows.iter().collect();
    if let Some((w, _, _)) = &traced {
        all.extend(w.iter());
    }
    for w in &all {
        let (tail, _) = w.tail_ms(|_| true);
        let subs: Vec<String> = w
            .sub_tails(|_| true)
            .iter()
            .map(|t| format!("{:.1}", t.0))
            .collect();
        println!(
            "# rate {:>6.0} req/s: sent {:>6} achieved {:>8.1} req/s p50 {:.4} ms tail {:>8.3} ms [{}] backlog {} failed {} -> {}",
            w.rate,
            w.sent.len(),
            w.achieved_rps(),
            w.summary(|_| true).map_or(0.0, |s| s.median),
            tail,
            subs.join(" "),
            w.backlog_end,
            w.failed(),
            if w.passed() { "meets limit" } else { "misses limit" }
        );
    }
    // Digest: the hot bodies' predictions, then the accuracy probe's.
    let mut digest = Digest::default();
    for h in s.mix.hot() {
        let first = log
            .index
            .get(&h.body)
            .and_then(|&i| log.first[i].as_deref());
        if let Some(p) =
            first.and_then(|b| hms_serve::decode(b).ok()?.get("predicted_cycles")?.as_f64())
        {
            digest.add(p);
        }
    }
    let (err, err_n) = model_error(s.handle.addr(), &mut digest, &mut mismatches);

    report.attempted = (all.iter().map(|w| w.sent.len()).sum::<usize>() + checked + err_n) as u64;
    report.failed = all.iter().map(|w| w.failed()).sum::<usize>() as u64;
    report.digest = digest.0;
    if let Some((tw, tb, ta)) = &traced {
        let mut m = Vec::new();
        let d = MetricsDelta {
            before: tb,
            after: ta,
        };
        let reference = tw[0]
            .summary(|_| true)
            .expect("answers at the reference rate");
        let mut late: Vec<f64> = tw.iter().flat_map(|w| w.late_ms.iter().copied()).collect();
        late.sort_by(f64::total_cmp);
        let queue_max = tw.iter().map(|w| w.queue_max).fold(0.0, f64::max);
        server_metrics(
            &d,
            reference.median,
            queue_max,
            crate::stats::tail_sorted(&late).0,
            reference.n,
            &mut m,
        );
        server_engine_metrics(&d, reference.n, &mut m);
        let untraced = windows[0].summary(|_| true).expect("answers").median;
        m.push(metric(
            "tracing.overhead_pct",
            "%",
            100.0 * (reference.median - untraced) / untraced,
            reference.n,
        ));
        let cfg = inputs::tenant_config(TENANTS[0]);
        let predictor = Predictor::new(cfg.clone());
        let names: std::collections::BTreeSet<&str> = inputs::PREDICT_KERNELS
            .iter()
            .chain(&inputs::SEARCH_KERNELS)
            .copied()
            .collect();
        let kernels: Vec<Kernel> = names
            .into_iter()
            .map(|k| Kernel::load(k, Scale::Test, &cfg, &mut spans))
            .collect();
        const PROBE_REQUESTS: usize = 4000;
        let probe = Probe {
            predictor: &predictor,
            kernels: kernels
                .iter()
                .map(|k| ProbeKernel::new(k, &cfg, None, 4096))
                .collect(),
            scale: Scale::Test,
            requests: log
                .distinct
                .iter()
                .take(PROBE_REQUESTS)
                .map(|r| (r.path.to_string(), r.body.clone()))
                .collect(),
            responses: log
                .first
                .iter()
                .flatten()
                .take(PROBE_REQUESTS)
                .cloned()
                .collect(),
            train_ms: None,
        };
        spans.span("bench.probe", 0, |spans| layers::run(&probe, spans, &mut m));
        layers::self_times(&spans, args, &mut m);
        report.metrics = m;
    } else {
        e2e(&windows, &log, &mut report.metrics);
        report
            .metrics
            .push(metric("model_err_pct", "%", err, err_n));
        report
            .info
            .push(metric("peak_rss_mb", "MB", crate::peak_rss_mb(), 1));
    }
    report.mismatches = mismatches;
    drop(s.conns);
    s.handle.shutdown();
    if !args.trace {
        let setup = crate::setup_metric(first_s, || {
            let s = setup(args);
            drop(s.conns);
            s.handle.shutdown();
        });
        report.metrics.insert(0, setup);
    }
    report
}

/// Engine and skeleton-cache counters of the server's searches, from
/// `/metrics`.
fn server_engine_metrics(d: &MetricsDelta, n: usize, out: &mut Vec<Metric>) {
    let rewrites = d.get("hms_engine_full_rewrites_total");
    let cands = d.get("hms_engine_candidates_evaluated_total");
    out.push(metric(
        "engine.skeletons_built",
        "count",
        d.get("hms_engine_skeletons_built_total"),
        n,
    ));
    out.push(metric(
        "engine.rewrite_reduction",
        "ratio",
        cands / rewrites.max(1.0),
        n,
    ));
    out.push(metric(
        "engine.events_per_cand",
        "events",
        d.get("hms_engine_events_streamed_total")
            / d.get("hms_engine_delta_cache_hits_total").max(1.0),
        n,
    ));
    out.push(metric(
        "engine.lane_width_peak",
        "lanes",
        Metrics::scrape_counter(d.after, "hms_engine_lane_width").unwrap_or(0.0),
        n,
    ));
    out.push(metric(
        "engine.exact_fallbacks",
        "count",
        d.get("hms_engine_exact_fallbacks_total"),
        n,
    ));
    out.push(metric(
        "skelcache.disk_hits",
        "count",
        d.get("hms_engine_skeleton_disk_hits_total"),
        n,
    ));
    out.push(metric(
        "skelcache.disk_misses",
        "count",
        d.get("hms_engine_skeleton_disk_misses_total"),
        n,
    ));
    out.push(metric("skelcache.bytes_written", "bytes", 0.0, n));
}
