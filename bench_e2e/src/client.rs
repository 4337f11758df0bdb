//! The load generator's connection driver.
//!
//! One thread drives one TCP connection through an event loop built on
//! the public frame and `NetRequest`/`NetResponse` codecs. Sends and
//! receives are decoupled (a split socket): open-loop requests go out at
//! their due time whether or not earlier ones were answered, and the
//! wait for readable bytes doubles as the timer for the next due send. A
//! lane is an ordered stream — its next request goes out only after its
//! previous reply — which gives closed-loop pipelining (one lane per
//! outstanding request) and in-order session turns.
//!
//! Open-loop latency runs from the due time, so a stall is charged to
//! every request scheduled behind it; lateness of the generator itself
//! (send time minus the time a request became sendable) is kept apart.

use crate::gen::{request_text, session_id, Generator, LaneSource, Op};
use qkb_net::frame::{self, FrameError, HEADER_BYTES};
use qkb_net::{NetRequest, NetResponse, DEFAULT_MAX_FRAME_BYTES};
use qkb_serve::{QueryRequest, Served};
use std::collections::{HashMap, VecDeque};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// The phase clock: nanoseconds since the phase started.
#[derive(Clone, Copy, Debug)]
pub struct Clock {
    pub epoch: Instant,
}

impl Clock {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// How a request ended.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    Answer {
        served: Served,
        n_docs: u64,
        n_facts: u64,
        answers: Vec<String>,
    },
    Busy,
    Error(String),
    Lost,
}

/// One request as the client saw it (times on the phase clock).
#[derive(Clone, Debug)]
pub struct Sample {
    pub op: Op,
    /// When the schedule wanted it sent (closed loop: when sent).
    pub due_ns: u64,
    /// When it became sendable (its lane free and its due time reached).
    pub ready_ns: u64,
    pub sent_ns: u64,
    pub done_ns: u64,
    pub reply: Reply,
}

impl Sample {
    pub fn answered(&self) -> bool {
        matches!(self.reply, Reply::Answer { .. })
    }

    /// Client-observed latency from the due time.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }
}

/// What one connection sends.
#[derive(Default)]
pub struct ConnPlan {
    /// Open-loop requests `(due ns, lane, op)` in due order.
    pub open: Vec<(u64, Option<usize>, Op)>,
    /// Closed-loop lanes and where their requests come from.
    pub closed: Vec<(usize, LaneSource)>,
}

/// A one-shot action run by the driver thread at a phase instant (stats
/// resets and snapshots at the window edges).
pub type Hook<'a> = (u64, Box<dyn FnMut() + 'a>);

#[derive(Default)]
struct Lane {
    busy: bool,
    free_at: u64,
    waiting: VecDeque<(u64, Op)>,
    source: Option<LaneSource>,
}

struct Pending {
    op: Op,
    lane: Option<usize>,
    due_ns: u64,
    ready_ns: u64,
    sent_ns: u64,
}

/// Pops one complete, checksum-verified frame off the front of `buf`.
fn take_frame(buf: &mut Vec<u8>) -> Result<Option<frame::Frame>, FrameError> {
    if buf.len() < HEADER_BYTES {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    if len > DEFAULT_MAX_FRAME_BYTES {
        return Err(FrameError::Oversized {
            declared: len,
            max: DEFAULT_MAX_FRAME_BYTES,
        });
    }
    let total = HEADER_BYTES + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let f = frame::read_frame(&mut &buf[..total], DEFAULT_MAX_FRAME_BYTES)?;
    buf.drain(..total);
    Ok(Some(f))
}

/// Waits until `stream` has bytes to read or `timeout` passes (`true` =
/// readable). `ppoll` takes a nanosecond timeout on a high-resolution
/// timer; a socket read timeout would round the open-loop send timer up
/// to the kernel tick.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct TimeSpec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const TimeSpec, mask: *const u8) -> i32;
    }
    const POLLIN: i16 = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = TimeSpec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live locals laid out as the 64-bit Linux
    // `struct pollfd` and `struct timespec` for the whole call, `nfds`
    // is 1 to match the single `pollfd`, and a null signal mask leaves
    // the thread's mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == ErrorKind::Interrupted {
            Ok(false)
        } else {
            Err(e)
        };
    }
    Ok(n > 0)
}

/// Acknowledges incoming segments at once instead of after the delayed
/// ACK timer. The server leaves Nagle's algorithm on, so without this a
/// reply written while the previous one is unacknowledged waits for the
/// client's next request or for the timer, and open-loop latency would
/// read the client's send interval. Linux drops quick-ACK mode on its
/// own, so this is re-armed after every read.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn quick_ack(stream: &TcpStream) -> io::Result<()> {
    use std::os::fd::AsRawFd;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
    }
    const IPPROTO_TCP: i32 = 6;
    const TCP_QUICKACK: i32 = 12;
    let on: i32 = 1;
    // SAFETY: `on` is a live `int` for the whole call and `len` is its
    // size, as `setsockopt(TCP_QUICKACK)` expects.
    let rc = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            &on,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn quick_ack(_: &TcpStream) -> io::Result<()> {
    Ok(())
}

/// Elsewhere: a socket read timeout (tick-granular) bounds the read.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn wait_readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    stream.set_read_timeout(Some(timeout))?;
    Ok(true)
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, e.to_string())
}

/// Drives one connection until every scheduled request is answered,
/// closed-loop lanes have stopped at `stop_ns`, or `drain_ns` passes
/// (requests still unanswered then count as [`Reply::Lost`]).
#[allow(clippy::too_many_arguments)]
pub fn drive(
    addr: SocketAddr,
    plan: ConnPlan,
    gen: &Generator,
    questions: &[String],
    clock: Clock,
    stop_ns: u64,
    drain_ns: u64,
    mut hooks: Vec<Hook<'_>>,
) -> io::Result<Vec<Sample>> {
    let mut reader = TcpStream::connect(addr)?;
    reader.set_nodelay(true)?;
    quick_ack(&reader)?;
    let mut writer = reader.try_clone()?;
    let mut lanes: HashMap<usize, Lane> = HashMap::new();
    for (id, source) in plan.closed {
        lanes.entry(id).or_default().source = Some(source);
    }
    for &(_, lane, _) in &plan.open {
        if let Some(l) = lane {
            lanes.entry(l).or_default();
        }
    }
    let open = plan.open;
    let mut next_open = 0usize;
    let mut pending: HashMap<u64, Pending> = HashMap::new();
    let mut samples = Vec::new();
    let mut next_id = 0u64;
    let mut buf: Vec<u8> = Vec::new();
    let mut scratch = vec![0u8; 64 << 10];

    let mut send = |op: Op,
                    lane: Option<usize>,
                    due_ns: u64,
                    ready_ns: u64,
                    pending: &mut HashMap<u64, Pending>|
     -> io::Result<()> {
        next_id += 1;
        let request = QueryRequest::question(request_text(questions, op));
        let req = match op {
            Op::Turn { session, .. } => NetRequest::QueryInSession {
                id: next_id,
                session: session_id(session),
                request,
            },
            _ => NetRequest::Query {
                id: next_id,
                request,
            },
        };
        let (kind, payload) = req.encode();
        // Stamped before the write: the server may start on the request
        // before `write_all` returns.
        let sent_ns = clock.now_ns();
        writer.write_all(&frame::encode(kind, &payload))?;
        pending.insert(
            next_id,
            Pending {
                op,
                lane,
                due_ns,
                ready_ns,
                sent_ns,
            },
        );
        Ok(())
    };

    loop {
        let now = clock.now_ns();
        for (at, hook) in hooks.iter_mut() {
            if *at <= now {
                hook();
                *at = u64::MAX;
            }
        }
        while next_open < open.len() && open[next_open].0 <= now {
            let (due, lane, op) = open[next_open];
            next_open += 1;
            match lane {
                None => send(op, None, due, due, &mut pending)?,
                Some(l) => lanes
                    .get_mut(&l)
                    .expect("lane")
                    .waiting
                    .push_back((due, op)),
            }
        }
        let mut lanes_active = false;
        for (&id, lane) in lanes.iter_mut() {
            if lane.busy {
                continue;
            }
            if let Some(&(due, op)) = lane.waiting.front() {
                lane.waiting.pop_front();
                send(op, Some(id), due, due.max(lane.free_at), &mut pending)?;
                lane.busy = true;
            } else if now < stop_ns {
                if let Some(op) = lane.source.as_mut().and_then(|s| s.next(gen)) {
                    send(op, Some(id), now, now, &mut pending)?;
                    lane.busy = true;
                    lanes_active = true;
                }
            }
        }
        lanes_active |= lanes.values().any(|l| l.busy || !l.waiting.is_empty());
        let hooks_due = hooks.iter().any(|h| h.0 != u64::MAX);
        if next_open == open.len() && !lanes_active && pending.is_empty() && !hooks_due {
            break;
        }
        if now >= drain_ns {
            break;
        }

        let mut wake = drain_ns;
        if let Some(&(due, _, _)) = open.get(next_open) {
            wake = wake.min(due);
        }
        if let Some(at) = hooks.iter().map(|h| h.0).min() {
            wake = wake.min(at);
        }
        if lanes.values().any(|l| l.source.is_some()) && now < stop_ns {
            wake = wake.min(stop_ns);
        }
        let timeout = Duration::from_nanos(wake.saturating_sub(now).max(1_000));
        if !wait_readable(&reader, timeout)? {
            continue;
        }
        match reader.read(&mut scratch) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&scratch[..n]);
                quick_ack(&reader)?;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
        while let Some(f) = take_frame(&mut buf).map_err(invalid)? {
            let done_ns = clock.now_ns();
            let resp = NetResponse::decode(f.kind, &f.payload, DEFAULT_MAX_FRAME_BYTES as usize)
                .map_err(invalid)?;
            let (id, reply) = match resp {
                NetResponse::Answer {
                    id,
                    served,
                    n_docs,
                    n_facts,
                    answers,
                } => (
                    id,
                    Reply::Answer {
                        served,
                        n_docs,
                        n_facts,
                        answers,
                    },
                ),
                NetResponse::Busy { id, .. } => (id, Reply::Busy),
                NetResponse::Error { id, message } => (id, Reply::Error(message)),
                other => return Err(invalid(format!("unexpected response {other:?}"))),
            };
            let p = pending
                .remove(&id)
                .ok_or_else(|| invalid(format!("reply to unknown request {id}")))?;
            if let Some(l) = p.lane {
                let lane = lanes.get_mut(&l).expect("lane");
                lane.busy = false;
                lane.free_at = done_ns;
            }
            samples.push(Sample {
                op: p.op,
                due_ns: p.due_ns,
                ready_ns: p.ready_ns,
                sent_ns: p.sent_ns,
                done_ns,
                reply,
            });
        }
    }
    let end = clock.now_ns();
    samples.extend(pending.into_values().map(|p| Sample {
        op: p.op,
        due_ns: p.due_ns,
        ready_ns: p.ready_ns,
        sent_ns: p.sent_ns,
        done_ns: end,
        reply: Reply::Lost,
    }));
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Workload;
    use std::io::BufReader;
    use std::net::TcpListener;

    /// A serial fake server that stalls on its first request.
    fn stalling_server(
        stall: Duration,
        requests: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut out = stream.try_clone().expect("clone");
            let mut input = BufReader::new(stream);
            for i in 0..requests {
                let f = frame::read_frame(&mut input, DEFAULT_MAX_FRAME_BYTES).expect("frame");
                let req = NetRequest::decode(f.kind, &f.payload, 1 << 20).expect("request");
                if i == 0 {
                    std::thread::sleep(stall);
                }
                let (kind, payload) = NetResponse::Answer {
                    id: req.id(),
                    served: Served::CacheHit,
                    n_docs: 4,
                    n_facts: 1,
                    answers: vec!["a".into()],
                }
                .encode();
                frame::write_frame(&mut out, kind, &payload).expect("reply");
            }
        });
        (addr, handle)
    }

    #[test]
    fn open_loop_latency_counts_from_the_due_time_through_a_stall() {
        const MS: u64 = 1_000_000;
        let (addr, server) = stalling_server(Duration::from_millis(250), 5);
        let pool: Vec<usize> = (0..11_000).collect();
        let gen = Generator::new(Workload::QaHot, 1, 10.0, &pool, 2).expect("generator");
        let questions = vec!["Who?".to_string(), "Where?".to_string()];
        let plan = ConnPlan {
            open: (0..5)
                .map(|i| (i * 20 * MS, None, Op::Hot { question: 0 }))
                .collect(),
            closed: Vec::new(),
        };
        let clock = Clock {
            epoch: Instant::now(),
        };
        let mut samples = drive(
            addr,
            plan,
            &gen,
            &questions,
            clock,
            0,
            5_000 * MS,
            Vec::new(),
        )
        .expect("drive");
        server.join().expect("server");
        samples.sort_by_key(|s| s.due_ns);
        assert_eq!(samples.len(), 5);
        assert!(samples.iter().all(Sample::answered));
        for s in &samples[1..] {
            // Sent on schedule although the first request was stuck ...
            assert!(s.sent_ns - s.due_ns < 40 * MS, "sent late: {s:?}");
            // ... and charged the stall from its due time.
            assert!(s.done_ns >= 250 * MS);
            assert_eq!(s.latency_ns(), s.done_ns - s.due_ns);
        }
        assert!(samples[1].latency_ns() >= 200 * MS);
        assert!(samples[4].latency_ns() >= 150 * MS);
    }

    #[test]
    fn lanes_keep_turns_in_order() {
        const MS: u64 = 1_000_000;
        let (addr, server) = stalling_server(Duration::from_millis(100), 3);
        let pool: Vec<usize> = (0..11_000).collect();
        let gen = Generator::new(Workload::QaHot, 1, 10.0, &pool, 1).expect("generator");
        let questions = vec!["Who?".to_string()];
        // Three requests of one lane, all due at once: each waits for
        // the previous reply, and its readiness records that wait.
        let plan = ConnPlan {
            open: (0..3)
                .map(|_| (0, Some(0), Op::Hot { question: 0 }))
                .collect(),
            closed: Vec::new(),
        };
        let clock = Clock {
            epoch: Instant::now(),
        };
        let mut samples = drive(
            addr,
            plan,
            &gen,
            &questions,
            clock,
            0,
            5_000 * MS,
            Vec::new(),
        )
        .expect("drive");
        server.join().expect("server");
        samples.sort_by_key(|s| s.sent_ns);
        assert!(samples[1].sent_ns >= samples[0].done_ns);
        assert!(samples[1].ready_ns >= 100 * MS);
        assert!(samples[1].latency_ns() >= 100 * MS);
    }
}
