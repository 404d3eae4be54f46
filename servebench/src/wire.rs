//! The load generator's client side, spoken directly in the `ps3_net`
//! wire protocol over loopback TCP: an open loop (one connection, a sender
//! on the schedule and a receiver) and a closed loop (pipelined
//! connections, each keeping a fixed number of requests outstanding).

use std::collections::HashMap;
use std::io::{self, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use ps3_core::QueryRequest;
use ps3_net::proto::{decode_body, encode_frame, Frame, RequestFrame};

/// How long a client waits for any reply before it gives the server up.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// Encode one request frame (`[len][body]`).
pub fn encode_request(id: u64, req: &QueryRequest) -> Vec<u8> {
    let frame = RequestFrame::from_request(id, req).expect("benchmark requests encode");
    encode_frame(&Frame::Request(frame)).expect("benchmark requests encode")
}

/// Read one frame body off the stream.
pub fn read_body(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// A decoded reply: its request id and whether it is an answer (as
/// opposed to an error frame).
pub fn reply_of(body: &[u8]) -> io::Result<(u64, bool)> {
    match decode_body(body) {
        Ok(Frame::Response(r)) => Ok((r.request_id, true)),
        Ok(Frame::Error(e)) => Ok((e.request_id, false)),
        Ok(_) => Err(io::Error::other("unexpected frame kind from server")),
        Err(e) => Err(io::Error::other(format!("undecodable reply: {e:?}"))),
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TIMEOUT))?;
    Ok(stream)
}

/// The sender sleeps until this long before a request is due and yields
/// the rest of the way, so timer slack does not make it late.
const SPIN: Duration = Duration::from_micros(200);

fn wait_until(target: Instant) {
    let now = Instant::now();
    if now + SPIN < target {
        std::thread::sleep(target - now - SPIN);
    }
    while Instant::now() < target {
        std::thread::yield_now();
    }
}

/// One open-loop request as the client saw it.
#[derive(Default, Clone)]
pub struct OpenSample {
    /// Latency from the scheduled send time to the decoded reply; `None`
    /// when no answer arrived (error frame or lost connection).
    pub latency_ms: Option<f64>,
    /// How late the sender started writing it, in milliseconds.
    pub lateness_ms: f64,
    /// The reply body (answers only).
    pub body: Option<Vec<u8>>,
    /// When the client encoded the request and decoded the reply (a traced
    /// loop only).
    pub encode: Option<(Instant, Instant)>,
    pub decode: Option<(Instant, Instant)>,
}

/// Run an open loop: request `i` is due `offsets[i]` seconds after the
/// start, whatever happened to earlier ones. Every `notify.0` sends, the
/// sender posts the count sent so far to `notify.1` (the writer's cue).
pub fn open_loop(
    addr: SocketAddr,
    offsets: &[f64],
    requests: &[QueryRequest],
    traced: bool,
    notify: Option<(usize, SyncSender<usize>)>,
) -> io::Result<Vec<OpenSample>> {
    assert_eq!(offsets.len(), requests.len());
    let n = requests.len();
    let stream = connect(addr)?;
    let mut reader = BufReader::with_capacity(1 << 16, stream.try_clone()?);
    let mut writer = stream;
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(offsets[i]);
    let mut samples = vec![OpenSample::default(); n];

    let received = std::thread::scope(|s| {
        let receiver = s.spawn(move || {
            let mut got: Vec<Option<(Instant, Instant, Vec<u8>)>> = vec![None; n];
            for _ in 0..n {
                let Ok(body) = read_body(&mut reader) else {
                    break;
                };
                let began = Instant::now();
                let Ok((id, ok)) = reply_of(&body) else {
                    break;
                };
                let decoded = Instant::now();
                let Some(slot) = got.get_mut((id as usize).wrapping_sub(1)) else {
                    break;
                };
                if ok {
                    *slot = Some((began, decoded, body));
                }
            }
            got
        });
        for (i, (req, sample)) in requests.iter().zip(&mut samples).enumerate() {
            wait_until(due(i));
            let began = Instant::now();
            let bytes = encode_request(i as u64 + 1, req);
            if traced {
                sample.encode = Some((began, Instant::now()));
            }
            if writer.write_all(&bytes).is_err() {
                break;
            }
            sample.lateness_ms = began.saturating_duration_since(due(i)).as_secs_f64() * 1e3;
            if let Some((every, tx)) = &notify {
                if (i + 1) % every == 0 {
                    let _ = tx.send(i + 1);
                }
            }
        }
        drop(notify);
        receiver.join().expect("receiver thread")
    });
    for (i, (sample, got)) in samples.iter_mut().zip(received).enumerate() {
        if let Some((began, decoded, body)) = got {
            sample.latency_ms = Some(decoded.saturating_duration_since(due(i)).as_secs_f64() * 1e3);
            sample.body = Some(body);
            if traced {
                sample.decode = Some((began, decoded));
            }
        }
    }
    Ok(samples)
}

/// What a closed loop returns.
#[derive(Default)]
pub struct ClosedResult {
    pub sent: u64,
    /// When each answer received before `stop` was set arrived (the
    /// throughput numerator).
    pub completed_at: Vec<Instant>,
    /// Answers received at all.
    pub answered: u64,
    /// Error frames plus requests that never got a reply.
    pub failed: u64,
    /// Sampled `(request, reply body)` pairs for the correctness check.
    pub checked: Vec<(QueryRequest, Vec<u8>)>,
    /// Latency (ms, from the write that sent it) of every answer received
    /// before `stop` was set.
    pub latency_ms: Vec<f64>,
}

/// Run `conns` closed-loop connections, each keeping `depth` requests in
/// flight, drawing requests from `next`, until `stop` is set; then drain
/// what is outstanding. Replies whose draw index satisfies `sample` are
/// kept for checking.
pub fn closed_loop<F>(
    addr: SocketAddr,
    conns: usize,
    depth: usize,
    stop: &AtomicBool,
    next: &Mutex<F>,
    sample: impl Fn(u64) -> bool + Sync,
) -> io::Result<ClosedResult>
where
    F: FnMut() -> (u64, QueryRequest) + Send,
{
    let streams = (0..conns)
        .map(|_| connect(addr))
        .collect::<io::Result<Vec<_>>>()?;
    let per_conn: Vec<ClosedResult> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|stream| {
                let sample = &sample;
                s.spawn(move || run_connection(stream, depth, stop, next, sample))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread"))
            .collect()
    });
    let mut total = ClosedResult::default();
    for r in per_conn {
        total.sent += r.sent;
        total.completed_at.extend(r.completed_at);
        total.latency_ms.extend(r.latency_ms);
        total.answered += r.answered;
        total.failed += r.failed;
        total.checked.extend(r.checked);
    }
    Ok(total)
}

fn run_connection<F>(
    stream: TcpStream,
    depth: usize,
    stop: &AtomicBool,
    next: &Mutex<F>,
    sample: &(impl Fn(u64) -> bool + Sync),
) -> ClosedResult
where
    F: FnMut() -> (u64, QueryRequest) + Send,
{
    let mut out = ClosedResult::default();
    let Ok(read_half) = stream.try_clone() else {
        return out;
    };
    let mut reader = BufReader::with_capacity(1 << 16, read_half);
    let mut writer = stream;
    let mut pending: HashMap<u64, (Instant, Option<QueryRequest>)> = HashMap::new();
    let mut next_id = 1u64;
    let mut batch = Vec::new();
    // Queue `n` requests and write them in one go.
    let mut send = |n: usize,
                    writer: &mut TcpStream,
                    pending: &mut HashMap<u64, (Instant, Option<QueryRequest>)>,
                    out: &mut ClosedResult|
     -> bool {
        batch.clear();
        for _ in 0..n {
            let (draw, req) = (next.lock().expect("request source lock"))();
            batch.extend_from_slice(&encode_request(next_id, &req));
            pending.insert(next_id, (Instant::now(), sample(draw).then_some(req)));
            next_id += 1;
        }
        out.sent += n as u64;
        writer.write_all(&batch).is_ok()
    };
    let mut ok_so_far = send(depth, &mut writer, &mut pending, &mut out);
    while ok_so_far && !pending.is_empty() {
        // One blocking read, then every reply already buffered.
        let mut replies = 0;
        loop {
            let Ok(body) = read_body(&mut reader) else {
                ok_so_far = false;
                break;
            };
            let Some((id, ok)) = reply_of(&body).ok() else {
                ok_so_far = false;
                break;
            };
            let Some((sent_at, req)) = pending.remove(&id) else {
                ok_so_far = false;
                break;
            };
            replies += 1;
            if ok {
                out.answered += 1;
                if !stop.load(Ordering::SeqCst) {
                    let now = Instant::now();
                    out.completed_at.push(now);
                    out.latency_ms.push((now - sent_at).as_secs_f64() * 1e3);
                }
                if let Some(req) = req {
                    out.checked.push((req, body));
                }
            } else {
                out.failed += 1;
            }
            if !frame_buffered(reader.buffer()) {
                break;
            }
        }
        if ok_so_far && replies > 0 && !stop.load(Ordering::SeqCst) {
            ok_so_far = send(replies, &mut writer, &mut pending, &mut out);
        }
    }
    out.failed += pending.len() as u64;
    out
}

/// Whether `buf` starts with a whole frame.
fn frame_buffered(buf: &[u8]) -> bool {
    buf.len() >= 4 && buf.len() - 4 >= u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
}
