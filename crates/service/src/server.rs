//! The daemon: transports, per-session threads, and lifecycle.
//!
//! A daemon owns one [`crate::Scheduler`] and any number of sessions. Each
//! session is a full-duplex line stream served by **two** threads:
//!
//! * the *reader* parses request lines and forwards them to the scheduler,
//!   gating each `submit` on [`crate::Outbox::wait_below`] — a client that
//!   stops reading results stops being read (backpressure);
//! * the *writer* drains the session outbox to the stream. Completions are
//!   pushed by pool workers and never block.
//!
//! Two transports share that code path: TCP (`Daemon::bind`, one accept
//! thread) and an in-process loopback pipe (`DaemonHandle::connect`), which
//! tests and single-process benchmarks use to exercise the real protocol
//! without a socket. Shutdown is graceful by protocol (`shutdown` drains
//! the scheduler, then closes every session) or forceful from the owner
//! ([`DaemonHandle::stop`], which cancels in-flight jobs first); both end
//! with every thread joined — [`DaemonHandle::join`] returning is the
//! no-leaked-threads guarantee CI relies on.
//!
//! A connection's **first** request decides the session's identity. `hello`
//! binds a fresh *resumable* session: the daemon answers with a stable
//! token, retains every delivered line (`seq=`-prefixed) until the client
//! `ack`s it, and — crucially — keeps the session alive in a registry when
//! the connection drops, so a later connection can open with
//! `resume <token> <last_seq>` and replay exactly the unacked suffix.
//! Any other first request serves a classic anonymous session, wire-
//! compatible with pre-resume daemons.
//!
//! Each response line leaves the writer in one `write` (line plus `\n`),
//! and every accepted TCP socket has Nagle's algorithm off: otherwise a
//! line's second segment — or a `result` right behind its `accepted` —
//! waits for the client's ACK, which a client that is not sending
//! delays by its ~40 ms delayed-ACK timer.

use crate::client::Client;
use crate::pipe::pipe;
use crate::protocol::{Request, Response};
use crate::scheduler::{QuotaConfig, Scheduler, SessionHandle};
use crate::wire::{tune_stream, write_line};
use ecs_model::backend::available_parallelism;
use ecs_model::batching::DEFAULT_LINGER;
use ecs_model::ThroughputPool;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The pool every session's jobs run on.
    pub pool: ThroughputPool,
    /// Fairness slots: jobs released to the pool at a time.
    pub max_inflight: usize,
    /// Wave linger for `coalesced:W` jobs (the `--linger-us` knob).
    pub linger: Duration,
    /// Result lines a session may have queued before its reader stops
    /// admitting new submits.
    pub outbox_limit: usize,
    /// Directory where finished `auto` jobs persist their calibration trace
    /// (one `.calib` file per job, best-effort). `None` disables
    /// persistence.
    pub trace_dir: Option<std::path::PathBuf>,
    /// Per-tenant admission limits (the `--quota` knob); the default is
    /// fully unlimited.
    pub quotas: QuotaConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        let workers = available_parallelism();
        Self {
            pool: ThroughputPool::from_jobs(workers),
            max_inflight: 2 * workers,
            linger: DEFAULT_LINGER,
            outbox_limit: 64,
            trace_dir: None,
            quotas: QuotaConfig::default(),
        }
    }
}

/// State shared by every session thread and the handle.
struct DaemonShared {
    scheduler: Arc<Scheduler>,
    outbox_limit: usize,
    next_session: AtomicU64,
    stopping: AtomicBool,
    /// Resumable (`hello`) sessions by token. Entries outlive their
    /// connection — that is the point — and are removed at `bye`.
    sessions: Mutex<HashMap<String, Arc<SessionHandle>>>,
    listen_addr: Option<SocketAddr>,
    /// Force-closers for every live connection's read side, so `stop()` can
    /// unblock readers parked on an idle stream.
    closers: Mutex<Vec<Box<dyn Fn() + Send>>>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl DaemonShared {
    /// Ends the accept loop and every session: drains are NOT awaited here —
    /// callers decide whether to drain first (protocol `shutdown`) or cancel
    /// first ([`DaemonHandle::stop`]).
    fn close_all(&self) {
        if self.stopping.swap(true, Ordering::SeqCst) {
            return;
        }
        for closer in self
            .closers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .drain(..)
        {
            closer();
        }
        // Unblock the accept loop with a throwaway connection to ourselves.
        if let Some(addr) = self.listen_addr {
            let _ = TcpStream::connect(addr);
        }
    }

    fn adopt_thread(&self, handle: JoinHandle<()>) {
        self.threads
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(handle);
    }

    fn register_closer(&self, closer: Box<dyn Fn() + Send>) {
        let mut closers = self
            .closers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.stopping.load(Ordering::SeqCst) {
            // Lost the race with close_all: close this connection directly.
            closer();
        } else {
            closers.push(closer);
        }
    }
}

/// The equivalence-sorting daemon.
#[derive(Debug)]
pub struct Daemon;

impl Daemon {
    /// Starts a TCP daemon listening on `addr` (use port `0` for an
    /// ephemeral port, reported by [`DaemonHandle::local_addr`]).
    pub fn bind(addr: &str, config: DaemonConfig) -> std::io::Result<DaemonHandle> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(DaemonShared {
            scheduler: Arc::new(
                Scheduler::new(config.pool, config.max_inflight, config.linger)
                    .with_trace_dir(config.trace_dir.clone())
                    .with_quotas(config.quotas.clone()),
            ),
            outbox_limit: config.outbox_limit,
            next_session: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            listen_addr: Some(local),
            closers: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shared.stopping.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    spawn_tcp_session(&accept_shared, stream);
                }
            }
        });
        Ok(DaemonHandle {
            shared,
            accept: Some(accept),
        })
    }

    /// Starts a daemon with no listener; sessions are opened in-process via
    /// [`DaemonHandle::connect`].
    pub fn loopback(config: DaemonConfig) -> DaemonHandle {
        let shared = Arc::new(DaemonShared {
            scheduler: Arc::new(
                Scheduler::new(config.pool, config.max_inflight, config.linger)
                    .with_trace_dir(config.trace_dir.clone())
                    .with_quotas(config.quotas.clone()),
            ),
            outbox_limit: config.outbox_limit,
            next_session: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
            sessions: Mutex::new(HashMap::new()),
            listen_addr: None,
            closers: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
        });
        DaemonHandle {
            shared,
            accept: None,
        }
    }
}

/// The owner's view of a running daemon.
pub struct DaemonHandle {
    shared: Arc<DaemonShared>,
    accept: Option<JoinHandle<()>>,
}

impl DaemonHandle {
    /// The TCP address the daemon listens on (`None` for loopback daemons).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.shared.listen_addr
    }

    /// The daemon's scheduler (status inspection in tests and binaries).
    pub fn scheduler(&self) -> &Arc<Scheduler> {
        &self.shared.scheduler
    }

    /// Opens an in-process session over a pair of byte pipes, returning the
    /// connected [`Client`]. Works on TCP daemons too (the session simply
    /// bypasses the socket).
    pub fn connect(&self) -> Client {
        let (client_tx, server_rx) = pipe();
        let (server_tx, client_rx) = pipe();
        let shared = Arc::clone(&self.shared);
        let close_rx = server_rx.closer();
        self.shared
            .register_closer(Box::new(move || close_rx.close()));
        let handle = std::thread::spawn(move || {
            serve_session(&shared, BufReader::new(server_rx), server_tx);
        });
        self.shared.adopt_thread(handle);
        Client::new(BufReader::new(client_rx), client_tx)
    }

    /// Force-stops the daemon: drops queued jobs, cancels in-flight jobs,
    /// waits for them to unwind, then closes every session and the
    /// listener. Use the protocol `shutdown` for a graceful drain instead.
    pub fn stop(&self) {
        self.shared.scheduler.abort_all();
        self.shared.scheduler.wait_idle();
        self.shared.close_all();
    }

    /// Waits for the daemon to finish (a client must have sent `shutdown`,
    /// or the owner called [`DaemonHandle::stop`]). Returning means every
    /// accept, reader, and writer thread has exited — nothing is leaked.
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Session threads may still be spawning sessions' writer threads;
        // drain the registry until it stays empty.
        loop {
            let batch: Vec<JoinHandle<()>> = {
                let mut threads = self
                    .shared
                    .threads
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                threads.drain(..).collect()
            };
            if batch.is_empty() {
                return;
            }
            for handle in batch {
                let _ = handle.join();
            }
        }
    }
}

/// Tunes an accepted connection and serves it on a fresh session thread
/// (dropped silently if the socket cannot be cloned).
fn spawn_tcp_session(shared: &Arc<DaemonShared>, stream: TcpStream) {
    // Best-effort: a socket that refuses TCP_NODELAY still serves correctly.
    let _ = tune_stream(&stream);
    let (Ok(closer_stream), Ok(read_stream)) = (stream.try_clone(), stream.try_clone()) else {
        return;
    };
    // Close only the read side: the reader unblocks with EOF while the
    // session's writer still flushes queued results.
    shared.register_closer(Box::new(move || {
        let _ = closer_stream.shutdown(std::net::Shutdown::Read);
    }));
    let session_shared = Arc::clone(shared);
    let handle = std::thread::spawn(move || {
        serve_session(&session_shared, BufReader::new(read_stream), stream);
    });
    shared.adopt_thread(handle);
}

/// Serves one session: binds the session's identity from the connection's
/// first request (`hello` → fresh resumable session, `resume` → re-attach a
/// parked one, anything else → anonymous), spawns the writer, runs the
/// reader loop inline, and tears down. A resumable session whose connection
/// merely dropped is *parked*, not destroyed: its retained outbox keeps
/// collecting results for a future `resume`.
fn serve_session<R, W>(shared: &Arc<DaemonShared>, mut reader: R, mut writer: W)
where
    R: BufRead + Send,
    W: Write + Send + 'static,
{
    // Identity prologue: read the first non-empty line before spawning
    // anything, so a failed `resume` can be answered on the raw connection
    // and hung up without ever touching a session.
    let mut first = String::new();
    loop {
        first.clear();
        match reader.read_line(&mut first) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if !first.trim().is_empty() {
            break;
        }
    }
    let mut deferred = None;
    let (session, epoch) = match Request::parse(&first) {
        Ok(Request::Hello) => {
            let session = Arc::new(SessionHandle::resumable(
                shared.next_session.fetch_add(1, Ordering::SeqCst),
            ));
            let token = session
                .token()
                .expect("resumable sessions carry a token")
                .to_string();
            let epoch = session.outbox().attach_writer();
            // Pushed before anything else can land, so the `hello` answer
            // is always seq=1.
            session.respond(&Response::Hello {
                token: token.clone(),
            });
            shared
                .sessions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .insert(token, Arc::clone(&session));
            (session, epoch)
        }
        Ok(Request::Resume { token, last_seq }) => {
            let existing = shared
                .sessions
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .get(&token)
                .cloned();
            let resumed = existing
                .ok_or_else(|| format!("unknown session token {token}"))
                .and_then(|session| {
                    session
                        .outbox()
                        .resume_from(last_seq)
                        .map(|epoch| (session, epoch))
                });
            match resumed {
                Ok(bound) => bound,
                Err(message) => {
                    let _ = write_line(&mut writer, &Response::Error { message }.render());
                    return;
                }
            }
        }
        other => {
            let session = Arc::new(SessionHandle::new(
                shared.next_session.fetch_add(1, Ordering::SeqCst),
            ));
            let epoch = session.outbox().attach_writer();
            deferred = Some(other);
            (session, epoch)
        }
    };

    let writer_session = Arc::clone(&session);
    let writer_thread = std::thread::spawn(move || {
        while let Some(line) = writer_session.outbox().pop_at(epoch) {
            if write_line(&mut writer, &line).is_err() {
                break;
            }
        }
    });

    let scheduler = Arc::clone(&shared.scheduler);
    let mut line = String::new();
    loop {
        let request = match deferred.take() {
            Some(request) => request,
            None => {
                line.clear();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                if line.trim().is_empty() {
                    continue;
                }
                Request::parse(&line)
            }
        };
        match request {
            Ok(Request::Submit(spec)) => {
                // Backpressure: don't admit more work while this session's
                // results sit unread (or, for resumable sessions, unacked).
                session.outbox().wait_below(shared.outbox_limit);
                scheduler.submit(spec, &session);
            }
            Ok(Request::Cancel { id }) => scheduler.cancel(&session, &id),
            Ok(Request::Status) => session.respond(&scheduler.status()),
            Ok(Request::Drain) => session.request_drain(),
            Ok(Request::Ack { seq }) => {
                if session.token().is_some() {
                    session.outbox().ack(seq);
                } else {
                    session.respond(&Response::Error {
                        message: "ack requires a hello session".to_string(),
                    });
                }
            }
            Ok(Request::Hello) | Ok(Request::Resume { .. }) => {
                session.respond(&Response::Error {
                    message: "session identity is fixed by the first request".to_string(),
                });
            }
            Ok(Request::Shutdown) => {
                // Graceful daemon stop: refuse new work, finish everything,
                // then close every session (the epilogue sends this
                // session's `bye`).
                scheduler.start_draining();
                scheduler.wait_idle();
                shared.close_all();
                break;
            }
            Err(message) => session.respond(&Response::Error { message }),
        }
        if shared.stopping.load(Ordering::SeqCst) {
            break;
        }
    }

    if session.token().is_some() && !shared.stopping.load(Ordering::SeqCst) {
        // The connection ended but the daemon lives on: park the session —
        // results keep landing in its retained outbox — and release this
        // writer so a future `resume` can replace it.
        session.outbox().detach(epoch);
        let _ = writer_thread.join();
        return;
    }
    session.respond(&Response::Bye);
    session.outbox().close();
    let _ = writer_thread.join();
    if let Some(token) = session.token() {
        shared
            .sessions
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .remove(token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::JobSpec;
    use std::io::Cursor;

    type Calls = Arc<Mutex<Vec<Vec<u8>>>>;

    /// A `Write` that logs the bytes of every `write` call, then forwards
    /// them.
    struct Recording<W> {
        inner: W,
        calls: Calls,
    }

    impl<W: Write> Write for Recording<W> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            let written = self.inner.write(buf)?;
            self.calls.lock().unwrap().push(buf[..written].to_vec());
            Ok(written)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
    }

    fn recording<W: Write>(inner: W) -> (Recording<W>, Calls) {
        let calls = Calls::default();
        let writer = Recording {
            inner,
            calls: Arc::clone(&calls),
        };
        (writer, calls)
    }

    fn daemon() -> DaemonHandle {
        Daemon::loopback(DaemonConfig {
            pool: ThroughputPool::from_jobs(1),
            ..DaemonConfig::default()
        })
    }

    /// [`DaemonHandle::connect`] with both directions recorded: returns the
    /// client plus the client's and the daemon's `write` calls.
    fn recorded_session(daemon: &DaemonHandle) -> (Client, Calls, Calls) {
        let (client_tx, server_rx) = pipe();
        let (server_tx, client_rx) = pipe();
        let (server_tx, daemon_calls) = recording(server_tx);
        let (client_tx, client_calls) = recording(client_tx);
        let shared = Arc::clone(&daemon.shared);
        let handle = std::thread::spawn(move || {
            serve_session(&shared, BufReader::new(server_rx), server_tx);
        });
        daemon.shared.adopt_thread(handle);
        let client = Client::new(BufReader::new(client_rx), client_tx);
        (client, client_calls, daemon_calls)
    }

    /// Every `write` call carries exactly one whole `\n`-terminated line;
    /// returns the lines.
    fn one_line_per_write(calls: &Calls) -> Vec<String> {
        calls
            .lock()
            .unwrap()
            .iter()
            .map(|call| {
                let text = String::from_utf8(call.clone()).expect("protocol lines are UTF-8");
                let body = text
                    .strip_suffix('\n')
                    .unwrap_or_else(|| panic!("write call {text:?} does not end a line"));
                assert!(
                    !body.is_empty() && !body.contains('\n'),
                    "write call {text:?} is not one whole line"
                );
                body.to_string()
            })
            .collect()
    }

    fn job() -> JobSpec {
        match Request::parse("submit id=j0 dist=uniform:4 n=30 seed=7 algo=er-merge backend=seq") {
            Ok(Request::Submit(spec)) => spec,
            other => panic!("bad fixture: {other:?}"),
        }
    }

    fn verb(line: &str) -> &str {
        line.split_whitespace().next().unwrap_or("")
    }

    #[test]
    fn anonymous_session_writes_each_line_in_one_call() {
        let daemon = daemon();
        let (mut client, client_calls, daemon_calls) = recorded_session(&daemon);
        client.submit(&job()).unwrap();
        let done = client.drain().unwrap();
        assert!(
            matches!(done.last(), Some(Response::Result { .. })),
            "{done:?}"
        );
        client.ack(1).unwrap();
        assert!(matches!(
            client.recv().unwrap(),
            Some(Response::Error { .. })
        ));
        assert_eq!(client.shutdown().unwrap(), vec![Response::Bye]);
        daemon.join();

        let lines = one_line_per_write(&daemon_calls);
        let verbs: Vec<&str> = lines.iter().map(|line| verb(line)).collect();
        assert_eq!(verbs, ["accepted", "result", "drained", "error", "bye"]);
        let requests = one_line_per_write(&client_calls);
        let requests: Vec<&str> = requests.iter().map(|line| verb(line)).collect();
        assert_eq!(requests, ["submit", "drain", "ack", "shutdown"]);
    }

    #[test]
    fn hello_session_and_failed_resume_write_each_line_in_one_call() {
        let daemon = daemon();
        let (mut client, client_calls, daemon_calls) = recorded_session(&daemon);
        let token = client.hello().unwrap();
        client.submit(&job()).unwrap();
        let done = client.drain().unwrap();
        assert!(
            matches!(done.last(), Some(Response::Result { .. })),
            "{done:?}"
        );
        client.ack(client.last_seq()).unwrap();

        // A resume naming an unknown token is answered on the raw writer,
        // before any session exists.
        let (raw, raw_calls) = recording(std::io::sink());
        let resume = Request::Resume {
            token: format!("{token}x"),
            last_seq: 0,
        };
        serve_session(
            &daemon.shared,
            Cursor::new(format!("{}\n", resume.render())),
            raw,
        );
        let answer = one_line_per_write(&raw_calls);
        assert_eq!(answer.len(), 1);
        assert_eq!(verb(&answer[0]), "error");

        assert_eq!(client.shutdown().unwrap(), vec![Response::Bye]);
        daemon.join();

        let lines = one_line_per_write(&daemon_calls);
        let verbs: Vec<&str> = lines
            .iter()
            .map(|line| match crate::protocol::split_seq(line) {
                (Some(_), payload) => verb(payload),
                (None, _) => panic!("hello-session line {line:?} lacks its seq= prefix"),
            })
            .collect();
        assert_eq!(verbs, ["hello", "accepted", "result", "drained", "bye"]);
        let requests = one_line_per_write(&client_calls);
        let requests: Vec<&str> = requests.iter().map(|line| verb(line)).collect();
        assert_eq!(requests, ["hello", "submit", "drain", "ack", "shutdown"]);
    }

    #[test]
    fn tcp_streams_have_nagle_off_on_both_ends() {
        let daemon = daemon();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client_side = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (daemon_side, _) = listener.accept().unwrap();
        let client_probe = client_side.try_clone().unwrap();
        let daemon_probe = daemon_side.try_clone().unwrap();
        assert!(
            !client_probe.nodelay().unwrap(),
            "sockets start with Nagle on"
        );

        // `Client::connect` is `TcpStream::connect` + `over_tcp`; the
        // daemon's accept loop hands every stream to `spawn_tcp_session`.
        let mut client = Client::over_tcp(client_side).unwrap();
        spawn_tcp_session(&daemon.shared, daemon_side);
        assert!(client_probe.nodelay().unwrap());
        assert!(daemon_probe.nodelay().unwrap());
        // A probe is a second handle on its socket: hold it and the
        // daemon's hang-up never reaches the client.
        drop((client_probe, daemon_probe));

        client.send(&Request::Status).unwrap();
        assert!(matches!(
            client.recv().unwrap(),
            Some(Response::Status { .. })
        ));
        assert_eq!(client.shutdown().unwrap(), vec![Response::Bye]);
        daemon.join();
    }
}
