//! The TCP server: accept loop, per-connection protocol handling, and
//! graceful shutdown.
//!
//! Transport is plain `std::net` — one line of JSON per request, one line
//! per response, handled by a thread per connection (the worker pool, not
//! the connection count, bounds solver concurrency). Connection reads use
//! a short timeout so handlers notice server shutdown promptly; the accept
//! loop is unblocked at shutdown by a loopback self-connection.
//!
//! Request vocabulary (`{"cmd": ...}`):
//!
//! * `submit` — enqueue one job, answer `{"ok": true, "id": N}`;
//! * `submit_batch` — answer each job the cache holds at once, enqueue
//!   the rest as `submit` would, answer the ids plus the count of cached
//!   jobs (`presolved`);
//! * `status` — job state and, when done, the result, without releasing
//!   the job;
//! * `wait` — block until the job finishes, answer the result and release
//!   the job's record;
//! * `cancel` — flag a job's cancellation token;
//! * `stats` — queue, cache and design table counters, with `retained`,
//!   the job records the server holds;
//! * `shutdown` — acknowledge, then begin graceful shutdown: cancel
//!   in-flight jobs cooperatively, drain and join workers, join
//!   connections, release the listener.
//!
//! The job table is bounded ([`crate::queue`]). A job's record is released
//! when a `wait` delivers its result, or, if nobody waits for it, once
//! [`RETAINED_FINISHED`](crate::RETAINED_FINISHED) (4,096) later jobs have
//! finished. `wait` or `status` on a released id answers
//! `{"ok": false, "error": "job N expired"}`; an id the server never issued
//! answers the unknown-id error, and `cancel` on either answers `false`.
//!
//! `submit` and `submit_batch` parse their line with
//! [`Json::parse_deferring`], leaving each job's `"spec"` and `"netlist"`
//! as text, and take the design from the server's design table
//! ([`crate::design`]): a design whose exact text the table holds is not
//! parsed again, and its jobs share one copy of it. The replies are the
//! ones [`JobRequest::from_json`](crate::JobRequest::from_json) would give,
//! errors included.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use ipcl_trace::json::{write_json_string, Json};
use ipcl_trace::{Tracer, Value};

use crate::cache::{job_key, CacheLimits, ProofCache};
use crate::design::{DesignTable, DESIGN_MEMBERS};
use crate::pool::{cached_outcome, WorkerPool};
use crate::queue::{JobQueue, JobState, Missing};

/// Server knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:7171"` (`:0` picks a free port).
    pub addr: String,
    /// Solver worker threads.
    pub workers: usize,
    /// Proof-cache persistence directory (`None`: memory only).
    pub cache_dir: Option<PathBuf>,
    /// LRU size bounds of the proof cache (default: unbounded).
    pub cache_limits: CacheLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            cache_dir: None,
            cache_limits: CacheLimits::default(),
        }
    }
}

/// A running verification server. Dropping without calling
/// [`Server::shutdown`] leaks the background threads; the binary and tests
/// always shut down explicitly.
pub struct Server {
    addr: SocketAddr,
    queue: Arc<JobQueue>,
    cache: Arc<ProofCache>,
    designs: Arc<DesignTable>,
    shutdown: Arc<AtomicBool>,
    accept_handle: JoinHandle<()>,
    pool: WorkerPool,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
    tracer: Tracer,
}

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServerConfig, tracer: Tracer) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let queue = Arc::new(JobQueue::new());
        let cache = Arc::new(ProofCache::with_limits(
            config.cache_dir.clone(),
            config.cache_limits,
        ));
        let designs = Arc::new(DesignTable::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let pool = WorkerPool::spawn(
            config.workers,
            Arc::clone(&queue),
            Arc::clone(&cache),
            Arc::clone(&designs),
            tracer.clone(),
        );

        let accept_handle = {
            let queue = Arc::clone(&queue);
            let cache = Arc::clone(&cache);
            let designs = Arc::clone(&designs);
            let shutdown = Arc::clone(&shutdown);
            let connections = Arc::clone(&connections);
            let tracer = tracer.clone();
            std::thread::Builder::new()
                .name("ipcl-serve-accept".to_owned())
                .spawn(move || {
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Relaxed) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let queue = Arc::clone(&queue);
                        let cache = Arc::clone(&cache);
                        let designs = Arc::clone(&designs);
                        let shutdown = Arc::clone(&shutdown);
                        let tracer = tracer.clone();
                        let handle = std::thread::Builder::new()
                            .name("ipcl-serve-conn".to_owned())
                            .spawn(move || {
                                handle_connection(
                                    stream, &queue, &cache, &designs, &shutdown, &tracer,
                                );
                            })
                            .expect("spawn connection thread");
                        connections.lock().expect("connections lock").push(handle);
                    }
                })
                .expect("spawn accept thread")
        };

        tracer.event(
            "serve.listening",
            &[("workers", Value::U64(config.workers as u64))],
        );
        Ok(Server {
            addr,
            queue,
            cache,
            designs,
            shutdown,
            accept_handle,
            pool,
            connections,
            tracer,
        })
    }

    /// The bound address (with the OS-assigned port when `:0` was asked).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared job queue (for in-process submission in tests and the
    /// load generator).
    pub fn queue(&self) -> &Arc<JobQueue> {
        &self.queue
    }

    /// The shared proof cache.
    pub fn cache(&self) -> &Arc<ProofCache> {
        &self.cache
    }

    /// The design table of the jobs submitted over the wire.
    pub fn designs(&self) -> &Arc<DesignTable> {
        &self.designs
    }

    /// Whether a client asked the server to shut down (the binary's serve
    /// loop polls this).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: cancels in-flight jobs (cooperatively, at the
    /// next SAT-query boundary), drains and joins the workers, joins every
    /// connection handler, and releases the listener.
    pub fn shutdown(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue.shutdown();
        // Unblock the accept loop with a loopback connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept_handle.join();
        self.pool.join();
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.connections.lock().expect("connections lock"));
        for handle in handles {
            let _ = handle.join();
        }
        self.tracer.event("serve.stopped", &[]);
    }
}

/// Longest request line the server reads, in bytes. The bytes of a line
/// are kept across read timeouts until its newline arrives, so the buffer
/// is bounded: a longer line gets an error reply and the connection
/// closes. A `submit_batch` of every property of the FirePath-like
/// design (the largest design the tests and benchmarks use) is under
/// 1 MiB.
pub const MAX_LINE_BYTES: usize = 16 << 20;

fn handle_connection(
    stream: TcpStream,
    queue: &JobQueue,
    cache: &ProofCache,
    designs: &DesignTable,
    shutdown: &AtomicBool,
    tracer: &Tracer,
) {
    // Short read timeouts keep the handler responsive to shutdown; no
    // Nagle — responses are single lines that must leave immediately.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // The raw bytes of the line being read. A read that times out keeps
    // what it got, so a request sent in pieces (even split inside a UTF-8
    // character) is answered like a whole one; the line is cleared only
    // once it has been handled.
    let mut line: Vec<u8> = Vec::new();
    loop {
        // One byte past the limit tells an over-long line from a full one.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => return, // client closed
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shutdown.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // Without a newline the line ended at the limit or at end of input.
        if line.len() > MAX_LINE_BYTES {
            let mut response =
                error_response(&format!("request line longer than {MAX_LINE_BYTES} bytes"));
            response.push('\n');
            let _ = writer.write_all(response.as_bytes());
            let _ = writer.flush();
            return;
        }
        let mut response = match std::str::from_utf8(&line) {
            Ok(text) if text.trim().is_empty() => {
                line.clear();
                continue;
            }
            Ok(text) => respond(text.trim(), queue, cache, designs, shutdown, tracer),
            Err(e) => error_response(&format!("bad request: {e}")),
        };
        line.clear();
        response.push('\n');
        if writer.write_all(response.as_bytes()).is_err() {
            return;
        }
        let _ = writer.flush();
        if shutdown.load(Ordering::Relaxed) {
            // The shutdown acknowledgement has been sent; stop serving.
            return;
        }
    }
}

fn error_response(message: &str) -> String {
    let mut out = String::from("{\"ok\": false, \"error\": ");
    write_json_string(&mut out, message);
    out.push('}');
    out
}

/// The answer to `wait` or `status` on an id whose record was released.
fn expired_response(id: u64) -> String {
    error_response(&format!("job {id} expired"))
}

fn respond(
    line: &str,
    queue: &JobQueue,
    cache: &ProofCache,
    designs: &DesignTable,
    shutdown: &AtomicBool,
    tracer: &Tracer,
) -> String {
    let request = match Json::parse_deferring(line, DESIGN_MEMBERS) {
        Ok(request) => request,
        Err(e) => return error_response(&format!("bad request: {e}")),
    };
    match request.get("cmd").and_then(Json::as_str) {
        Some("submit") => {
            let Some(job) = request.get("job") else {
                return error_response("submit misses 'job'");
            };
            match designs.job(job, line) {
                Ok(job) => {
                    let id = queue.submit(job);
                    tracer.event("serve.job_submitted", &[("id", Value::U64(id))]);
                    format!("{{\"ok\": true, \"id\": {id}}}")
                }
                Err(message) => error_response(&message),
            }
        }
        Some("submit_batch") => {
            let Some(jobs) = request.get("jobs").and_then(Json::as_array) else {
                return error_response("submit_batch misses 'jobs'");
            };
            let mut parsed = Vec::with_capacity(jobs.len());
            for (i, job) in jobs.iter().enumerate() {
                match designs.job(job, line) {
                    Ok(job) => parsed.push(job),
                    Err(message) => return error_response(&format!("job {i}: {message}")),
                }
            }
            // A job the cache holds is answered now, through the workers'
            // own revalidated lookup; every other job is queued.
            let mut presolved = 0;
            let mut rendered = Vec::with_capacity(parsed.len());
            for job in parsed {
                let view = job.view();
                let hit = view.resolve_property().ok().and_then(|property| {
                    let key = job_key(view, &property);
                    cached_outcome(view, &property, &key, cache, tracer)
                });
                let id = match hit {
                    Some(outcome) => {
                        presolved += 1;
                        queue.submit_resolved(outcome)
                    }
                    None => queue.submit(job),
                };
                rendered.push(id.to_string());
            }
            format!(
                "{{\"ok\": true, \"ids\": [{}], \"presolved\": {presolved}}}",
                rendered.join(", ")
            )
        }
        Some("status") => match request.get("id").and_then(Json::as_u64) {
            Some(id) => match queue.status(id) {
                Ok((state, outcome)) => {
                    let mut out = format!("{{\"ok\": true, \"state\": \"{}\"", state.name());
                    if let (JobState::Done, Some(outcome)) = (state, outcome) {
                        out.push_str(", \"result\": ");
                        out.push_str(&outcome.to_json_string());
                    }
                    out.push('}');
                    out
                }
                Err(Missing::Expired) => expired_response(id),
                Err(_) => error_response("unknown job id"),
            },
            None => error_response("status misses 'id'"),
        },
        Some("wait") => match request.get("id").and_then(Json::as_u64) {
            Some(id) => match queue.wait(id) {
                Ok(outcome) => {
                    format!("{{\"ok\": true, \"result\": {}}}", outcome.to_json_string())
                }
                Err(Missing::Expired) => expired_response(id),
                Err(_) => error_response("unknown job id (or server shut down mid-job)"),
            },
            None => error_response("wait misses 'id'"),
        },
        Some("cancel") => match request.get("id").and_then(Json::as_u64) {
            Some(id) => format!("{{\"ok\": true, \"canceled\": {}}}", queue.cancel(id)),
            None => error_response("cancel misses 'id'"),
        },
        Some("stats") => {
            let queue_stats = queue.stats();
            let cache_stats = cache.stats();
            let design_stats = designs.stats();
            format!(
                "{{\"ok\": true, \"queued\": {}, \"running\": {}, \"done\": {}, \
                 \"retained\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
                 \"revalidation_failures\": {}, \"cache_evictions\": {}, \
                 \"cache_entries\": {}, \"cache_bytes\": {}, \"design_entries\": {}, \
                 \"design_bytes\": {}, \"design_hits\": {}, \"design_misses\": {}, \
                 \"design_evictions\": {}}}",
                queue_stats.queued,
                queue_stats.running,
                queue_stats.done,
                queue_stats.retained,
                cache_stats.hits,
                cache_stats.misses,
                cache_stats.revalidation_failures,
                cache_stats.evictions,
                cache.len(),
                cache.bytes(),
                design_stats.entries,
                design_stats.bytes,
                design_stats.hits,
                design_stats.misses,
                design_stats.evictions
            )
        }
        Some("shutdown") => {
            shutdown.store(true, Ordering::Relaxed);
            queue.shutdown();
            "{\"ok\": true, \"stopping\": true}".to_owned()
        }
        Some(other) => error_response(&format!("unknown cmd '{other}'")),
        None => error_response("request misses 'cmd'"),
    }
}
