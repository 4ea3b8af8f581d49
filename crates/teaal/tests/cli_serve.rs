//! The `teaal serve` daemon exercised end-to-end against the real
//! binary: request/response over TCP, admission-control shedding under
//! overload, panic isolation, injected connection drops, and graceful
//! SIGTERM drain.
//!
//! Every scenario is bounded: daemons listen on ephemeral ports, all
//! waits have deadlines, and a `DaemonGuard` kills the child on drop so
//! a failing assertion cannot leak a process.

#![cfg(unix)]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const SPMSPM: &str = concat!(
    "einsum:\n",
    "  declaration:\n",
    "    A: [K, M]\n",
    "    B: [K, N]\n",
    "    Z: [M, N]\n",
    "  expressions:\n",
    "    - Z[m, n] = A[k, m] * B[k, n]\n",
);

/// Writes `content` to a unique temp file and returns its path.
fn temp_spec(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("teaal-cli-serve-{}-{tag}.yaml", std::process::id()));
    std::fs::write(&path, SPMSPM).expect("write temp spec");
    path
}

/// A running daemon bound to an ephemeral port; killed on drop.
struct DaemonGuard {
    child: Child,
    port: u16,
}

impl DaemonGuard {
    /// Starts `teaal serve` with the standard test dataset plus
    /// `extra_args`, under the given `TEAAL_FAILPOINTS` value, and
    /// waits for the listening line.
    fn start(extra_args: &[&str], failpoints: &str) -> DaemonGuard {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_teaal"));
        cmd.args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--random",
            "A=K,M:32x32:64",
            "--random",
            "B=K,N:32x32:64",
        ])
        .args(extra_args)
        .env("TEAAL_FAILPOINTS", failpoints)
        .stdout(Stdio::piped())
        .stderr(Stdio::null());
        let mut child = cmd.spawn().expect("spawn teaal serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let line = lines
            .next()
            .expect("daemon printed its listening line")
            .expect("read listening line");
        let port: u16 = line
            .rsplit(':')
            .next()
            .and_then(|p| p.trim().parse().ok())
            .unwrap_or_else(|| panic!("unparsable listening line: {line}"));
        DaemonGuard { child, port }
    }

    fn addr(&self) -> String {
        format!("127.0.0.1:{}", self.port)
    }

    /// Sends SIGTERM to the daemon.
    fn sigterm(&self) {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
    }

    /// Waits (bounded) for the daemon to exit and returns its status.
    fn wait_exit(mut self, timeout: Duration) -> std::process::ExitStatus {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "daemon did not exit within {timeout:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Runs `teaal client` against `addr` and returns its output.
fn client(addr: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_teaal"))
        .args(["client"])
        .args(args)
        .args(["--addr", addr, "--timeout-ms", "10000"])
        .output()
        .expect("spawn teaal client")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Parses `key value` lines from `teaal client health` output.
fn health_field(health: &str, key: &str) -> u64 {
    health
        .lines()
        .find_map(|l| l.strip_prefix(&format!("{key} ")))
        .unwrap_or_else(|| panic!("health output missing {key}: {health}"))
        .trim()
        .parse()
        .expect("numeric health field")
}

#[test]
fn eval_roundtrip_with_health_telemetry() {
    let daemon = DaemonGuard::start(&[], "");
    let spec = temp_spec("roundtrip");

    let ping = client(&daemon.addr(), &["ping"]);
    assert!(ping.status.success(), "ping failed: {}", stderr_of(&ping));

    let eval = client(&daemon.addr(), &["eval", spec.to_str().unwrap()]);
    let _ = std::fs::remove_file(&spec);
    assert!(eval.status.success(), "eval failed: {}", stderr_of(&eval));
    let report = stdout_of(&eval);
    assert!(
        report.contains("simulation report") && report.contains("einsum Z"),
        "wire eval must return the same report `teaal run` prints: {report}"
    );

    let health = client(&daemon.addr(), &["health"]);
    assert!(health.status.success());
    let h = stdout_of(&health);
    assert_eq!(health_field(&h, "served_ok"), 1);
    assert_eq!(
        health_field(&h, "in_flight"),
        0,
        "no phantom in-flight: {h}"
    );
    assert_eq!(health_field(&h, "draining"), 0);
    assert_eq!(health_field(&h, "cache.report.misses"), 1, "{h}");
}

#[test]
fn overload_sheds_with_structured_response_and_daemon_survives() {
    // One worker, one queue slot, and every request pinned at 500 ms:
    // of six concurrent single-attempt clients at most two are admitted
    // — the rest must shed *immediately* with `overloaded`.
    let daemon = DaemonGuard::start(
        &["--workers", "1", "--queue", "1"],
        "serve.request:sleep(500)",
    );
    let spec = temp_spec("overload");
    let mut children: Vec<Child> = (0..6)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_teaal"))
                .args(["client", "eval", spec.to_str().unwrap()])
                .args(["--addr", &daemon.addr(), "--retries", "0"])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn client")
        })
        .collect();
    let (mut ok, mut overloaded) = (0, 0);
    for child in children.drain(..) {
        let out = child.wait_with_output().expect("client output");
        match out.status.code() {
            Some(0) => ok += 1,
            Some(2) => {
                assert!(
                    stderr_of(&out).contains("error[overloaded]"),
                    "structured overload rejection expected: {}",
                    stderr_of(&out)
                );
                overloaded += 1;
            }
            other => panic!("unexpected client exit {other:?}: {}", stderr_of(&out)),
        }
    }
    let _ = std::fs::remove_file(&spec);
    assert!(ok >= 1, "at least the admitted request succeeds");
    assert!(overloaded >= 1, "the excess load must be shed");

    // Shedding never wedges the daemon: it still answers, and the
    // gauges return to idle.
    let health = client(&daemon.addr(), &["health"]);
    assert!(health.status.success());
    let h = stdout_of(&health);
    assert!(health_field(&h, "shed_overloaded") >= 1, "{h}");
    assert_eq!(health_field(&h, "in_flight"), 0, "{h}");
    assert_eq!(health_field(&h, "queued"), 0, "{h}");
}

#[test]
fn panicking_request_becomes_structured_error_and_daemon_survives() {
    let daemon = DaemonGuard::start(&[], "serve.request:panic@1");
    let spec = temp_spec("panic");

    let first = client(&daemon.addr(), &["eval", spec.to_str().unwrap()]);
    assert_eq!(
        first.status.code(),
        Some(2),
        "a panicking evaluation is an answered error, not a dead daemon"
    );
    let err = stderr_of(&first);
    assert!(
        err.contains("error[panic]") && err.contains("worker panicked"),
        "panic must surface with its class and message: {err}"
    );

    let second = client(&daemon.addr(), &["eval", spec.to_str().unwrap()]);
    let _ = std::fs::remove_file(&spec);
    assert!(
        second.status.success(),
        "the worker pool survives a panic: {}",
        stderr_of(&second)
    );
    assert!(stdout_of(&second).contains("simulation report"));
}

#[test]
fn dropped_connection_is_recovered_by_client_retry() {
    // First response is truncated mid-frame and the socket severed;
    // the client's retry (evaluation is idempotent) must succeed.
    let daemon = DaemonGuard::start(&[], "serve.request:drop@1");
    let spec = temp_spec("drop");
    let out = client(
        &daemon.addr(),
        &[
            "eval",
            spec.to_str().unwrap(),
            "--retries",
            "3",
            "--backoff-ms",
            "20",
        ],
    );
    let _ = std::fs::remove_file(&spec);
    assert!(
        out.status.success(),
        "retry must recover an injected connection drop: {}",
        stderr_of(&out)
    );
    assert!(stdout_of(&out).contains("simulation report"));
}

#[test]
fn sigterm_drains_in_flight_work_then_exits_cleanly() {
    // Pin every request at 400 ms so one is reliably in flight when the
    // signal lands mid-evaluation.
    let daemon = DaemonGuard::start(&["--drain-ms", "5000"], "serve.request:sleep(400)");
    let spec = temp_spec("drain");
    let addr = daemon.addr();
    let spec_path = spec.to_str().unwrap().to_string();
    let in_flight = std::thread::spawn(move || {
        Command::new(env!("CARGO_BIN_EXE_teaal"))
            .args(["client", "eval", &spec_path])
            .args(["--addr", &addr, "--retries", "0"])
            .output()
            .expect("spawn client")
    });
    std::thread::sleep(Duration::from_millis(150));
    daemon.sigterm();

    let out = in_flight.join().expect("client thread");
    let _ = std::fs::remove_file(&spec);
    assert!(
        out.status.success(),
        "in-flight work must complete during drain: {}",
        stderr_of(&out)
    );
    assert!(stdout_of(&out).contains("simulation report"));
    let status = daemon.wait_exit(Duration::from_secs(10));
    assert!(status.success(), "drained daemon exits 0, got {status:?}");
}

#[test]
fn garbage_bytes_get_a_protocol_error_and_daemon_survives() {
    let daemon = DaemonGuard::start(&[], "");

    let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"GET / HTTP/1.1\r\n\r\n")
        .expect("write garbage");
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    assert!(
        reply.contains("teaal/1 err") && reply.contains("protocol"),
        "garbage must get a structured protocol error: {reply:?}"
    );
    drop(stream);

    // A recoverable body-level error keeps the same connection usable.
    let mut stream = TcpStream::connect(daemon.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
        .write_all(b"teaal/1 req 8\nKEY bad\n\n")
        .expect("write bad body");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("read error header");
    assert!(line.starts_with("teaal/1 err"), "got {line:?}");
    let mut body = vec![
        0u8;
        line.trim()
            .rsplit(' ')
            .next()
            .unwrap()
            .parse::<usize>()
            .unwrap()
            + 1
    ];
    reader.read_exact(&mut body).expect("read error body");
    // Same connection, now a valid frame: the stream never
    // desynchronized.
    stream
        .write_all(b"teaal/1 req 8\nop ping\n\n")
        .expect("write ping");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read pong header");
    assert!(line.starts_with("teaal/1 ok"), "got {line:?}");

    let ping = client(&daemon.addr(), &["ping"]);
    assert!(ping.status.success(), "daemon survives garbage");
}

#[test]
fn deeply_nested_spec_is_a_bad_request_and_daemon_survives() {
    let daemon = DaemonGuard::start(&["--workers", "1"], "");
    // 200 000 nested inline sequences: recursing once per `[` used to
    // overflow the worker's stack and abort the whole daemon.
    let path =
        std::env::temp_dir().join(format!("teaal-cli-serve-{}-deep.yaml", std::process::id()));
    let depth = 200_000;
    std::fs::write(
        &path,
        format!("einsum: {}{}\n", "[".repeat(depth), "]".repeat(depth)),
    )
    .expect("write deep spec");
    let deep = client(&daemon.addr(), &["eval", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(deep.status.code(), Some(2), "{}", stderr_of(&deep));
    assert!(
        stderr_of(&deep).contains("error[bad-request]") && stderr_of(&deep).contains("nesting"),
        "the deep spec is rejected by the parser: {}",
        stderr_of(&deep)
    );

    let ping = client(&daemon.addr(), &["ping"]);
    assert!(ping.status.success(), "{}", stderr_of(&ping));
    assert_eq!(stdout_of(&ping).trim(), "pong");
}
