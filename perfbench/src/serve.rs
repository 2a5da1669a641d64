//! A client of one resident `march-codex serve` process over its stdin and
//! stdout, plus the open-loop load generator.

use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::{MAX_IN_FLIGHT, THREADS};

pub struct Server {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts `serve` with the benchmark's thread and in-flight settings.
    pub fn spawn(bin: &Path, extra: &[&str]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .args(["serve", "--threads", &THREADS.to_string()])
            .args(["--max-in-flight", &MAX_IN_FLIGHT.to_string()])
            .args(extra)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Server {
            child,
            stdin,
            stdout,
        })
    }

    /// Sends one request line and reads its response line.
    pub fn request(&mut self, line: &str) -> io::Result<String> {
        writeln!(self.stdin, "{line}")?;
        self.stdin.flush()?;
        let mut response = String::new();
        if self.stdout.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed its output",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Peak resident set of the server so far, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::pid_peak_rss_mb(self.child.id())
    }

    /// Runs [`open_loop`] over this server's pipes. A server that leaves
    /// requests unanswered past the grace period is killed, so the run ends.
    pub fn open_loop(
        &mut self,
        lines: &[String],
        first_seq: usize,
        rate: f64,
        grace: Duration,
    ) -> OpenLoop {
        let Server {
            child,
            stdin,
            stdout,
        } = self;
        open_loop(stdin, stdout, lines, first_seq, rate, grace, || {
            let _ = child.kill();
        })
    }

    /// Closes stdin (end of stream: the server drains and exits) and waits.
    pub fn shutdown(self) -> io::Result<()> {
        let Server {
            mut child,
            stdin,
            stdout,
        } = self;
        drop(stdin);
        drop(stdout);
        child.wait().map(|_| ())
    }
}

/// What an open-loop run observed, per request in send order.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Response line, or `None` when none arrived before the deadline.
    pub responses: Vec<Option<String>>,
    /// Latency from the request's due time to its response, in ms.
    pub latencies_ms: Vec<Option<f64>>,
    /// How late each request was actually written, in ms.
    pub send_lag_ms: Vec<f64>,
    /// From the first due time to the last response.
    pub wall_s: f64,
}

/// The `seq` of a response line.
fn seq_of(line: &str) -> Option<usize> {
    let rest = line.strip_prefix("{\"seq\": ")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

/// Sends `lines` at a fixed offered `rate` (requests per second) and times
/// each response from its request's due time, not from when it was written:
/// a stalled server delays the sender's writes, and that delay is charged to
/// every later request instead of being hidden (no coordinated omission).
///
/// Responses are matched by their `seq`, which counts from `first_seq` (the
/// requests the stream already carried). Any response missing `grace` after
/// the last due time counts as unanswered, and `stop` is called to end the
/// stream (it must make pending reads and writes return).
pub fn open_loop<W, R>(
    writer: &mut W,
    reader: R,
    lines: &[String],
    first_seq: usize,
    rate: f64,
    grace: Duration,
    stop: impl FnOnce(),
) -> OpenLoop
where
    W: Write + Send,
    R: BufRead + Send,
{
    let n = lines.len();
    let (tx, rx) = mpsc::channel::<(String, Instant)>();
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let mut out = OpenLoop {
        responses: vec![None; n],
        latencies_ms: vec![None; n],
        send_lag_ms: Vec::with_capacity(n),
        wall_s: 0.0,
    };
    std::thread::scope(|scope| {
        // The reader thread owns the response pipe; it ends at end of stream
        // or once every response is in.
        scope.spawn(move || {
            let mut reader = reader;
            for _ in 0..n {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {
                        if tx
                            .send((line.trim_end().to_string(), Instant::now()))
                            .is_err()
                        {
                            break;
                        }
                    }
                }
            }
        });
        let sender = scope.spawn(|| {
            let mut lags = Vec::with_capacity(n);
            for (i, line) in lines.iter().enumerate() {
                let due = due(i);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let written = writeln!(writer, "{line}").and_then(|()| writer.flush());
                lags.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                if written.is_err() {
                    break;
                }
            }
            lags
        });
        let deadline = due(n.saturating_sub(1)) + grace;
        let mut received = 0;
        let mut last = start;
        while received < n {
            let wait = deadline.saturating_duration_since(Instant::now());
            let Ok((line, at)) = rx.recv_timeout(wait) else {
                break;
            };
            let Some(seq) = seq_of(&line)
                .and_then(|seq| seq.checked_sub(first_seq))
                .filter(|&seq| seq < n)
            else {
                continue;
            };
            out.latencies_ms[seq] =
                Some(at.saturating_duration_since(due(seq)).as_secs_f64() * 1e3);
            out.responses[seq] = Some(line);
            last = last.max(at);
            received += 1;
        }
        if received < n {
            stop();
        }
        out.send_lag_ms = sender.join().unwrap_or_default();
        out.wall_s = last.saturating_duration_since(start).as_secs_f64();
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake server: answers each request line with `{"seq": i}` after an
    /// optional stall on the first one.
    fn fake_server(
        stall: Duration,
    ) -> (io::PipeWriter, io::PipeReader, std::thread::JoinHandle<()>) {
        let (request_reader, request_writer) = io::pipe().unwrap();
        let (response_reader, mut response_writer) = io::pipe().unwrap();
        let handle = std::thread::spawn(move || {
            let mut lines = BufReader::new(request_reader).lines();
            let mut seq = 0;
            while let Some(Ok(_)) = lines.next() {
                if seq == 0 {
                    std::thread::sleep(stall);
                }
                if writeln!(response_writer, "{{\"seq\": {seq}, \"ok\": true}}").is_err() {
                    break;
                }
                seq += 1;
            }
        });
        (request_writer, response_reader, handle)
    }

    #[test]
    fn a_stalled_server_raises_later_latencies() {
        let lines: Vec<String> = (0..20).map(|i| format!("{{\"n\": {i}}}")).collect();
        let (mut writer, reader, server) = fake_server(Duration::from_millis(300));
        let run = open_loop(
            &mut writer,
            BufReader::new(reader),
            &lines,
            0,
            100.0,
            Duration::from_secs(5),
            || {},
        );
        drop(writer);
        server.join().unwrap();
        assert!(run.responses.iter().all(Option::is_some));
        // Request i was due at 10·i ms and answered after the 300 ms stall,
        // so its latency from the due time is at least 300 − 10·i ms.
        for (i, latency) in run.latencies_ms.iter().enumerate() {
            let latency = latency.unwrap();
            assert!(
                latency >= 300.0 - 10.0 * i as f64 - 1.0,
                "request {i}: {latency} ms"
            );
        }
    }

    #[test]
    fn missing_responses_are_unanswered() {
        let lines: Vec<String> = (0..5).map(|i| format!("{{\"n\": {i}}}")).collect();
        let (response_reader, mut response_writer) = io::pipe().unwrap();
        // Only two responses ever arrive.
        writeln!(response_writer, "{{\"seq\": 0}}\n{{\"seq\": 1}}").unwrap();
        drop(response_writer);
        let mut sink = Vec::new();
        let mut stopped = false;
        let run = open_loop(
            &mut sink,
            BufReader::new(response_reader),
            &lines,
            0,
            1000.0,
            Duration::from_millis(50),
            || {
                stopped = true;
            },
        );
        assert!(stopped, "an incomplete run stops the stream");
        assert_eq!(run.responses.iter().filter(|r| r.is_some()).count(), 2);
        assert!(run.latencies_ms[2..].iter().all(Option::is_none));
    }

    #[test]
    fn seq_is_read_from_the_response_prefix() {
        assert_eq!(seq_of(r#"{"seq": 17, "ok": true}"#), Some(17));
        assert_eq!(seq_of(r#"{"ok": true}"#), None);
    }
}
