//! The line protocol spoken by `ndq serve` — one command in, one reply
//! line out.
//!
//! Extracted from the CLI binary so that (a) stdin and TCP serving share
//! one implementation, and (b) the `nd-conform` harness can drive the
//! exact production parsing/formatting path in-process, as a
//! deterministic protocol fuzzer, without sockets or subprocesses.
//!
//! Grammar (whitespace-separated, one command per line):
//!
//! ```text
//! test a,b,..        # is the tuple a solution?          -> true | false
//! next a,b,..        # least solution >= tuple           -> a,b,.. | none
//! page a,b,.. LIMIT  # up to LIMIT solutions >= tuple    -> s1;s2;.. next=CURSOR|end
//! stats              # snapshot PrepareStats as JSON
//! metrics            # pool metrics as JSON
//! help               # print the command summary
//! quit | exit        # close the session
//! ```
//!
//! Robustness contract: malformed input yields an `err usage: ...` reply
//! line, engine/serving failures yield `err <kind>: ...` — a client
//! mistake never drops the connection and never panics the server.

use crate::error::ServeError;
use crate::pool::ServerPool;
use crate::request::{Request, Response};
use nd_graph::Vertex;

/// One-line command summary, echoed by `help` and on unknown commands.
pub const PROTOCOL_HELP: &str =
    "commands: test a,b,.. | next a,b,.. | page a,b,.. LIMIT | stats | metrics | help | quit";

/// The outcome of one protocol line.
pub enum Reply {
    /// Write this line back to the client.
    Line(String),
    /// Close the session (reply-less by design: `quit` on a half-closed
    /// socket must not error).
    Quit,
}

/// Render a solution tuple in wire format (`1,7,0`; empty for arity 0).
pub fn fmt_tuple(t: &[Vertex]) -> String {
    t.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Parse a wire-format tuple. The empty string parses as a parse error
/// (an arity-0 probe is spelled as an empty tuple only via `page  LIMIT`,
/// which the grammar does not produce — sentences are served by `stats`
/// style requests, not probes).
pub fn parse_csv_tuple(s: &str) -> Result<Vec<Vertex>, String> {
    s.split(',')
        .map(|p| p.trim().parse::<Vertex>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("bad tuple {s:?}: {e}"))
}

/// Render a successful response in wire format.
pub fn fmt_response(r: Response) -> String {
    match r {
        Response::Test(b) => b.to_string(),
        Response::NextSolution(None) => "none".into(),
        Response::NextSolution(Some(t)) => fmt_tuple(&t),
        Response::Page {
            solutions,
            next_from,
        } => {
            let next = next_from.map_or_else(|| "end".to_string(), |t| fmt_tuple(&t));
            if solutions.is_empty() {
                format!("next={next}")
            } else {
                let sols: Vec<String> = solutions.iter().map(|s| fmt_tuple(s)).collect();
                format!("{} next={next}", sols.join(";"))
            }
        }
    }
}

/// Render a serving failure in wire format: a stable machine-greppable
/// kind tag, then the human-readable detail.
pub fn fmt_serve_error(e: &ServeError) -> String {
    let kind = match e {
        ServeError::Overloaded(_) => "overloaded",
        ServeError::DeadlineExceeded { .. } => "deadline",
        ServeError::Query(_) => "query",
        ServeError::Shutdown => "shutdown",
        ServeError::WorkerPanic(_) => "panic",
    };
    format!("err {kind}: {e}")
}

/// Execute one protocol line against `pool`. Empty lines yield no reply;
/// client mistakes come back as `err usage: ...` lines, never as
/// connection drops.
pub fn handle_command(pool: &ServerPool, line: &str) -> Option<Reply> {
    let line = line.trim();
    let (cmd, rest) = match line.split_once(char::is_whitespace) {
        Some((c, r)) => (c, r.trim()),
        None if line.is_empty() => return None,
        None => (line, ""),
    };
    let reply = match cmd {
        "quit" | "exit" => return Some(Reply::Quit),
        "help" => PROTOCOL_HELP.to_string(),
        "metrics" => pool.metrics_json(),
        "stats" => {
            let snap = pool.snapshot();
            snap.stats().to_json(snap.timings())
        }
        "test" | "next" => match parse_csv_tuple(rest) {
            Ok(tuple) => {
                let req = if cmd == "test" {
                    Request::Test { tuple }
                } else {
                    Request::NextSolution { from: tuple }
                };
                match pool.call(req) {
                    Ok(r) => fmt_response(r),
                    Err(e) => fmt_serve_error(&e),
                }
            }
            Err(e) => format!("err usage: {e}"),
        },
        "page" => {
            let parsed = match rest.rsplit_once(char::is_whitespace) {
                Some((tuple, limit)) => parse_csv_tuple(tuple.trim()).and_then(|from| {
                    let limit: usize = limit
                        .parse()
                        .map_err(|e| format!("bad page limit {limit:?}: {e}"))?;
                    Ok((from, limit))
                }),
                None => Err("expected: page a,b,.. LIMIT".to_string()),
            };
            match parsed {
                Ok((from, limit)) => match pool.call(Request::EnumeratePage { from, limit }) {
                    Ok(r) => fmt_response(r),
                    Err(e) => fmt_serve_error(&e),
                },
                Err(e) => format!("err usage: {e}"),
            }
        }
        other => format!("err usage: unknown command {other:?} ({PROTOCOL_HELP})"),
    };
    Some(Reply::Line(reply))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuple_round_trip() {
        assert_eq!(parse_csv_tuple("3, 1,4").unwrap(), vec![3, 1, 4]);
        assert_eq!(fmt_tuple(&[3, 1, 4]), "3,1,4");
        assert!(parse_csv_tuple("").is_err());
        assert!(parse_csv_tuple("1,,2").is_err());
        assert!(parse_csv_tuple("1,-2").is_err());
    }

    #[test]
    fn responses_render_stably() {
        assert_eq!(fmt_response(Response::Test(true)), "true");
        assert_eq!(fmt_response(Response::NextSolution(None)), "none");
        assert_eq!(
            fmt_response(Response::Page {
                solutions: vec![vec![0, 1], vec![0, 2]],
                next_from: Some(vec![0, 3]),
            }),
            "0,1;0,2 next=0,3"
        );
        assert_eq!(
            fmt_response(Response::Page {
                solutions: vec![],
                next_from: None,
            }),
            "next=end"
        );
    }
}
