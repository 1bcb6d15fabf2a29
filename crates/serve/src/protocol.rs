//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, ordered.
//! Requests name an op plus a kernel — `.fv` source inline or the
//! content hash of a kernel the daemon has already seen:
//!
//! ```text
//! {"op":"compile","id":1,"source":"kernel k; ..."}
//! {"op":"run","id":2,"hash":"00c0ffee00c0ffee","spec":"rtm:128","deadline_ms":250}
//! {"op":"bench","id":3,"source":"...","invocations":32,"engine":"compiled"}
//! {"op":"stats","id":4}
//! ```
//!
//! Responses are `{"id":...,"ok":true,...}` or `{"id":...,"ok":false,
//! "error":{"kind":...,"message":...}}`. The error `kind` is a closed
//! vocabulary ([`ErrorKind`]) so load-shedding clients can branch on
//! `overloaded` / `deadline` without string matching. Malformed input
//! — bad JSON, unknown ops, missing fields — always produces a
//! structured `bad_request`/`parse_error` response, never a dropped
//! connection and never a panic.
//!
//! Cluster members exchange two additional replication ops on the same
//! framing, intercepted before request validation (their payloads
//! don't fit [`Request`]; see `crate::replicate` for the field-level
//! format):
//!
//! ```text
//! {"op":"gossip","id":1,"from":"127.0.0.1:9001","round":7,"manifest":[...]}
//! {"op":"pull","id":2,"hash":"00c0ffee00c0ffee","spec":"ff"}
//! ```
//!
//! Both are **terminal**: a gossip reply carries the receiver's own
//! manifest (push-pull exchange) and a pull is answered from local
//! disk only — `found:false` rather than relayed onward — the same
//! loop-guard discipline the `forwarded` flag enforces for request
//! forwarding, so a stale ring can never create message loops.

use flexvec::SpecRequest;
use flexvec_vm::Engine;

use crate::json::{self, Json};

/// Upper bound on one buffered request line, shared by the epoll
/// reactor and the thread-per-connection fallback: neither will buffer
/// an unbounded line, and both answer the overflow with a structured
/// [`ErrorKind::LineTooLong`] reply before closing the connection.
pub const MAX_LINE: usize = 16 * 1024 * 1024;

/// The reply both accept paths send when a request line exceeds
/// [`MAX_LINE`]. The line's request id is unrecoverable (the line was
/// never parsed), so the id is 0; the connection closes after the
/// reply because the line framing is lost.
pub fn line_too_long_response() -> Json {
    err_response(
        0,
        &ProtoError::new(
            ErrorKind::LineTooLong,
            format!("request line exceeds {MAX_LINE} bytes; closing connection"),
        ),
    )
}

/// What the client wants done.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Parse + compile (through the shared cache) without executing.
    Compile,
    /// Compile and execute once, verifying vector against scalar.
    Run,
    /// Compile and execute `invocations` times, reporting throughput.
    Bench,
    /// Daemon build info, uptime, cache and queue counters.
    Stats,
}

impl Op {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Compile => "compile",
            Op::Run => "run",
            Op::Bench => "bench",
            Op::Stats => "stats",
        }
    }
}

/// A closed error vocabulary — clients branch on the kind, humans read
/// the message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line was not valid JSON.
    ParseError,
    /// The request was structurally wrong (unknown op, missing
    /// `source`/`hash`, invalid `spec`, ...).
    BadRequest,
    /// Admission control shed the request; retry with backoff.
    Overloaded,
    /// The daemon is draining and no longer admits work.
    ShuttingDown,
    /// The per-request deadline expired (queued or mid-run).
    Deadline,
    /// `hash` named a kernel the daemon has not seen (or has evicted).
    UnknownHash,
    /// The `.fv` source failed to parse (diagnostic in the message).
    SourceError,
    /// Execution failed (fault, verification mismatch, ...).
    ExecError,
    /// The request line exceeded the daemon's line-length limit. The
    /// connection is closed after this reply — the framing is lost.
    LineTooLong,
    /// The daemon broke an internal invariant (worker died, ...).
    Internal,
}

impl ErrorKind {
    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::ParseError => "parse_error",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Deadline => "deadline",
            ErrorKind::UnknownHash => "unknown_hash",
            ErrorKind::SourceError => "source_error",
            ErrorKind::ExecError => "exec_error",
            ErrorKind::LineTooLong => "line_too_long",
            ErrorKind::Internal => "internal",
        }
    }
}

/// A structured request failure.
#[derive(Clone, Debug)]
pub struct ProtoError {
    /// Machine-readable category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// Shorthand constructor.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ProtoError {
            kind,
            message: message.into(),
        }
    }
}

/// A validated request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response (0 when
    /// omitted).
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Inline `.fv` source (registers the kernel under its content
    /// hash as a side effect).
    pub source: Option<String>,
    /// Content hash of a previously submitted kernel, as printed in a
    /// prior response's `hash` field.
    pub hash: Option<u64>,
    /// Speculation strategy (`ff`/`auto`, `rtm`, `rtm:TILE`).
    pub spec: SpecRequest,
    /// Whether the client actually sent a `spec` field. An explicit
    /// spec — even `"auto"` — bypasses the daemon's autotuner; an
    /// omitted one lets the per-kernel profile pick the speculation
    /// strategy.
    pub spec_explicit: bool,
    /// Execution engine: `compiled` (bytecode) or `native` (JIT, where
    /// the host has one). `None` (the wire value `auto`, and the
    /// default) runs a variant on the bytecode until it has passed
    /// verification and on native code after. The tree walker is a
    /// local test oracle; the daemon refuses `tree`.
    pub engine: Option<Engine>,
    /// Vector length the kernel executes at. `None` (the default)
    /// means the daemon's ambient width
    /// ([`flexvec_isa::DEFAULT_VLEN`]); an explicit value must be one
    /// of [`flexvec_isa::SUPPORTED_VLENS`]. The compile cache is
    /// width-independent, so any `vl` hits the same cached entry.
    pub vl: Option<usize>,
    /// How many times `run`/`bench` invoke the kernel (min 1).
    pub invocations: u64,
    /// Per-request deadline in milliseconds, measured from admission.
    pub deadline_ms: Option<u64>,
    /// Set by a cluster peer relaying this request to the ring owner of
    /// its kernel hash. A forwarded request is always served locally —
    /// never forwarded again — so a stale ring cannot create loops.
    pub forwarded: bool,
}

/// Parses `spec` wire values — same vocabulary as `flexvecc --spec`.
///
/// # Errors
///
/// Describes the accepted values on anything else.
pub fn parse_spec(value: &str) -> Result<SpecRequest, String> {
    match value {
        "ff" | "auto" => Ok(SpecRequest::Auto),
        "rtm" => Ok(SpecRequest::Rtm { tile: 256 }),
        other => {
            if let Some(tile) = other.strip_prefix("rtm:") {
                let tile: u32 = tile
                    .parse()
                    .map_err(|_| format!("invalid RTM tile `{tile}` in spec"))?;
                if tile == 0 {
                    return Err("RTM tile must be positive".to_owned());
                }
                Ok(SpecRequest::Rtm { tile })
            } else {
                Err(format!(
                    "invalid spec `{other}` (expected `ff`, `rtm`, or `rtm:TILE`)"
                ))
            }
        }
    }
}

/// Parses `engine` wire values: `compiled`, `native`, or `auto`
/// (`None`) for the daemon's verify-then-native rule.
///
/// # Errors
///
/// Describes the accepted values on anything else, including `tree`,
/// which `flexvecc` runs locally but the daemon does not.
pub fn parse_engine(value: &str) -> Result<Option<Engine>, String> {
    match value {
        "auto" => Ok(None),
        "compiled" => Ok(Some(Engine::Compiled)),
        "native" => Ok(Some(Engine::Native)),
        "tree" | "tree-walking" => Err(format!(
            "engine `{value}` is not served: the tree walker runs only locally \
             (expected `auto`, `compiled`, or `native`)"
        )),
        other => Err(format!(
            "invalid engine `{other}` (expected `auto`, `compiled`, or `native`)"
        )),
    }
}

/// Renders a content hash the way responses print it (16 hex digits).
pub fn hash_hex(hash: u64) -> String {
    format!("{hash:016x}")
}

fn parse_hash(value: &str) -> Result<u64, String> {
    if value.len() > 16 || value.is_empty() {
        return Err(format!("invalid hash `{value}` (expected 1-16 hex digits)"));
    }
    u64::from_str_radix(value, 16).map_err(|_| format!("invalid hash `{value}` (expected hex)"))
}

impl Request {
    /// Parses and validates one request line.
    ///
    /// # Errors
    ///
    /// The error carries the request id when one was recoverable from
    /// the line (so the response can still be correlated) and a
    /// [`ProtoError`] describing the rejection. Never panics.
    pub fn parse(line: &str) -> Result<Request, (u64, ProtoError)> {
        let value = json::parse(line)
            .map_err(|e| (0, ProtoError::new(ErrorKind::ParseError, e.to_string())))?;
        Self::from_json(&value)
    }

    /// Validates an already-parsed JSON value as a request. Split from
    /// [`Request::parse`] so the dispatcher can parse each line once,
    /// intercept replication ops (`gossip`/`pull`, whose manifest
    /// payloads don't fit this struct) on the raw JSON, and only then
    /// apply request validation.
    ///
    /// # Errors
    ///
    /// Same contract as [`Request::parse`].
    pub fn from_json(value: &Json) -> Result<Request, (u64, ProtoError)> {
        let id = value.get("id").and_then(Json::as_u64).unwrap_or(0);
        let bad = |message: String| (id, ProtoError::new(ErrorKind::BadRequest, message));

        if !matches!(value, Json::Obj(_)) {
            return Err(bad("request must be a JSON object".to_owned()));
        }
        let op = match value.get("op").and_then(Json::as_str) {
            Some("compile") => Op::Compile,
            Some("run") => Op::Run,
            Some("bench") => Op::Bench,
            Some("stats") => Op::Stats,
            Some(other) => {
                return Err(bad(format!(
                    "unknown op `{other}` (expected compile/run/bench/stats)"
                )))
            }
            None => return Err(bad("missing string field `op`".to_owned())),
        };
        let source = match value.get("source") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(bad("`source` must be a string".to_owned())),
        };
        let hash = match value.get("hash") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(parse_hash(s).map_err(&bad)?),
            Some(_) => return Err(bad("`hash` must be a hex string".to_owned())),
        };
        if op != Op::Stats && source.is_none() && hash.is_none() {
            return Err(bad(format!("op `{}` needs `source` or `hash`", op.name())));
        }
        if source.is_some() && hash.is_some() {
            return Err(bad("give `source` or `hash`, not both".to_owned()));
        }
        let (spec, spec_explicit) = match value.get("spec") {
            None | Some(Json::Null) => (SpecRequest::Auto, false),
            Some(Json::Str(s)) => (parse_spec(s).map_err(&bad)?, true),
            Some(_) => return Err(bad("`spec` must be a string".to_owned())),
        };
        let engine = match value.get("engine") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => parse_engine(s).map_err(&bad)?,
            Some(_) => return Err(bad("`engine` must be a string".to_owned())),
        };
        let vl = match value.get("vl") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let n = v
                    .as_u64()
                    .map(|n| n as usize)
                    .filter(|n| flexvec_isa::is_supported_vlen(*n))
                    .ok_or_else(|| {
                        bad(format!(
                            "`vl` must be one of {:?}",
                            flexvec_isa::SUPPORTED_VLENS
                        ))
                    })?;
                Some(n)
            }
        };
        let invocations = match value.get("invocations") {
            None | Some(Json::Null) => 1,
            Some(v) => v
                .as_u64()
                .filter(|n| *n >= 1)
                .ok_or_else(|| bad("`invocations` must be a positive integer".to_owned()))?,
        };
        let deadline_ms = match value.get("deadline_ms") {
            None | Some(Json::Null) => None,
            Some(v) => Some(
                v.as_u64()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| bad("`deadline_ms` must be a positive integer".to_owned()))?,
            ),
        };
        let forwarded = match value.get("forwarded") {
            None | Some(Json::Null) => false,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| bad("`forwarded` must be a boolean".to_owned()))?,
        };
        Ok(Request {
            id,
            op,
            source,
            hash,
            spec,
            spec_explicit,
            engine,
            vl,
            invocations,
            deadline_ms,
            forwarded,
        })
    }

    /// Serializes the request back to its wire form — the cluster
    /// forwarding path relays requests to the ring owner with this
    /// (plus `forwarded: true`). `Request::parse(r.to_json(...)
    /// .to_string())` reproduces `r` field for field.
    pub fn to_json(&self, forwarded: bool) -> Json {
        let mut pairs = vec![
            ("op", Json::from(self.op.name())),
            ("id", Json::from(self.id)),
        ];
        if let Some(source) = &self.source {
            pairs.push(("source", Json::from(source.as_str())));
        }
        if let Some(hash) = self.hash {
            pairs.push(("hash", Json::from(hash_hex(hash))));
        }
        // `spec` goes on the wire only when the client sent one: a
        // forwarded request must stay autotunable on the peer, and an
        // emitted `spec` field would read back as explicit.
        if self.spec_explicit {
            let spec = match self.spec {
                SpecRequest::Auto => "ff".to_owned(),
                SpecRequest::Rtm { tile } => format!("rtm:{tile}"),
            };
            pairs.push(("spec", Json::from(spec)));
        }
        if let Some(engine) = self.engine {
            let engine = if engine == Engine::Native {
                "native"
            } else {
                "compiled"
            };
            pairs.push(("engine", Json::from(engine)));
        }
        if let Some(vl) = self.vl {
            pairs.push(("vl", Json::from(vl as u64)));
        }
        pairs.push(("invocations", Json::from(self.invocations)));
        if let Some(ms) = self.deadline_ms {
            pairs.push(("deadline_ms", Json::from(ms)));
        }
        if forwarded {
            pairs.push(("forwarded", Json::from(true)));
        }
        Json::obj(pairs)
    }
}

/// Builds a success response envelope: `{"id":...,"ok":true,...}` plus
/// the op-specific `fields`.
pub fn ok_response(id: u64, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![("id", Json::from(id)), ("ok", Json::from(true))];
    pairs.extend(fields);
    Json::obj(pairs)
}

/// Builds a failure response envelope:
/// `{"id":...,"ok":false,"error":{"kind":...,"message":...}}`.
pub fn err_response(id: u64, error: &ProtoError) -> Json {
    Json::obj([
        ("id", Json::from(id)),
        ("ok", Json::from(false)),
        (
            "error",
            Json::obj([
                ("kind", Json::from(error.kind.name())),
                ("message", Json::from(error.message.as_str())),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_request() {
        let r = Request::parse(
            r#"{"op":"bench","id":9,"hash":"00000000000000ff","spec":"rtm:64","engine":"native","invocations":32,"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.id, 9);
        assert_eq!(r.op, Op::Bench);
        assert_eq!(r.hash, Some(0xff));
        assert_eq!(r.spec, SpecRequest::Rtm { tile: 64 });
        assert!(r.spec_explicit);
        assert_eq!(r.engine, Some(Engine::Native));
        assert_eq!(r.invocations, 32);
        assert_eq!(r.deadline_ms, Some(250));
    }

    #[test]
    fn defaults_are_applied() {
        let r = Request::parse(r#"{"op":"run","source":"kernel k;"}"#).unwrap();
        assert_eq!(r.id, 0);
        assert_eq!(r.spec, SpecRequest::Auto);
        assert!(!r.spec_explicit, "omitted spec means the autotuner");
        assert_eq!(r.engine, None, "omitted engine means verify, then native");
        assert_eq!(r.invocations, 1);
        assert_eq!(r.deadline_ms, None);
    }

    #[test]
    fn engine_vocabulary_is_the_served_executors() {
        assert_eq!(parse_engine("auto").unwrap(), None);
        assert_eq!(parse_engine("compiled").unwrap(), Some(Engine::Compiled));
        assert_eq!(parse_engine("native").unwrap(), Some(Engine::Native));
        assert!(parse_engine("quantum").is_err());
        for tree in ["tree", "tree-walking"] {
            let err = parse_engine(tree).unwrap_err();
            assert!(err.contains("only locally"), "{err}");
        }
    }

    #[test]
    fn stats_needs_no_kernel() {
        assert_eq!(Request::parse(r#"{"op":"stats"}"#).unwrap().op, Op::Stats);
    }

    #[test]
    fn malformed_lines_get_structured_errors() {
        let cases: &[(&str, ErrorKind)] = &[
            ("not json at all", ErrorKind::ParseError),
            ("{\"op\":\"run\"", ErrorKind::ParseError),
            ("[1,2,3]", ErrorKind::BadRequest),
            (r#"{"op":"launch_missiles"}"#, ErrorKind::BadRequest),
            (r#"{"id":4,"source":"k"}"#, ErrorKind::BadRequest),
            (r#"{"op":"run"}"#, ErrorKind::BadRequest),
            (
                r#"{"op":"run","source":"k","hash":"ff"}"#,
                ErrorKind::BadRequest,
            ),
            (r#"{"op":"run","hash":"xyz"}"#, ErrorKind::BadRequest),
            (
                r#"{"op":"run","hash":"11112222333344445"}"#,
                ErrorKind::BadRequest,
            ),
            (
                r#"{"op":"run","source":"k","spec":"warp"}"#,
                ErrorKind::BadRequest,
            ),
            (
                r#"{"op":"run","source":"k","engine":"quantum"}"#,
                ErrorKind::BadRequest,
            ),
            (
                r#"{"op":"run","source":"k","engine":"tree"}"#,
                ErrorKind::BadRequest,
            ),
            (
                r#"{"op":"run","source":"k","invocations":0}"#,
                ErrorKind::BadRequest,
            ),
            (
                r#"{"op":"run","source":"k","deadline_ms":-5}"#,
                ErrorKind::BadRequest,
            ),
            (r#"{"op":"run","source":42}"#, ErrorKind::BadRequest),
            (
                r#"{"op":"run","source":"k","vl":12}"#,
                ErrorKind::BadRequest,
            ),
            (r#"{"op":"run","source":"k","vl":0}"#, ErrorKind::BadRequest),
            (
                r#"{"op":"run","source":"k","vl":"wide"}"#,
                ErrorKind::BadRequest,
            ),
        ];
        for (line, kind) in cases {
            let (_, err) = Request::parse(line).expect_err(line);
            assert_eq!(err.kind, *kind, "{line}");
        }
    }

    #[test]
    fn id_is_recovered_from_bad_requests() {
        let (id, err) = Request::parse(r#"{"op":"nope","id":77}"#).unwrap_err();
        assert_eq!(id, 77);
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn response_envelopes_round_trip() {
        let ok = ok_response(3, [("verdict", Json::from("flexvec"))]);
        let text = ok.to_string();
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(back.get("verdict").and_then(Json::as_str), Some("flexvec"));

        let err = err_response(4, &ProtoError::new(ErrorKind::Overloaded, "queue full"));
        let back = crate::json::parse(&err.to_string()).unwrap();
        assert_eq!(back.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            back.get("error")
                .and_then(|e| e.get("kind"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
    }

    #[test]
    fn forwarded_flag_parses_and_defaults_off() {
        let r = Request::parse(r#"{"op":"run","source":"k","forwarded":true}"#).unwrap();
        assert!(r.forwarded);
        let r = Request::parse(r#"{"op":"run","source":"k"}"#).unwrap();
        assert!(!r.forwarded);
        let (_, err) = Request::parse(r#"{"op":"run","source":"k","forwarded":7}"#).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
    }

    #[test]
    fn to_json_round_trips_through_parse() {
        let line = r#"{"op":"bench","id":9,"hash":"00000000000000ff","spec":"rtm:64","engine":"native","invocations":32,"deadline_ms":250}"#;
        let r = Request::parse(line).unwrap();
        let relayed = Request::parse(&r.to_json(true).to_string()).unwrap();
        assert_eq!(relayed.id, r.id);
        assert_eq!(relayed.op, r.op);
        assert_eq!(relayed.hash, r.hash);
        assert_eq!(relayed.spec, r.spec);
        assert_eq!(relayed.engine, r.engine);
        assert_eq!(relayed.invocations, r.invocations);
        assert_eq!(relayed.deadline_ms, r.deadline_ms);
        assert!(relayed.forwarded, "relay sets the loop-stopper");

        let r = Request::parse(r#"{"op":"run","source":"kernel k;"}"#).unwrap();
        let relayed = Request::parse(&r.to_json(false).to_string()).unwrap();
        assert_eq!(relayed.source.as_deref(), Some("kernel k;"));
        assert!(!relayed.forwarded);
        assert!(
            !relayed.spec_explicit,
            "an implicit spec stays implicit across a relay"
        );

        let r = Request::parse(r#"{"op":"run","source":"k","spec":"auto"}"#).unwrap();
        assert!(r.spec_explicit, "even `auto` counts when actually sent");
        let relayed = Request::parse(&r.to_json(true).to_string()).unwrap();
        assert!(relayed.spec_explicit);
        assert_eq!(relayed.spec, SpecRequest::Auto);
    }

    #[test]
    fn vl_parses_validates_and_relays() {
        let r = Request::parse(r#"{"op":"run","source":"k"}"#).unwrap();
        assert_eq!(r.vl, None, "omitted vl means the daemon default");
        for vl in flexvec_isa::SUPPORTED_VLENS {
            let r = Request::parse(&format!(r#"{{"op":"run","source":"k","vl":{vl}}}"#)).unwrap();
            assert_eq!(r.vl, Some(vl));
            let relayed = Request::parse(&r.to_json(true).to_string()).unwrap();
            assert_eq!(relayed.vl, Some(vl), "vl survives a cluster relay");
        }
    }

    #[test]
    fn hash_hex_round_trips() {
        let r = Request::parse(&format!(
            r#"{{"op":"run","hash":"{}"}}"#,
            hash_hex(0xdead_beef_cafe_f00d)
        ))
        .unwrap();
        assert_eq!(r.hash, Some(0xdead_beef_cafe_f00d));
    }
}
