//! The service wire format: `emx.serve-request/1` in,
//! `emx.serve-response/1` out.
//!
//! Requests and responses are plain JSON over the existing deterministic
//! [`emx_obs::json`] writer, so a response computed twice from the same
//! inputs is byte-identical — the same contract every other `emx.*/1`
//! schema already carries (see `docs/SCHEMAS.md`). Parsing failures are
//! typed [`WireError`]s carrying an HTTP status and a stable machine
//! code; the server turns them into error envelopes instead of dropping
//! the connection.

use emx_obs::doc::{self, Doc, DocError};
use emx_obs::json::Value;

/// Schema tag every request body must carry.
pub const REQUEST_SCHEMA: &str = "emx.serve-request/1";
/// Schema tag on every response envelope.
pub const RESPONSE_SCHEMA: &str = "emx.serve-response/1";
/// Schema tag on `emx-load` summaries.
pub const LOAD_REPORT_SCHEMA: &str = "emx.load-report/1";

/// A typed request-level failure: HTTP status + stable code + message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// HTTP status for the response carrying this error.
    pub status: u16,
    /// Stable machine code (`serve.bad_json`, `parse.asm`, …).
    pub code: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    /// Creates a typed wire error.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        WireError {
            status,
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} [{}]", self.message, self.code)
    }
}

impl std::error::Error for WireError {}

/// One parsed service request body.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeRequest {
    /// Price one program on the macro-model (micro-batched server-side).
    Estimate {
        /// Name of a built-in Table II application (`gcd`, `ins_sort`, …).
        app: Option<String>,
        /// Inline assembly source, as an alternative to `app`.
        program: Option<String>,
        /// Optional inline TIE extension source for `program`.
        tie: Option<String>,
    },
    /// Run a design-space exploration over a named candidate space.
    Dse {
        /// Candidate-space name (`reed-solomon`, …).
        workload: String,
        /// Optional area budget in net-equivalents.
        budget: Option<f64>,
    },
    /// Fetch the (lazily computed, memoized) characterization report.
    CharacterizeReport,
}

/// Parses one request body.
///
/// # Errors
///
/// [`WireError`] with status 400 and a stable code for each failure
/// mode: invalid UTF-8/JSON, missing or unknown `schema`, missing or
/// unknown `kind`, and per-kind field validation.
pub fn parse_request(body: &[u8]) -> Result<ServeRequest, WireError> {
    let text = std::str::from_utf8(body)
        .map_err(|e| WireError::new(400, "serve.bad_utf8", format!("body is not UTF-8: {e}")))?;
    let value = doc::open(text, REQUEST_SCHEMA).map_err(|e| match e {
        DocError::Schema { found: None, .. } => {
            WireError::new(400, "serve.missing_schema", "body has no `schema` field")
        }
        DocError::Schema {
            found: Some(schema),
            ..
        } => WireError::new(
            400,
            "serve.unknown_schema",
            format!("unsupported schema `{schema}` (this server speaks {REQUEST_SCHEMA})"),
        ),
        e => WireError::new(400, "serve.bad_json", e.to_string()),
    })?;
    let doc = Doc::root(&value);
    let bad = |code| move |e: DocError| WireError::new(400, code, e.to_string());
    match doc
        .field("kind")
        .and_then(|kind| kind.str())
        .map_err(bad("serve.missing_kind"))?
    {
        "estimate" => estimate(&doc).map_err(bad("serve.bad_estimate")),
        "dse" => dse(&doc).map_err(bad("serve.bad_dse")),
        "characterize-report" => Ok(ServeRequest::CharacterizeReport),
        other => Err(WireError::new(
            400,
            "serve.unknown_kind",
            format!("unknown request kind `{other}`"),
        )),
    }
}

fn dse(doc: &Doc) -> Result<ServeRequest, DocError> {
    Ok(ServeRequest::Dse {
        workload: doc.field("workload")?.str()?.to_owned(),
        budget: doc.opt("budget")?.map(|b| b.f64()).transpose()?,
    })
}

fn estimate(doc: &Doc) -> Result<ServeRequest, DocError> {
    let text = |key| -> Result<Option<String>, DocError> {
        doc.opt(key)?
            .map(|v| v.str().map(str::to_owned))
            .transpose()
    };
    let (app, program) = (text("app")?, text("program")?);
    if app.is_none() == program.is_none() {
        return Err(doc.error("expected exactly one of `app` or `program`"));
    }
    Ok(ServeRequest::Estimate {
        app,
        program,
        tie: text("tie")?,
    })
}

/// Builds an estimate request body (the client side of
/// [`parse_request`]); used by `emx-load` and the tests.
pub fn estimate_request(app: &str) -> Value {
    let mut doc = Value::object();
    doc.set("schema", REQUEST_SCHEMA);
    doc.set("kind", "estimate");
    doc.set("app", app);
    doc
}

/// The success envelope: `{"schema", "status": "ok", "kind", "result"}`.
pub fn ok_envelope(kind: &str, result: Value) -> Value {
    let mut doc = Value::object();
    doc.set("schema", RESPONSE_SCHEMA);
    doc.set("status", "ok");
    doc.set("kind", kind);
    doc.set("result", result);
    doc
}

/// The error envelope:
/// `{"schema", "status": "error", "error": {"code", "message"}}`.
pub fn error_envelope(code: &str, message: &str) -> Value {
    let mut doc = Value::object();
    doc.set("schema", RESPONSE_SCHEMA);
    doc.set("status", "error");
    let mut error = Value::object();
    error.set("code", code);
    error.set("message", message);
    doc.set("error", error);
    doc
}

/// The estimate result document. Kept to exactly the fields the
/// estimation cache persists (`energy_pj`, `cycles`), so a cache-warm
/// response is byte-identical to a cache-cold one by construction.
pub fn estimate_result(workload: &str, energy_pj: f64, cycles: u64) -> Value {
    let mut doc = Value::object();
    doc.set("workload", workload);
    doc.set("energy_pj", energy_pj);
    doc.set("cycles", cycles);
    doc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_an_app_estimate() {
        let body = estimate_request("gcd").to_string();
        let req = parse_request(body.as_bytes()).unwrap();
        assert_eq!(
            req,
            ServeRequest::Estimate {
                app: Some("gcd".to_owned()),
                program: None,
                tie: None,
            }
        );
    }

    #[test]
    fn parses_a_dse_request() {
        let body = r#"{"schema":"emx.serve-request/1","kind":"dse","workload":"reed-solomon","budget":500.0}"#;
        let req = parse_request(body.as_bytes()).unwrap();
        assert_eq!(
            req,
            ServeRequest::Dse {
                workload: "reed-solomon".to_owned(),
                budget: Some(500.0),
            }
        );
    }

    #[test]
    fn typed_errors_for_bad_bodies() {
        let cases: &[(&[u8], &str)] = &[
            (b"\xff\xfe", "serve.bad_utf8"),
            (b"{\"schema\":", "serve.bad_json"),
            (b"{}", "serve.missing_schema"),
            (
                br#"{"schema":"emx.serve-request/9","kind":"estimate"}"#,
                "serve.unknown_schema",
            ),
            (br#"{"schema":"emx.serve-request/1"}"#, "serve.missing_kind"),
            (
                br#"{"schema":"emx.serve-request/1","kind":"transmogrify"}"#,
                "serve.unknown_kind",
            ),
            (
                br#"{"schema":"emx.serve-request/1","kind":"estimate"}"#,
                "serve.bad_estimate",
            ),
            (
                br#"{"schema":"emx.serve-request/1","kind":"estimate","app":"gcd","program":"halt"}"#,
                "serve.bad_estimate",
            ),
            (
                br#"{"schema":"emx.serve-request/1","kind":"dse"}"#,
                "serve.bad_dse",
            ),
        ];
        for (body, code) in cases {
            let err = parse_request(body).unwrap_err();
            assert_eq!(err.code, *code, "{}", String::from_utf8_lossy(body));
            assert_eq!(err.status, 400);
        }
    }

    #[test]
    fn envelopes_are_deterministic() {
        let a = ok_envelope("estimate", estimate_result("gcd", 1234.5, 42)).to_string();
        let b = ok_envelope("estimate", estimate_result("gcd", 1234.5, 42)).to_string();
        assert_eq!(a, b);
        assert!(
            a.contains(r#""schema": "emx.serve-response/1""#)
                || a.contains(r#""schema":"emx.serve-response/1""#)
        );
    }
}
