//! Reading `emx.*` documents: one envelope rule and one typed field
//! reader for every artifact parser in the workspace.
//!
//! [`open`] parses a document's text and checks its `schema` tag. A
//! [`Doc`] then walks the parsed [`Value`]: [`Doc::field`] and
//! [`Doc::opt`] step into objects, [`Doc::items`] and [`Doc::entries`]
//! into arrays and objects, and [`Doc::u64`], [`Doc::uint`],
//! [`Doc::f64`], [`Doc::str`] and [`Doc::bool`] read leaves. Every
//! failure is a [`DocError`] that names the offending path, e.g.
//! `$.candidates[3].sites[0].rs: expected register index < 16`.
//!
//! A `Doc` carries its path as a chain of borrowed steps on the stack,
//! so reading a well-formed document allocates nothing beyond what the
//! caller keeps; the path text is built only when an error is made.
//!
//! # Example
//!
//! ```
//! use emx_obs::doc::{self, Doc};
//!
//! let text = r#"{"schema": "demo/1", "runs": [{"cycles": 12}, {"cycles": -1}]}"#;
//! let value = doc::open(text, "demo/1").unwrap();
//! let root = Doc::root(&value);
//! let mut cycles = Vec::new();
//! let err = root
//!     .field("runs")
//!     .and_then(|runs| {
//!         for run in runs.items()? {
//!             cycles.push(run.field("cycles")?.u64()?);
//!         }
//!         Ok(())
//!     })
//!     .unwrap_err();
//! assert_eq!(cycles, [12]);
//! assert_eq!(err.to_string(), "$.runs[1].cycles: expected an unsigned integer");
//! ```

use std::fmt;

use crate::json::{ParseError, Value};

/// Why a document could not be read.
#[derive(Debug, Clone, PartialEq)]
pub enum DocError {
    /// The text is not JSON.
    Syntax(ParseError),
    /// The root's `schema` tag is absent or not a string (`found` is
    /// `None`), or names another schema.
    Schema {
        /// The tag the document carries.
        found: Option<String>,
        /// The tag the reader accepts.
        expected: String,
    },
    /// The value at `path` is missing, mistyped or out of range.
    Field {
        /// Where, as `$` followed by `.key` and `[index]` steps.
        path: String,
        /// What is wrong there: `missing` or `expected …`.
        problem: String,
    },
}

impl fmt::Display for DocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocError::Syntax(e) => write!(f, "invalid JSON: {e}"),
            DocError::Schema {
                found: Some(found),
                expected,
            } => write!(f, "unsupported schema `{found}` (expected `{expected}`)"),
            DocError::Schema {
                found: None,
                expected,
            } => write!(f, "missing `schema` (expected `{expected}`)"),
            DocError::Field { path, problem } => write!(f, "{path}: {problem}"),
        }
    }
}

impl std::error::Error for DocError {}

impl From<DocError> for String {
    fn from(e: DocError) -> String {
        e.to_string()
    }
}

/// Parses `text` and checks that its root carries `"schema": schema`.
///
/// # Errors
///
/// [`DocError::Syntax`] for malformed JSON (including nesting deeper
/// than [`crate::json::MAX_DEPTH`]) and [`DocError::Schema`] for a
/// missing or foreign tag.
pub fn open(text: &str, schema: &str) -> Result<Value, DocError> {
    let value = Value::parse(text).map_err(DocError::Syntax)?;
    Doc::root(&value).schema(schema)?;
    Ok(value)
}

/// One step of the path from the root to a [`Doc`].
#[derive(Debug, Clone, Copy)]
enum Path<'p> {
    Root,
    Key(&'p Path<'p>, &'p str),
    Index(&'p Path<'p>, usize),
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Root => f.write_str("$"),
            Path::Key(parent, key) => {
                if !key.is_empty()
                    && key
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
                {
                    write!(f, "{parent}.{key}")
                } else {
                    write!(f, "{parent}[{key:?}]")
                }
            }
            Path::Index(parent, i) => write!(f, "{parent}[{i}]"),
        }
    }
}

/// A borrowed reader over one node of a parsed document, which knows
/// its own path for error messages.
///
/// `'a` is the lifetime of the document, so strings read through
/// [`Doc::str`] outlive the reader; `'p` is the lifetime of the path.
#[derive(Debug, Clone, Copy)]
pub struct Doc<'a, 'p> {
    value: &'a Value,
    at: Path<'p>,
}

impl<'a> Doc<'a, 'static> {
    /// A reader at the root (`$`) of `value`.
    pub fn root(value: &'a Value) -> Self {
        Doc {
            value,
            at: Path::Root,
        }
    }
}

impl<'a> From<&'a Value> for Doc<'a, 'static> {
    fn from(value: &'a Value) -> Self {
        Doc::root(value)
    }
}

impl<'a, 'p> Doc<'a, 'p> {
    /// An error at this node's path; `problem` reads after the colon
    /// (`expected …`).
    pub fn error(&self, problem: impl fmt::Display) -> DocError {
        DocError::Field {
            path: self.at.to_string(),
            problem: problem.to_string(),
        }
    }

    /// Checks that this node's `schema` tag is `expected`.
    ///
    /// # Errors
    ///
    /// [`DocError::Schema`] naming the tag found, if any.
    pub fn schema(&self, expected: &str) -> Result<(), DocError> {
        match self.value.get("schema").and_then(Value::as_str) {
            Some(found) if found == expected => Ok(()),
            found => Err(DocError::Schema {
                found: found.map(str::to_owned),
                expected: expected.to_owned(),
            }),
        }
    }

    fn object(&self) -> Result<&'a [(String, Value)], DocError> {
        self.value
            .as_object()
            .ok_or_else(|| self.error("expected an object"))
    }

    fn child<'s>(&'s self, value: &'a Value, key: &'s str) -> Doc<'a, 's> {
        Doc {
            value,
            at: Path::Key(&self.at, key),
        }
    }

    /// The required field `key` of this object.
    ///
    /// # Errors
    ///
    /// When this node is not an object or has no `key`.
    pub fn field<'s>(&'s self, key: &'s str) -> Result<Doc<'a, 's>, DocError> {
        match self.opt_raw(key)? {
            Some(value) => Ok(self.child(value, key)),
            None => Err(self.child(self.value, key).error("missing")),
        }
    }

    /// The optional field `key` of this object: `None` when it is
    /// absent or `null`.
    ///
    /// # Errors
    ///
    /// When this node is not an object.
    pub fn opt<'s>(&'s self, key: &'s str) -> Result<Option<Doc<'a, 's>>, DocError> {
        Ok(self
            .opt_raw(key)?
            .map(|value| self.child(value, key))
            .and_then(Doc::nullable))
    }

    fn opt_raw(&self, key: &str) -> Result<Option<&'a Value>, DocError> {
        Ok(self
            .object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v))
    }

    /// `None` if this node is `null`, else the node: for fields that
    /// must be present but may be `null`.
    pub fn nullable(self) -> Option<Self> {
        (*self.value != Value::Null).then_some(self)
    }

    /// The elements of this array, each reader at `[index]`.
    ///
    /// # Errors
    ///
    /// When this node is not an array.
    pub fn items<'s>(&'s self) -> Result<impl Iterator<Item = Doc<'a, 's>> + 's, DocError> {
        let items = self
            .value
            .as_array()
            .ok_or_else(|| self.error("expected an array"))?;
        Ok(items.iter().enumerate().map(move |(i, value)| Doc {
            value,
            at: Path::Index(&self.at, i),
        }))
    }

    /// The entries of this object in document order, as key and reader.
    ///
    /// # Errors
    ///
    /// When this node is not an object.
    pub fn entries<'s>(
        &'s self,
    ) -> Result<impl Iterator<Item = (&'a str, Doc<'a, 's>)> + 's, DocError> {
        Ok(self
            .object()?
            .iter()
            .map(move |(key, value)| (key.as_str(), self.child(value, key))))
    }

    /// This node as an unsigned integer (an integral, non-negative
    /// number).
    ///
    /// # Errors
    ///
    /// When it is anything else.
    pub fn u64(&self) -> Result<u64, DocError> {
        self.value
            .as_u64()
            .ok_or_else(|| self.error("expected an unsigned integer"))
    }

    /// This node as an unsigned integer that fits `T` (`u8`, `u32`,
    /// `usize`, …).
    ///
    /// # Errors
    ///
    /// When it is not an unsigned integer, or out of `T`'s range.
    pub fn uint<T: TryFrom<u64>>(&self) -> Result<T, DocError> {
        T::try_from(self.u64()?).map_err(|_| {
            self.error(format_args!(
                "expected an unsigned integer that fits {}",
                std::any::type_name::<T>()
            ))
        })
    }

    /// This node as a number.
    ///
    /// # Errors
    ///
    /// When it is not a number.
    pub fn f64(&self) -> Result<f64, DocError> {
        self.value
            .as_f64()
            .ok_or_else(|| self.error("expected a number"))
    }

    /// This node as a string, borrowed from the document.
    ///
    /// # Errors
    ///
    /// When it is not a string.
    pub fn str(&self) -> Result<&'a str, DocError> {
        self.value
            .as_str()
            .ok_or_else(|| self.error("expected a string"))
    }

    /// This node as a boolean.
    ///
    /// # Errors
    ///
    /// When it is not `true` or `false`.
    pub fn bool(&self) -> Result<bool, DocError> {
        self.value
            .as_bool()
            .ok_or_else(|| self.error("expected a boolean"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(text: &str) -> Value {
        Value::parse(text).expect("valid JSON")
    }

    #[test]
    fn open_checks_the_envelope() {
        assert!(open(r#"{"schema": "a/1"}"#, "a/1").is_ok());
        assert!(matches!(open("{", "a/1"), Err(DocError::Syntax(_))));
        let err = open(r#"{"schema": "a/2"}"#, "a/1").unwrap_err();
        assert_eq!(err.to_string(), "unsupported schema `a/2` (expected `a/1`)");
        for missing in ["{}", r#"{"schema": 1}"#, "[]"] {
            assert_eq!(
                open(missing, "a/1"),
                Err(DocError::Schema {
                    found: None,
                    expected: "a/1".to_owned()
                }),
                "{missing}"
            );
        }
    }

    #[test]
    fn errors_name_the_path() {
        let v = value(r#"{"a": {"b-c": [1, {"d": "x"}]}, "odd key": 1}"#);
        let root = Doc::root(&v);
        let a = root.field("a").unwrap();
        let bc = a.field("b-c").unwrap();
        let items: Vec<_> = bc.items().unwrap().collect();
        assert_eq!(
            items[1].field("d").unwrap().u64().unwrap_err().to_string(),
            "$.a.b-c[1].d: expected an unsigned integer"
        );
        assert_eq!(
            items[1].field("e").unwrap_err().to_string(),
            "$.a.b-c[1].e: missing"
        );
        assert_eq!(
            items[0].field("x").unwrap_err().to_string(),
            "$.a.b-c[0]: expected an object"
        );
        let (key, odd) = root.entries().unwrap().nth(1).unwrap();
        assert_eq!(key, "odd key");
        assert_eq!(
            odd.str().unwrap_err().to_string(),
            "$[\"odd key\"]: expected a string"
        );
    }

    #[test]
    fn leaves_are_typed_and_range_checked() {
        let v = value(r#"{"n": 300, "f": 1.5, "neg": -1, "s": "x", "t": true, "z": null}"#);
        let root = Doc::root(&v);
        let n = root.field("n").unwrap();
        assert_eq!(n.u64(), Ok(300));
        assert_eq!(n.uint::<u16>(), Ok(300));
        assert_eq!(
            n.uint::<u8>().unwrap_err().to_string(),
            "$.n: expected an unsigned integer that fits u8"
        );
        assert!(root.field("f").unwrap().u64().is_err());
        assert!(root.field("neg").unwrap().u64().is_err());
        assert_eq!(root.field("f").unwrap().f64(), Ok(1.5));
        assert_eq!(root.field("s").unwrap().str(), Ok("x"));
        assert_eq!(root.field("t").unwrap().bool(), Ok(true));
        assert!(root.field("s").unwrap().f64().is_err());
        assert!(root.field("z").unwrap().bool().is_err());
    }

    #[test]
    fn opt_and_nullable_fold_null_into_none() {
        let v = value(r#"{"z": null, "n": 1}"#);
        let root = Doc::root(&v);
        assert!(root.opt("z").unwrap().is_none());
        assert!(root.opt("absent").unwrap().is_none());
        assert_eq!(root.opt("n").unwrap().unwrap().u64(), Ok(1));
        assert!(root.field("z").unwrap().nullable().is_none());
        assert!(root.field("n").unwrap().nullable().is_some());
        let arr = value("[]");
        assert!(Doc::root(&arr).opt("z").is_err());
    }
}
