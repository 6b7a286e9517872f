// The error wall (clippy.toml) exempts test builds: tests assert on values
// and unwrap() freely.
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_macros))]
//! `tcsl-error` — the one typed error taxonomy of the TimeCSL workspace.
//!
//! Every layer between disk and answer (data loaders, bank/model parsing,
//! the transform pipeline, the analyzers, the exploration session, the
//! CLI) returns a [`TcslError`] instead of aborting the process. The
//! taxonomy is deliberately small and *request-shaped*: a server embedding
//! this stack maps each class to a response status, the CLI maps each to a
//! distinct exit code ([`TcslError::exit_code`]), and the observability
//! layer counts them per class ([`ErrorClass::name`] is the stable
//! `error.<class>` counter suffix).
//!
//! **Panic policy** (see DESIGN.md "Error taxonomy & panic policy"): a
//! panic means a *bug* — an internal invariant that user input cannot
//! reach once the boundary validation in this taxonomy has passed. User
//! data, model files, request payloads and configuration always surface as
//! `Err(TcslError)`.
//!
//! The crate is std-only and dependency-free, so every workspace crate can
//! depend on it without cycles.
//!
//! # Context chaining
//!
//! [`TcslError::context`] (and the [`ResultExt`] helpers) wrap an error in
//! an operation description without losing its class:
//!
//! ```
//! use tcsl_error::{ErrorClass, ResultExt, TcslError};
//!
//! fn parse() -> Result<(), TcslError> {
//!     Err(TcslError::model_format("tcsl-model header", "empty file"))
//! }
//! let err = parse().context("loading model.tcsl").unwrap_err();
//! assert_eq!(err.class(), ErrorClass::ModelFormat);
//! assert!(err.to_string().starts_with("loading model.tcsl: "));
//! ```

use std::fmt;
use std::path::{Path, PathBuf};

/// Convenience alias used across the workspace's request path.
pub type TcslResult<T> = Result<T, TcslError>;

/// The class of a [`TcslError`] — stable across context wrapping, used for
/// exit codes, per-class counters, and variant-pinning tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ErrorClass {
    /// Invalid configuration, arguments, or API usage.
    Config,
    /// A filesystem operation failed.
    Io,
    /// Malformed textual input (CSV, `.ts`, numeric fields of a model).
    Parse,
    /// A model/bank file is structurally wrong (magic, sections, counts).
    ModelFormat,
    /// Input dimensions disagree with what the model/analyzer expects.
    ShapeMismatch,
    /// An input that must be non-empty is empty.
    EmptyInput,
    /// An input carries NaN/inf where finite values are required.
    NonFiniteInput,
    /// An internal invariant failed — a bug, reported without aborting.
    Internal,
}

impl ErrorClass {
    /// Every class, in exit-code order.
    pub const ALL: [ErrorClass; 8] = [
        ErrorClass::Config,
        ErrorClass::Io,
        ErrorClass::Parse,
        ErrorClass::ModelFormat,
        ErrorClass::ShapeMismatch,
        ErrorClass::EmptyInput,
        ErrorClass::NonFiniteInput,
        ErrorClass::Internal,
    ];

    /// Stable lower-snake name: the `error.<class>` counter suffix and the
    /// `class` field of structured `error` trace events.
    pub fn name(self) -> &'static str {
        match self {
            ErrorClass::Config => "config",
            ErrorClass::Io => "io",
            ErrorClass::Parse => "parse",
            ErrorClass::ModelFormat => "model_format",
            ErrorClass::ShapeMismatch => "shape_mismatch",
            ErrorClass::EmptyInput => "empty_input",
            ErrorClass::NonFiniteInput => "non_finite_input",
            ErrorClass::Internal => "internal",
        }
    }

    /// The CLI exit code of this class (documented in the README):
    /// `2..=9`, distinct per class, `2` doubling as the generic usage-error
    /// code.
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorClass::Config => 2,
            ErrorClass::Io => 3,
            ErrorClass::Parse => 4,
            ErrorClass::ModelFormat => 5,
            ErrorClass::ShapeMismatch => 6,
            ErrorClass::EmptyInput => 7,
            ErrorClass::NonFiniteInput => 8,
            ErrorClass::Internal => 9,
        }
    }
}

/// The workspace-wide typed error.
///
/// Variants carry enough structure for a caller to react (retry, report,
/// map to a status) without string matching; [`TcslError::class`] is the
/// stable discriminant that survives [`TcslError::context`] wrapping.
#[derive(Debug)]
pub enum TcslError {
    /// Invalid configuration, arguments, or API usage.
    Config(String),
    /// A filesystem operation failed on `path`.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Malformed textual input.
    Parse {
        /// What was being parsed (a dataset name, file stem, or format).
        source: String,
        /// 1-based line of the offending input; `0` when unknown.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A model/bank file is structurally wrong.
    ModelFormat {
        /// What the format required at this point.
        expected: String,
        /// What the file actually contained.
        found: String,
    },
    /// Input dimensions disagree with what the consumer expects.
    ShapeMismatch {
        /// Which quantity mismatched (e.g. "series variables").
        what: String,
        /// The expected extent.
        expected: String,
        /// The extent actually supplied.
        found: String,
    },
    /// An input that must be non-empty is empty.
    EmptyInput(String),
    /// An input carries NaN/inf where finite values are required.
    NonFiniteInput(String),
    /// An internal invariant failed — a bug surfaced as a value.
    Internal(String),
    /// A wrapped error with an operation description prepended. The class
    /// (and therefore exit code / counter) is the wrapped error's.
    Context {
        /// The operation that was running.
        context: String,
        /// The underlying error.
        source: Box<TcslError>,
    },
}

impl TcslError {
    /// Builds a [`TcslError::Config`].
    pub fn config(message: impl Into<String>) -> TcslError {
        TcslError::Config(message.into())
    }

    /// Builds a [`TcslError::Io`] from a path and the OS error.
    pub fn io(path: impl AsRef<Path>, source: std::io::Error) -> TcslError {
        TcslError::Io {
            path: path.as_ref().to_path_buf(),
            source,
        }
    }

    /// Builds a [`TcslError::Parse`]; `line` is 1-based (`0` = unknown).
    pub fn parse(source: impl Into<String>, line: usize, message: impl Into<String>) -> TcslError {
        TcslError::Parse {
            source: source.into(),
            line,
            message: message.into(),
        }
    }

    /// Builds a [`TcslError::ModelFormat`].
    pub fn model_format(expected: impl Into<String>, found: impl Into<String>) -> TcslError {
        TcslError::ModelFormat {
            expected: expected.into(),
            found: found.into(),
        }
    }

    /// Builds a [`TcslError::ShapeMismatch`].
    pub fn shape_mismatch(
        what: impl Into<String>,
        expected: impl fmt::Display,
        found: impl fmt::Display,
    ) -> TcslError {
        TcslError::ShapeMismatch {
            what: what.into(),
            expected: expected.to_string(),
            found: found.to_string(),
        }
    }

    /// Builds a [`TcslError::EmptyInput`].
    pub fn empty(what: impl Into<String>) -> TcslError {
        TcslError::EmptyInput(what.into())
    }

    /// Builds a [`TcslError::NonFiniteInput`].
    pub fn non_finite(what: impl Into<String>) -> TcslError {
        TcslError::NonFiniteInput(what.into())
    }

    /// Builds a [`TcslError::Internal`].
    pub fn internal(message: impl Into<String>) -> TcslError {
        TcslError::Internal(message.into())
    }

    /// Wraps `self` with an operation description. The class is preserved.
    pub fn context(self, context: impl Into<String>) -> TcslError {
        TcslError::Context {
            context: context.into(),
            source: Box::new(self),
        }
    }

    /// The error's class, looking through any [`TcslError::Context`]
    /// wrapping.
    pub fn class(&self) -> ErrorClass {
        match self {
            TcslError::Config(_) => ErrorClass::Config,
            TcslError::Io { .. } => ErrorClass::Io,
            TcslError::Parse { .. } => ErrorClass::Parse,
            TcslError::ModelFormat { .. } => ErrorClass::ModelFormat,
            TcslError::ShapeMismatch { .. } => ErrorClass::ShapeMismatch,
            TcslError::EmptyInput(_) => ErrorClass::EmptyInput,
            TcslError::NonFiniteInput(_) => ErrorClass::NonFiniteInput,
            TcslError::Internal(_) => ErrorClass::Internal,
            TcslError::Context { source, .. } => source.class(),
        }
    }

    /// The process exit code of this error's class.
    pub fn exit_code(&self) -> u8 {
        self.class().exit_code()
    }
}

impl fmt::Display for TcslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TcslError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            TcslError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            TcslError::Parse {
                source,
                line,
                message,
            } => {
                if *line > 0 {
                    write!(f, "{source}: line {line}: {message}")
                } else {
                    write!(f, "{source}: {message}")
                }
            }
            TcslError::ModelFormat { expected, found } => {
                write!(
                    f,
                    "malformed model file: expected {expected}, found {found}"
                )
            }
            TcslError::ShapeMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what} mismatch: expected {expected}, got {found}"),
            TcslError::EmptyInput(what) => write!(f, "empty input: {what}"),
            TcslError::NonFiniteInput(what) => {
                write!(
                    f,
                    "non-finite input: {what} contains NaN or infinite values"
                )
            }
            TcslError::Internal(msg) => write!(f, "internal error (please report): {msg}"),
            TcslError::Context { context, source } => write!(f, "{context}: {source}"),
        }
    }
}

impl std::error::Error for TcslError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TcslError::Io { source, .. } => Some(source),
            TcslError::Context { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

/// Context-chaining helpers for `Result<_, TcslError>` (and anything whose
/// error converts into one).
pub trait ResultExt<T> {
    /// Wraps the error (if any) with an operation description.
    fn context(self, context: impl Into<String>) -> TcslResult<T>;

    /// Like [`ResultExt::context`], but builds the description lazily.
    fn with_context<F: FnOnce() -> String>(self, f: F) -> TcslResult<T>;
}

impl<T, E: Into<TcslError>> ResultExt<T> for Result<T, E> {
    fn context(self, context: impl Into<String>) -> TcslResult<T> {
        self.map_err(|e| e.into().context(context))
    }

    fn with_context<F: FnOnce() -> String>(self, f: F) -> TcslResult<T> {
        self.map_err(|e| e.into().context(f()))
    }
}

/// Reads a file to a string, mapping the failure to [`TcslError::Io`] with
/// the path attached — the common first step of every loader.
pub fn read_to_string(path: impl AsRef<Path>) -> TcslResult<String> {
    std::fs::read_to_string(&path).map_err(|e| TcslError::io(&path, e))
}

/// Writes bytes to a file, mapping the failure to [`TcslError::Io`] with
/// the path attached.
pub fn write_file(path: impl AsRef<Path>, contents: impl AsRef<[u8]>) -> TcslResult<()> {
    std::fs::write(&path, contents).map_err(|e| TcslError::io(&path, e))
}

/// A uniquely named scratch directory under the system temp dir, removed
/// with its contents on drop. The name joins a caller tag (the test's
/// name), the process id and a process-wide counter, so tests running in
/// parallel threads or concurrent processes never share a path.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `$TMP/tcsl-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> TcslResult<TempDir> {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("tcsl-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| TcslError::io(&path, e))?;
        Ok(TempDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A path inside the directory.
    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn temp_dirs_are_unique_and_removed_on_drop() {
        let a = TempDir::new("unique").unwrap();
        let b = TempDir::new("unique").unwrap();
        assert_ne!(a.path(), b.path());
        std::fs::write(a.join("f.txt"), "x").unwrap();
        let kept = a.path().to_path_buf();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().is_dir());
    }

    #[test]
    fn classes_have_distinct_exit_codes_and_names() {
        let mut codes: Vec<u8> = ErrorClass::ALL.iter().map(|c| c.exit_code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), ErrorClass::ALL.len(), "exit codes collide");
        assert!(codes.iter().all(|&c| c >= 2), "0/1 are reserved");
        let mut names: Vec<&str> = ErrorClass::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ErrorClass::ALL.len(), "counter names collide");
    }

    #[test]
    fn context_preserves_class_and_exit_code() {
        let err = TcslError::parse("train.csv", 12, "bad value")
            .context("loading dataset")
            .context("timecsl transform");
        assert_eq!(err.class(), ErrorClass::Parse);
        assert_eq!(err.exit_code(), ErrorClass::Parse.exit_code());
        assert_eq!(
            err.to_string(),
            "timecsl transform: loading dataset: train.csv: line 12: bad value"
        );
    }

    #[test]
    fn display_covers_every_variant() {
        let cases: Vec<(TcslError, &str)> = vec![
            (
                TcslError::config("epochs must be numeric"),
                "invalid configuration",
            ),
            (
                TcslError::io(
                    "/no/such/file",
                    std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
                ),
                "/no/such/file",
            ),
            (
                TcslError::parse("x.csv", 0, "bad header"),
                "x.csv: bad header",
            ),
            (
                TcslError::model_format("tcsl-bank v1 header", "bogus"),
                "malformed model file",
            ),
            (
                TcslError::shape_mismatch("series variables", 2, 1),
                "expected 2, got 1",
            ),
            (TcslError::empty("dataset"), "empty input: dataset"),
            (TcslError::non_finite("series 3"), "NaN or infinite"),
            (TcslError::internal("oops"), "please report"),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "{err} should contain {needle:?}"
            );
        }
    }

    #[test]
    fn error_source_chains() {
        use std::error::Error as _;
        let err = TcslError::io(
            "f",
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone"),
        )
        .context("reading");
        // Context → Io → io::Error.
        let inner = err.source().expect("context has a source");
        assert!(inner.source().is_some(), "Io keeps the OS error as source");
    }

    #[test]
    fn result_ext_lazy_context_only_runs_on_err() {
        let ok: TcslResult<u32> = Ok(7);
        let got = ok.with_context(|| unreachable!("must not run on Ok"));
        assert_eq!(got.unwrap(), 7);
        let err: TcslResult<u32> = Err(TcslError::empty("corpus"));
        let wrapped = err.with_context(|| "scoring".to_string()).unwrap_err();
        assert_eq!(wrapped.class(), ErrorClass::EmptyInput);
    }

    #[test]
    fn file_helpers_attach_the_path() {
        let err = read_to_string("/definitely/not/here.tcsl").unwrap_err();
        assert_eq!(err.class(), ErrorClass::Io);
        assert!(err.to_string().contains("/definitely/not/here.tcsl"));
    }
}
