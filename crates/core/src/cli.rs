//! The command-line layer every emx binary shares: a [`main`] that maps
//! [`EmxError`] onto the exit-code contract, and a small flag reader,
//! [`Args`], whose errors all carry the tool's usage line.
//!
//! ```no_run
//! use emx_core::cli::{self, Args};
//! use emx_core::EmxError;
//!
//! const USAGE: &str = "usage: emx-demo <input> [--jobs <n>]";
//!
//! fn main() -> std::process::ExitCode {
//!     let parse = |args: &mut Args| -> Result<(String, usize), EmxError> {
//!         let (mut input, mut jobs) = (None, 0);
//!         while let Some(arg) = args.next() {
//!             match arg.as_str() {
//!                 "--jobs" => jobs = args.number("a number")?,
//!                 _ => args.positional(&mut input, arg)?,
//!             }
//!         }
//!         Ok((input.ok_or_else(|| args.usage())?, jobs))
//!     };
//!     cli::main("emx-demo", USAGE, parse, |(input, jobs)| {
//!         println!("{input} with {jobs} job(s)");
//!         Ok::<(), EmxError>(())
//!     })
//! }
//! ```

use std::fmt;
use std::process::{ExitCode, Termination};
use std::str::FromStr;

use crate::EmxError;

/// Parses the process arguments with `parse`, then runs `run` on the
/// result, and turns the outcome into the process exit code.
///
/// A parse error prints its bare message (for `--help`, the usage line)
/// and exits with its code. A run error prints `"{name}: {e}"` and exits
/// with its code: 2 = usage, 1 = bad input, 3 = internal (see
/// [`crate::ErrorKind::exit_code`]). On success `run`'s value decides:
/// `()` exits 0, an [`ExitCode`] is passed through.
pub fn main<O, T: Termination>(
    name: &str,
    usage: &'static str,
    parse: impl FnOnce(&mut Args) -> Result<O, EmxError>,
    run: impl FnOnce(&O) -> Result<T, EmxError>,
) -> ExitCode {
    let options = match parse(&mut Args::new(usage, std::env::args().skip(1))) {
        Ok(options) => options,
        Err(e) => {
            eprintln!("{}", e.message());
            return ExitCode::from(e.exit_code());
        }
    };
    match run(&options) {
        Ok(done) => done.report(),
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

/// A command line being read flag by flag.
///
/// Iterating yields each argument in turn and remembers it as the
/// current flag, so [`Args::value`] and [`Args::number`] can name it in
/// their errors. Every error is a usage error (exit code 2).
#[derive(Debug)]
pub struct Args {
    rest: std::iter::Peekable<std::vec::IntoIter<String>>,
    usage: &'static str,
    flag: String,
}

impl Args {
    /// A reader over `args` (without the program name) for a tool whose
    /// usage line is `usage`.
    pub fn new(usage: &'static str, args: impl IntoIterator<Item = String>) -> Self {
        Args {
            rest: args.into_iter().collect::<Vec<_>>().into_iter().peekable(),
            usage,
            flag: String::new(),
        }
    }

    /// The current flag's value: `"--x needs <what>"` when none follows.
    ///
    /// # Errors
    ///
    /// A usage error when the command line ends here.
    pub fn value(&mut self, what: &str) -> Result<String, EmxError> {
        match self.rest.next() {
            Some(value) => Ok(value),
            None => Err(self.error(format_args!("{} needs {what}", self.flag))),
        }
    }

    /// The current flag's value as a number (or any [`FromStr`] type):
    /// ``"bad --x value `v`"`` when it does not parse.
    ///
    /// # Errors
    ///
    /// A usage error when the value is missing or does not parse.
    pub fn number<T: FromStr>(&mut self, what: &str) -> Result<T, EmxError> {
        let value = self.value(what)?;
        value
            .parse()
            .map_err(|_| self.error(format_args!("bad {} value `{value}`", self.flag)))
    }

    /// The arguments up to the next `--flag`, taken greedily: the
    /// operands of a flag such as `--merge a.json b.json`.
    pub fn operands(&mut self) -> Vec<String> {
        let mut operands = Vec::new();
        while let Some(next) = self.rest.next_if(|next| !next.starts_with("--")) {
            operands.push(next);
        }
        operands
    }

    /// Stores `arg` in the tool's one positional `slot`.
    ///
    /// # Errors
    ///
    /// A usage error when `arg` looks like a flag (an unknown one, since
    /// the caller matched all it knows) or the slot is already taken.
    pub fn positional(&self, slot: &mut Option<String>, arg: String) -> Result<(), EmxError> {
        if arg.starts_with('-') || slot.is_some() {
            return Err(self.unexpected(&arg));
        }
        *slot = Some(arg);
        Ok(())
    }

    /// The error for an argument the tool does not know: ``"unknown flag
    /// `--x`"``, or ``"unexpected argument `x`"`` for a stray positional.
    /// `--help` and `-h` answer the bare usage line.
    pub fn unexpected(&self, arg: &str) -> EmxError {
        match arg {
            "--help" | "-h" => self.usage(),
            flag if flag.starts_with('-') => self.error(format_args!("unknown flag `{flag}`")),
            _ => self.error(format_args!("unexpected argument `{arg}`")),
        }
    }

    /// A usage error: `message`, then the usage line.
    pub fn error(&self, message: impl fmt::Display) -> EmxError {
        EmxError::usage(format!("{message}\n{}", self.usage))
    }

    /// The bare usage line as a usage error (`--help`, a missing
    /// required operand).
    pub fn usage(&self) -> EmxError {
        EmxError::usage(self.usage)
    }
}

impl Iterator for Args {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.rest.next()?;
        self.flag.clone_from(&arg);
        Some(arg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const USAGE: &str = "usage: demo [--n <count>] <file>";

    fn args(list: &[&str]) -> Args {
        Args::new(USAGE, list.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn a_missing_value_names_the_flag_and_appends_the_usage() {
        let mut a = args(&["--model"]);
        assert_eq!(a.next().as_deref(), Some("--model"));
        let e = a.value("a file path").unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert_eq!(e.message(), format!("--model needs a file path\n{USAGE}"));
    }

    #[test]
    fn a_bad_number_quotes_the_value() {
        let mut a = args(&["--n", "many", "--n", "7"]);
        a.next();
        let e = a.number::<u32>("a count").unwrap_err();
        assert_eq!(e.exit_code(), 2);
        assert_eq!(e.message(), format!("bad --n value `many`\n{USAGE}"));
        a.next();
        assert_eq!(a.number::<u32>("a count").unwrap(), 7);
    }

    #[test]
    fn one_positional_is_taken_and_a_second_is_refused() {
        let mut slot = None;
        let a = args(&[]);
        a.positional(&mut slot, "a.s".to_owned()).unwrap();
        assert_eq!(slot.as_deref(), Some("a.s"));
        let e = a.positional(&mut slot, "b.s".to_owned()).unwrap_err();
        assert_eq!(e.message(), format!("unexpected argument `b.s`\n{USAGE}"));
        let e = a.positional(&mut None, "--bogus".to_owned()).unwrap_err();
        assert_eq!(e.message(), format!("unknown flag `--bogus`\n{USAGE}"));
        assert_eq!(e.exit_code(), 2);
    }

    #[test]
    fn help_is_the_bare_usage_line() {
        for flag in ["--help", "-h"] {
            let e = args(&[]).unexpected(flag);
            assert_eq!((e.message(), e.exit_code()), (USAGE, 2));
        }
    }

    #[test]
    fn operands_stop_at_the_next_flag() {
        let mut a = args(&["--merge", "a.json", "b.json", "--json", "out.json"]);
        a.next();
        assert_eq!(a.operands(), ["a.json", "b.json"]);
        assert_eq!(a.next().as_deref(), Some("--json"));
        assert!(args(&["--json"]).operands().is_empty());
    }
}
