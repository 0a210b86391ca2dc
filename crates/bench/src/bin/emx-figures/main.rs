//! `emx-figures`: regenerates the paper's tables and figures and the
//! studies around them, one subcommand each.
//!
//! ```sh
//! emx-figures table1         # Table I: fitted energy coefficients
//! emx-figures fig3           # Fig. 3: fitting error of the test programs
//! emx-figures table2         # Table II: application accuracy
//! emx-figures fig4           # Fig. 4: relative accuracy over RS configs
//! emx-figures speedup        # §V: macro-model vs RTL reference time
//! emx-figures ablation       # A1–A5: template variants
//! emx-figures config_sweep   # re-characterize per micro-architecture
//! emx-figures marginals      # controlled-pair marginal event costs
//! emx-figures diagnostics    # VIF + leave-one-out over the suite
//! emx-figures diagnostics --report report.json
//!                            # + replay an emx-characterize report
//! ```
//!
//! Every subcommand but `speedup` (which prints wall-clock timings)
//! prints the same bytes on every run.

mod ablation;
mod config_sweep;
mod diagnostics;
mod fig3;
mod fig4;
mod marginals;
mod speedup;
mod table1;
mod table2;

use std::process::ExitCode;

use emx_core::cli::{self, Args};
use emx_core::EmxError;

const USAGE: &str = "usage: emx-figures <table1|fig3|table2|fig4|speedup|ablation|\
                     config_sweep|marginals> \
                     | emx-figures diagnostics [--report <report.json>]...";

/// The subcommands that take no arguments, in the paper's order.
const FIGURES: &[(&str, fn())] = &[
    ("table1", table1::run),
    ("fig3", fig3::run),
    ("table2", table2::run),
    ("fig4", fig4::run),
    ("speedup", speedup::run),
    ("ablation", ablation::run),
    ("config_sweep", config_sweep::run),
    ("marginals", marginals::run),
];

enum Command {
    Figure(fn()),
    Diagnostics { reports: Vec<String> },
}

fn parse_args(args: &mut Args) -> Result<Command, EmxError> {
    let name = args.next().ok_or_else(|| args.usage())?;
    let command = if name == "diagnostics" {
        let mut reports = Vec::new();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--report" => reports.push(args.value("a file path")?),
                other => return Err(args.unexpected(other)),
            }
        }
        Command::Diagnostics { reports }
    } else if let Some(&(_, figure)) = FIGURES.iter().find(|(n, _)| *n == name) {
        Command::Figure(figure)
    } else if name.starts_with('-') {
        return Err(args.unexpected(&name));
    } else {
        return Err(args.error(format_args!("unknown figure `{name}`")));
    };
    match args.next() {
        Some(extra) => Err(args.unexpected(&extra)),
        None => Ok(command),
    }
}

fn run(command: &Command) -> Result<(), EmxError> {
    match command {
        Command::Figure(figure) => {
            figure();
            Ok(())
        }
        Command::Diagnostics { reports } => diagnostics::run(reports),
    }
}

fn main() -> ExitCode {
    cli::main("emx-figures", USAGE, parse_args, run)
}
