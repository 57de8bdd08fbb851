//! Shared command-line parsing for the experiment runners.
//!
//! `secpb reproduce`, `grid` and `serve-bench` accept the same surface:
//!
//! ```text
//! [instructions] [--jobs N] [--json out.json]
//! ```
//!
//! * `instructions` — positional measurement budget per benchmark,
//! * `--jobs N` — worker threads for the experiment grid (results are
//!   byte-identical for any value, see `experiments::run_grid`),
//! * `--json PATH` — also dump the machine-readable payload to `PATH`.

/// Parsed arguments common to all experiment runners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerArgs {
    /// Measurement-region instruction budget per benchmark.
    pub instructions: u64,
    /// Worker threads for the experiment grid (`--jobs N`, at least 1),
    /// if given.
    pub jobs: Option<usize>,
    /// Optional JSON output path (`--json PATH`).
    pub json: Option<String>,
}

impl RunnerArgs {
    /// Parses an argument slice.
    ///
    /// # Errors
    ///
    /// Names the malformed or unknown argument.
    pub fn parse(args: &[String], default_instructions: u64) -> Result<RunnerArgs, String> {
        let mut parsed = RunnerArgs {
            instructions: default_instructions,
            jobs: None,
            json: None,
        };
        let mut it = args.iter();
        let mut saw_positional = false;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--jobs" => {
                    let v = it.next().ok_or("--jobs needs a count")?;
                    parsed.jobs = Some(
                        v.parse::<usize>()
                            .map_err(|_| format!("bad --jobs value {v:?}"))?
                            .max(1),
                    );
                }
                "--json" => {
                    let v = it.next().ok_or("--json needs a path")?;
                    parsed.json = Some(v.clone());
                }
                other if !saw_positional && !other.starts_with("--") => {
                    parsed.instructions = other
                        .parse()
                        .map_err(|_| format!("bad instruction count {other:?}"))?;
                    saw_positional = true;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply() {
        let a = RunnerArgs::parse(&[], 1_000_000).unwrap();
        assert_eq!(a.instructions, 1_000_000);
        assert_eq!(a.jobs, None);
        assert_eq!(a.json, None);
    }

    #[test]
    fn full_surface_parses() {
        let a =
            RunnerArgs::parse(&strs(&["250000", "--jobs", "4", "--json", "o.json"]), 7).unwrap();
        assert_eq!(a.instructions, 250_000);
        assert_eq!(a.jobs, Some(4));
        assert_eq!(a.json.as_deref(), Some("o.json"));
    }

    #[test]
    fn flags_may_precede_the_positional() {
        let a = RunnerArgs::parse(&strs(&["--jobs", "2", "123"]), 7).unwrap();
        assert_eq!(a.instructions, 123);
        assert_eq!(a.jobs, Some(2));
    }

    #[test]
    fn jobs_zero_clamps_to_one() {
        let a = RunnerArgs::parse(&strs(&["--jobs", "0"]), 7).unwrap();
        assert_eq!(a.jobs, Some(1));
    }

    #[test]
    fn malformed_input_is_rejected() {
        assert!(RunnerArgs::parse(&strs(&["abc"]), 7).is_err());
        assert!(RunnerArgs::parse(&strs(&["--jobs"]), 7).is_err());
        assert!(RunnerArgs::parse(&strs(&["--jobs", "x"]), 7).is_err());
        assert!(RunnerArgs::parse(&strs(&["1", "2"]), 7).is_err());
        assert!(RunnerArgs::parse(&strs(&["--frobnicate"]), 7).is_err());
    }
}
