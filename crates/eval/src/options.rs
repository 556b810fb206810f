//! Shared command-line options of the experiment binaries.

use std::str::FromStr;

use transer_baselines::ResourceBudget;
use transer_ml::ClassifierKind;
use transer_trace::json::{self, Json};

/// The flags [`Options::parse`] accepts.
const FLAGS: &str = "--scale F, --seed N, --quick, --json PATH, --budget-secs S, --budget-mb MB";

/// Options shared by every experiment binary.
#[derive(Debug, Clone)]
pub struct Options {
    /// Entity-count multiplier relative to the paper's Table 1 sizes.
    pub scale: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Restrict the classifier set to logistic regression (`--quick`).
    pub quick: bool,
    /// Optional JSON output path.
    pub json: Option<String>,
    /// Resource budget for the baselines (drives `ME`/`TE` entries).
    pub budget: ResourceBudget,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 0.1,
            seed: 42,
            quick: false,
            json: None,
            // Scaled-down counterparts of the paper's 200 GB / 72 h caps:
            // at scale 0.1 TCA's kernel fits for the bibliographic pair and
            // blows the budget beyond it, exactly as in Table 2.
            budget: ResourceBudget { max_memory_bytes: 1 << 30, max_secs: 600.0 },
        }
    }
}

impl Options {
    /// Parse from an argument iterator (skip the program name first).
    ///
    /// # Errors
    /// Names the first unknown argument, flag without a value, value that
    /// does not parse, or `--scale` that is not finite and positive.
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = Options::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => opts.scale = value(&arg, &mut args)?,
                "--seed" => opts.seed = value(&arg, &mut args)?,
                "--quick" => opts.quick = true,
                // `--out`: the workspace-wide spelling (`ledger::out_path`).
                "--json" | "--out" => opts.json = Some(value(&arg, &mut args)?),
                "--budget-secs" => opts.budget.max_secs = value(&arg, &mut args)?,
                "--budget-mb" => {
                    opts.budget.max_memory_bytes = value::<u64>(&arg, &mut args)? << 20
                }
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        if !(opts.scale.is_finite() && opts.scale > 0.0) {
            return Err(format!("--scale must be finite and positive, got {}", opts.scale));
        }
        Ok(opts)
    }

    /// Parse from the process arguments; on a bad argument print the
    /// reason and the usage, and exit 2.
    pub fn from_env() -> Self {
        Options::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}\nflags: {FLAGS}");
            std::process::exit(2)
        })
    }

    /// The classifier set the experiment averages over: the paper's four,
    /// or just logistic regression under `--quick`.
    pub fn classifier_set(&self) -> Vec<ClassifierKind> {
        if self.quick {
            vec![ClassifierKind::LogisticRegression]
        } else {
            ClassifierKind::PAPER_SET.to_vec()
        }
    }

    /// Write `doc` to the `--json` path when set, creating missing parent
    /// directories; exit 1 when it cannot be written.
    pub fn maybe_write_json(&self, doc: &Json) {
        if let Some(path) = &self.json {
            if let Err(e) = json::write_pretty(path, doc) {
                eprintln!("error: cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// The value after `flag`, parsed; another flag there is no value.
fn value<T: FromStr>(flag: &str, args: &mut impl Iterator<Item = String>) -> Result<T, String> {
    let raw = args.next().filter(|v| !v.starts_with("--"));
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        try_parse(args).unwrap()
    }

    fn try_parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.scale, 0.1);
        assert_eq!(o.seed, 42);
        assert!(!o.quick);
        assert_eq!(o.classifier_set().len(), 4);
    }

    #[test]
    fn parses_flags() {
        let o = parse(&["--scale", "0.25", "--seed", "7", "--quick", "--json", "out.json"]);
        assert_eq!(o.scale, 0.25);
        assert_eq!(o.seed, 7);
        assert!(o.quick);
        assert_eq!(o.json.as_deref(), Some("out.json"));
        assert_eq!(o.classifier_set().len(), 1);
    }

    #[test]
    fn out_is_an_alias_for_json() {
        let o = parse(&["--out", "x.json"]);
        assert_eq!(o.json.as_deref(), Some("x.json"));
    }

    #[test]
    fn parses_budget() {
        let o = parse(&["--budget-secs", "12.5", "--budget-mb", "64"]);
        assert_eq!(o.budget.max_secs, 12.5);
        assert_eq!(o.budget.max_memory_bytes, 64 << 20);
    }

    #[test]
    fn rejects_unknown_arguments() {
        for args in [&["--scael", "0.05"][..], &["--threads", "2"], &["--smoke"], &["0.05"]] {
            let err = try_parse(args).unwrap_err();
            assert!(err.contains(&format!("{:?}", args[0])), "{args:?}: {err}");
        }
    }

    #[test]
    fn rejects_missing_values() {
        for flag in ["--scale", "--seed", "--json", "--out", "--budget-secs", "--budget-mb"] {
            let want = format!("{flag} needs a value");
            assert_eq!(try_parse(&["--quick", flag]).unwrap_err(), want);
            assert_eq!(try_parse(&[flag, "--quick"]).unwrap_err(), want);
        }
    }

    #[test]
    fn rejects_unparsable_values() {
        for case in ["--scale 0,05", "--seed -1", "--budget-secs ten", "--budget-mb 1.5"] {
            let (flag, _) = case.split_once(' ').unwrap();
            let err = try_parse(&case.split(' ').collect::<Vec<_>>()).unwrap_err();
            assert!(err.starts_with(&format!("{flag}: cannot parse")), "{case}: {err}");
        }
    }

    #[test]
    fn rejects_scale_that_is_not_finite_and_positive() {
        for scale in ["0", "-0.5", "inf", "NaN"] {
            let err = try_parse(&["--scale", scale]).unwrap_err();
            assert!(err.starts_with("--scale must be finite and positive"), "{scale}: {err}");
        }
    }
}
