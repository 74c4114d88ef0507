//! Minimal command-line argument parsing (no external dependencies).
//!
//! Supports `--flag value`, `--flag=value` and boolean `--flag` forms, plus
//! positional arguments. Unknown flags are an error so typos fail loudly.

use std::collections::BTreeMap;

/// Parsed command line: positionals plus `--key value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    options: BTreeMap<String, String>,
}

/// Parse failure with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Args {
    /// Parses raw arguments against a set of known option names.
    ///
    /// `boolean` options take no value; all other known options consume the
    /// next argument (or use an inline `=value`).
    pub fn parse(
        raw: &[String],
        known: &[&str],
        boolean: &[&str],
    ) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(stripped) = a.strip_prefix("--") {
                let (key, inline) = match stripped.split_once('=') {
                    Some((k, v)) => (k.to_string(), Some(v.to_string())),
                    None => (stripped.to_string(), None),
                };
                if boolean.contains(&key.as_str()) {
                    if inline.is_some() {
                        return Err(ArgError(format!("--{key} takes no value")));
                    }
                    args.options.insert(key, "true".into());
                } else if known.contains(&key.as_str()) {
                    let value = match inline {
                        Some(v) => v,
                        None => it
                            .next()
                            .cloned()
                            .ok_or_else(|| ArgError(format!("--{key} needs a value")))?,
                    };
                    args.options.insert(key, value);
                } else {
                    return Err(ArgError(format!("unknown option --{key}")));
                }
            } else {
                args.positionals.push(a.clone());
            }
        }
        Ok(args)
    }

    /// Positional argument `i`.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Raw string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Boolean flag presence.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// Typed option with default.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: '{v}' is not a number"))),
        }
    }

    /// Typed integer option with default.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: '{v}' is not an integer"))),
        }
    }

    /// Typed u64 option with default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key}: '{v}' is not an integer"))),
        }
    }

    /// Comma-separated list of floats.
    pub fn get_f64_list(&self, key: &str, default: &[f64]) -> Result<Vec<f64>, ArgError> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|x| {
                    x.trim()
                        .parse()
                        .map_err(|_| ArgError(format!("--{key}: '{x}' is not a number")))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_positionals_and_options() {
        let a = Args::parse(
            &raw(&["fig", "2", "--reps", "5", "--csv"]),
            &["reps"],
            &["csv"],
        )
        .unwrap();
        assert_eq!(a.positional(0), Some("fig"));
        assert_eq!(a.positional(1), Some("2"));
        assert_eq!(a.get_usize("reps", 1).unwrap(), 5);
        assert!(a.flag("csv"));
        assert_eq!(a.positional(2), None);
    }

    #[test]
    fn inline_equals_form() {
        let a = Args::parse(&raw(&["--t-switch=500"]), &["t-switch"], &[]).unwrap();
        assert_eq!(a.get_f64("t-switch", 0.0).unwrap(), 500.0);
    }

    #[test]
    fn unknown_option_rejected() {
        let e = Args::parse(&raw(&["--nope"]), &["reps"], &[]).unwrap_err();
        assert!(e.0.contains("unknown option"));
    }

    #[test]
    fn missing_value_rejected() {
        let e = Args::parse(&raw(&["--reps"]), &["reps"], &[]).unwrap_err();
        assert!(e.0.contains("needs a value"));
    }

    #[test]
    fn boolean_with_value_rejected() {
        let e = Args::parse(&raw(&["--csv=yes"]), &[], &["csv"]).unwrap_err();
        assert!(e.0.contains("takes no value"));
    }

    #[test]
    fn list_parsing() {
        let a = Args::parse(&raw(&["--ts", "100, 200,500"]), &["ts"], &[]).unwrap();
        assert_eq!(a.get_f64_list("ts", &[]).unwrap(), vec![100.0, 200.0, 500.0]);
        let d = Args::default();
        assert_eq!(d.get_f64_list("ts", &[1.0]).unwrap(), vec![1.0]);
    }

    #[test]
    fn defaults_apply() {
        let a = Args::default();
        assert_eq!(a.get_f64("x", 2.5).unwrap(), 2.5);
        assert_eq!(a.get_u64("y", 7).unwrap(), 7);
        assert!(!a.flag("csv"));
    }

    #[test]
    fn bad_number_rejected() {
        let a = Args::parse(&raw(&["--reps", "five"]), &["reps"], &[]).unwrap();
        assert!(a.get_usize("reps", 1).is_err());
    }
}
