//! A small, dependency-free argument parser for the `witag` CLI.
//!
//! Supports `--key value`, `--key=value` and bare flags; collects
//! positional arguments; reports unknown keys. Deliberately tiny — the
//! CLI has a handful of options per subcommand and the offline crate set
//! is kept minimal.

use std::collections::BTreeMap;

/// Parsed arguments: options by key plus positionals in order.
#[derive(Debug, Default, Clone)]
pub struct Args {
    opts: BTreeMap<String, String>,
    positionals: Vec<String>,
    /// Keys the caller has read (for unknown-option reporting).
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` given without a value.
    MissingValue(String),
    /// A value failed to parse.
    BadValue {
        /// The option name.
        key: String,
        /// The unparsable text.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Options the subcommand does not understand.
    Unknown(Vec<String>),
}

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::BadValue { key, value, expected } => {
                write!(f, "option --{key}: '{value}' is not a valid {expected}")
            }
            ArgError::Unknown(keys) => {
                write!(f, "unknown option(s): ")?;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "--{k}")?;
                }
                Ok(())
            }
        }
    }
}

impl Args {
    /// Parse a raw argument list (after the subcommand).
    ///
    /// Flags (`--foo` with no value) are stored with an empty value; a
    /// following token starting with `--` is treated as the next option,
    /// not a value.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(stripped) = tok.strip_prefix("--") {
                if let Some((k, v)) = stripped.split_once('=') {
                    args.opts.insert(k.to_string(), v.to_string());
                } else {
                    // Value is the next token unless it is another option.
                    let v = iter.next_if(|next| !next.starts_with("--")).unwrap_or_default();
                    args.opts.insert(stripped.to_string(), v);
                }
            } else {
                args.positionals.push(tok);
            }
        }
        Ok(args)
    }

    /// Positional arguments (the `report` subcommand takes the trace
    /// path as one).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Raw option lookup (marks the key consumed).
    pub fn raw(&self, key: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(key.to_string());
        self.opts.get(key).map(|s| s.as_str())
    }

    /// `true` if a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.raw(key).is_some()
    }

    /// A string option with a default.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        match self.raw(key) {
            Some(v) if !v.is_empty() => v,
            _ => default,
        }
    }

    /// An f64 option with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.raw(key) {
            Some(v) if !v.is_empty() => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: "number",
            }),
            Some(_) => Err(ArgError::MissingValue(key.to_string())),
            None => Ok(default),
        }
    }

    /// A usize option with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.raw(key) {
            Some(v) if !v.is_empty() => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: "integer",
            }),
            Some(_) => Err(ArgError::MissingValue(key.to_string())),
            None => Ok(default),
        }
    }

    /// A u64 option with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.raw(key) {
            Some(v) if !v.is_empty() => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: "integer",
            }),
            Some(_) => Err(ArgError::MissingValue(key.to_string())),
            None => Ok(default),
        }
    }

    /// After reading every option a subcommand understands, reject
    /// anything left over.
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        let consumed = self.consumed.borrow();
        let unknown: Vec<String> = self
            .opts
            .keys()
            .filter(|k| !consumed.contains(k))
            .cloned()
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(ArgError::Unknown(unknown))
        }
    }
}

/// Most points a distance sweep may have: a step the size of a float
/// rounding error would otherwise make the point list unbounded.
pub const MAX_SWEEP_POINTS: usize = 1000;

/// The points `from, from + step, …` up to `to` (inclusive, with 1e-9 m
/// slack for a `to` that is a float sum of steps), built by index so no
/// rounding error accumulates. Every value must be finite, `from <= to`,
/// `step > 0`, and the list at most [`MAX_SWEEP_POINTS`] long.
pub fn sweep_points(from: f64, to: f64, step: f64) -> Result<Vec<f64>, ArgError> {
    let bad = |key: &str, value: f64, expected| ArgError::BadValue {
        key: key.to_string(),
        value: value.to_string(),
        expected,
    };
    if !from.is_finite() {
        return Err(bad("from", from, "finite number"));
    }
    if !(to.is_finite() && to >= from) {
        return Err(bad("to", to, "finite number no smaller than --from"));
    }
    if !(step.is_finite() && step > 0.0) {
        return Err(bad("step", step, "finite positive number"));
    }
    let last = (to - from + 1e-9) / step;
    if last >= MAX_SWEEP_POINTS as f64 {
        return Err(bad("step", step, "step giving at most 1000 sweep points"));
    }
    Ok((0..=last as usize).map(|i| from + i as f64 * step).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn key_value_forms() {
        let a = parse(&["--distance", "3.5", "--rounds=200", "--quiet"]);
        assert_eq!(a.f64_or("distance", 0.0).unwrap(), 3.5);
        assert_eq!(a.usize_or("rounds", 0).unwrap(), 200);
        assert!(a.flag("quiet"));
        assert!(a.reject_unknown().is_ok());
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.f64_or("distance", 1.5).unwrap(), 1.5);
        assert_eq!(a.str_or("location", "a"), "a");
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse(&["--quiet", "--seed", "7"]);
        assert!(a.flag("quiet"));
        assert_eq!(a.u64_or("seed", 0).unwrap(), 7);
    }

    #[test]
    fn positionals_collected() {
        let a = parse(&["hello", "--x", "1", "world"]);
        assert_eq!(a.positionals(), &["hello".to_string(), "world".to_string()]);
    }

    #[test]
    fn bad_value_reported() {
        let a = parse(&["--rounds", "many"]);
        assert!(matches!(
            a.usize_or("rounds", 0),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn unknown_rejected() {
        let a = parse(&["--typo", "1"]);
        let _ = a.f64_or("distance", 0.0);
        assert!(matches!(a.reject_unknown(), Err(ArgError::Unknown(keys)) if keys == ["typo"]));
    }

    #[test]
    fn sweep_points_are_built_by_index() {
        assert_eq!(sweep_points(1.0, 7.0, 1.0).unwrap(), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        assert_eq!(sweep_points(2.5, 2.5, 1.0).unwrap(), [2.5]);
        // Ten steps of 0.1 land on 2.0 even though the float sum misses it.
        let pts = sweep_points(1.0, 2.0, 0.1).unwrap();
        assert_eq!(pts.len(), 11);
        assert_eq!(pts[3], 1.0 + 3.0 * 0.1);
        // The cap is inclusive: 1000 points pass, 1001 do not.
        assert_eq!(sweep_points(0.0, 999.0, 1.0).unwrap().len(), MAX_SWEEP_POINTS);
        assert!(sweep_points(0.0, 1000.0, 1.0).is_err());
    }

    #[test]
    fn sweep_points_reject_unbounded_or_non_finite_input() {
        let key = |r: Result<Vec<f64>, ArgError>| match r {
            Err(ArgError::BadValue { key, .. }) => key,
            other => panic!("expected a bad value, got {other:?}"),
        };
        assert_eq!(key(sweep_points(1.0, f64::INFINITY, 1.0)), "to");
        assert_eq!(key(sweep_points(f64::NAN, 7.0, 1.0)), "from");
        assert_eq!(key(sweep_points(f64::NEG_INFINITY, 7.0, 1.0)), "from");
        assert_eq!(key(sweep_points(1.0, f64::NAN, 1.0)), "to");
        assert_eq!(key(sweep_points(7.0, 1.0, 1.0)), "to");
        assert_eq!(key(sweep_points(1.0, 7.0, 0.0)), "step");
        assert_eq!(key(sweep_points(1.0, 7.0, -1.0)), "step");
        assert_eq!(key(sweep_points(1.0, 7.0, f64::NAN)), "step");
        assert_eq!(key(sweep_points(1.0, 7.0, 1e-300)), "step");
    }
}
