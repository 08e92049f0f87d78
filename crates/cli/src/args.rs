//! Minimal dependency-free argument parsing for the `clumsy` CLI.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: a subcommand plus `--key value` / `--flag`
/// options.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Args {
    command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Errors produced while parsing or interpreting arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// An option was given without a value.
    MissingValue(String),
    /// A value failed to parse.
    BadValue {
        /// Option name.
        option: String,
        /// Offending value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An option is not recognized by the subcommand.
    Unknown(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand (try `clumsy help`)"),
            ArgError::MissingValue(o) => write!(f, "option --{o} needs a value"),
            ArgError::BadValue {
                option,
                value,
                expected,
            } => write!(f, "--{option} {value:?}: expected {expected}"),
            ArgError::Unknown(o) => write!(f, "unknown option --{o}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Option names that are boolean flags (no value).
const FLAGS: &[&str] = &[
    "watchdog",
    "json",
    "quantize-off",
    "extended",
    "durable",
    "resume",
    "safe-mode",
    "progress",
];

impl Args {
    /// Parses a raw argument vector (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a missing subcommand or a positional
    /// argument after it.
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, ArgError> {
        let mut it = argv.into_iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(ArgError::Unknown(arg));
            };
            // An option is never another option's value: a name
            // followed by `--...` or by nothing is kept bare, so
            // `expect_only` reports it as unknown or as missing its
            // value, wherever it stands on the line.
            match it.next_if(|next| !FLAGS.contains(&name) && !next.starts_with("--")) {
                Some(value) => {
                    options.insert(name.to_string(), value);
                }
                None => flags.push(name.to_string()),
            }
        }
        Ok(Args {
            command,
            options,
            flags,
        })
    }

    /// The subcommand.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// A raw string option.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A parsed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when the value does not parse.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                option: name.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }

    /// Rejects options outside `allowed` (flags are checked too), and
    /// a valued option given without its value.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::Unknown`] for the first unexpected option,
    /// then [`ArgError::MissingValue`] for the first bare valued one.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys().chain(&self.flags) {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError::Unknown(key.clone()));
            }
        }
        if let Some(bare) = self.flags.iter().find(|f| !FLAGS.contains(&f.as_str())) {
            return Err(ArgError::MissingValue(bare.clone()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, ArgError> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["run", "--app", "route", "--cr", "0.5", "--json"]).unwrap();
        assert_eq!(a.command(), "run");
        assert_eq!(a.get("app"), Some("route"));
        assert_eq!(a.get("cr"), Some("0.5"));
        assert!(a.flag("json"));
        assert!(!a.flag("watchdog"));
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(parse(&[]), Err(ArgError::MissingCommand));
    }

    #[test]
    fn dangling_option_is_an_error() {
        let a = parse(&["run", "--app"]).unwrap();
        assert_eq!(
            a.expect_only(&["app"]),
            Err(ArgError::MissingValue("app".into()))
        );
    }

    #[test]
    fn an_unknown_flag_is_unknown_wherever_it_stands() {
        for line in [
            &["serve", "--packets", "10", "--rebalance"][..],
            &["serve", "--rebalance", "--packets", "10"][..],
        ] {
            let a = parse(line).unwrap();
            assert_eq!(a.get("packets"), Some("10"), "{line:?}");
            assert_eq!(
                a.expect_only(&["packets"]),
                Err(ArgError::Unknown("rebalance".into())),
                "{line:?}"
            );
        }
    }

    #[test]
    fn an_option_is_never_another_options_value() {
        let a = parse(&["serve", "--rebalance", "--packets", "10"]).unwrap();
        assert_eq!(a.get("packets"), Some("10"));
        assert_eq!(
            a.expect_only(&["packets"]),
            Err(ArgError::Unknown("rebalance".into()))
        );
        let a = parse(&["run", "--app", "--json"]).unwrap();
        assert_eq!(
            a.expect_only(&["app", "json"]),
            Err(ArgError::MissingValue("app".into()))
        );
    }

    #[test]
    fn positional_after_command_is_rejected() {
        assert!(matches!(
            parse(&["run", "route"]),
            Err(ArgError::Unknown(_))
        ));
    }

    #[test]
    fn get_parsed_defaults_and_validates() {
        let a = parse(&["run", "--packets", "12"]).unwrap();
        assert_eq!(a.get_parsed("packets", 5usize, "a count").unwrap(), 12);
        assert_eq!(a.get_parsed("trials", 3u32, "a count").unwrap(), 3);
        let bad = parse(&["run", "--packets", "dog"]).unwrap();
        assert!(bad.get_parsed("packets", 5usize, "a count").is_err());
    }

    #[test]
    fn expect_only_flags_unknown_options() {
        let a = parse(&["run", "--bogus", "1"]).unwrap();
        assert_eq!(
            a.expect_only(&["app"]),
            Err(ArgError::Unknown("bogus".into()))
        );
    }

    #[test]
    fn errors_display_helpfully() {
        let e = ArgError::BadValue {
            option: "cr".into(),
            value: "fast".into(),
            expected: "a cycle time",
        };
        assert!(format!("{e}").contains("--cr"));
        assert!(format!("{e}").contains("cycle time"));
    }
}
