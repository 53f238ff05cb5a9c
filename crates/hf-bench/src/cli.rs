//! A minimal `--key value` / `--flag` argument parser (no external CLI
//! dependency).

use std::collections::HashMap;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    kv: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `std::env::args()` (skipping the binary name): `--key
    /// value` pairs and bare `--flag`s.
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1))
    }

    /// Parses an explicit iterator (testing).
    pub(crate) fn from_args<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut kv = HashMap::new();
        let mut flags = Vec::new();
        let mut it = args.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        kv.insert(key.to_string(), it.next().expect("peeked"));
                    }
                    _ => flags.push(key.to_string()),
                }
            }
        }
        Self { kv, flags }
    }

    /// Value of `--key`, parsed; `default` when the key is absent. A value
    /// that is present but does not parse is reported and exits 2.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        self.try_get(key)
            .unwrap_or_else(|e| usage_error(&e))
            .unwrap_or(default)
    }

    fn try_get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let Some(v) = self.kv.get(key) else {
            return Ok(None);
        };
        v.parse()
            .map(Some)
            .map_err(|_| format!("--{key}: cannot parse {v:?}"))
    }

    /// String value of `--key`, which must be one of `allowed`; the first
    /// of them when the key is absent. Any other value is reported and
    /// exits 2.
    pub fn get_str<'a>(&'a self, key: &str, allowed: &[&'a str]) -> &'a str {
        self.try_str(key, allowed)
            .unwrap_or_else(|e| usage_error(&e))
    }

    fn try_str<'a>(&'a self, key: &str, allowed: &[&'a str]) -> Result<&'a str, String> {
        match self.kv.get(key) {
            None => Ok(allowed[0]),
            Some(v) if allowed.contains(&v.as_str()) => Ok(v),
            Some(v) => Err(format!(
                "--{key}: unknown value {v:?} (expected {})",
                allowed.join("|")
            )),
        }
    }

    /// True if bare `--flag` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

/// A bad argument is the caller's typo, not a default to fall back on.
fn usage_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::from_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn kv_and_flags() {
        let a = parse("--views 64 --json --scale 0.5 --policy random");
        assert_eq!(a.get("views", 0usize), 64);
        assert!((a.get("scale", 1.0f64) - 0.5).abs() < 1e-12);
        assert_eq!(a.get_str("policy", &["balanced", "random"]), "random");
        assert_eq!(a.get_str("sweep", &["both", "cores"]), "both");
        assert!(a.flag("json"));
        assert!(!a.flag("dedicated"));
        assert_eq!(a.get("missing", 7u32), 7);
        // Present but bad: an error naming the flag, never the default.
        let bad = parse("--views 1O24 --policy bogus");
        let err = bad
            .try_get::<usize>("views")
            .expect_err("1O24 is no number");
        assert!(err.contains("--views") && err.contains("1O24"), "{err}");
        let err = bad
            .try_str("policy", &["balanced", "random"])
            .expect_err("bogus");
        assert!(err.contains("--policy") && err.contains("bogus"), "{err}");
    }

    #[test]
    fn flag_followed_by_flag() {
        let a = parse("--json --dedicated");
        assert!(a.flag("json") && a.flag("dedicated"));
    }
}
