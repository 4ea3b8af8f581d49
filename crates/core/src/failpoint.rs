//! Deterministic fault injection for tests and soak runs.
//!
//! A *failpoint* is a named site in the code (`"transform.swizzle"`,
//! `"engine.shard"`, …) that normally does nothing. When activated it
//! fires a configured action — panic, return an injected error, or
//! sleep — on a specific hit count, which makes error, retry, and
//! degradation paths reproducible without races or timing tricks.
//!
//! Configuration is a `;`-separated list of `site:action[@N]` clauses,
//! read once from the `TEAAL_FAILPOINTS` environment variable (or set
//! programmatically with [`set_config`]):
//!
//! ```text
//! TEAAL_FAILPOINTS='transform.swizzle:panic@2;io.read:err@1;engine.step:sleep(50)'
//! ```
//!
//! - `panic` — panic at the site (exercises panic isolation).
//! - `err` — the site returns an injected error ([`FailAction::Err`]).
//! - `sleep(MS)` — block for `MS` milliseconds (exercises deadlines).
//! - `drop` — sever the transport mid-operation ([`FailAction::Drop`]).
//!   Only connection-owning sites (the `teaal serve` daemon's
//!   `serve.accept` / `serve.request`) can enact it; [`hit`] treats it
//!   as a no-op so computational sites ignore the clause.
//! - `@N` — fire on the N-th hit of the site only (1-based). Without
//!   `@N` the action fires on every hit.
//!
//! Hit counters advance per site whether or not the action fires, so
//! `panic@1` fires once and subsequent hits pass — exactly what a
//! retry-once path needs to succeed on the second attempt.
//!
//! The module is always compiled; with no configuration the per-site
//! check is a single relaxed atomic load.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// What an activated failpoint asks the site to do.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a message naming the site.
    Panic,
    /// Return an injected error; the payload names the site.
    Err(String),
    /// Sleep for the given number of milliseconds, then continue.
    Sleep(u64),
    /// Close the connection mid-operation (daemon sites only): the
    /// `teaal serve` connection handler writes a truncated response and
    /// shuts the socket down, exercising client retry paths. Sites that
    /// own no connection ignore it ([`hit`] maps it to `Ok`).
    Drop,
}

#[derive(Clone, Debug)]
struct Clause {
    action: FailAction,
    /// 1-based hit on which to fire; `None` fires every hit.
    on_hit: Option<u64>,
}

#[derive(Default)]
struct Registry {
    clauses: HashMap<String, Clause>,
    hits: HashMap<String, u64>,
}

/// Fast path: false until a non-empty configuration is installed.
static ACTIVE: AtomicBool = AtomicBool::new(false);

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let reg = Mutex::new(Registry::default());
        if let Ok(spec) = std::env::var("TEAAL_FAILPOINTS") {
            if !spec.trim().is_empty() {
                match parse_config(&spec) {
                    Ok(clauses) => {
                        reg.lock().expect("failpoint registry poisoned").clauses = clauses;
                        ACTIVE.store(true, Ordering::Release);
                    }
                    Err(e) => eprintln!("warning: ignoring malformed TEAAL_FAILPOINTS: {e}"),
                }
            }
        }
        reg
    })
}

fn parse_config(spec: &str) -> Result<HashMap<String, Clause>, String> {
    let mut clauses = HashMap::new();
    for part in spec.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (site, rest) = part
            .split_once(':')
            .ok_or_else(|| format!("clause `{part}` missing `:`"))?;
        let (action_str, on_hit) = match rest.rsplit_once('@') {
            Some((a, n)) => {
                let n: u64 = n
                    .parse()
                    .map_err(|_| format!("clause `{part}`: bad hit count `{n}`"))?;
                if n == 0 {
                    return Err(format!("clause `{part}`: hit counts are 1-based"));
                }
                (a, Some(n))
            }
            None => (rest, None),
        };
        let action = match action_str.trim() {
            "panic" => FailAction::Panic,
            "drop" => FailAction::Drop,
            "err" => FailAction::Err(format!("injected failpoint error at `{}`", site.trim())),
            s if s.starts_with("sleep(") && s.ends_with(')') => {
                let ms = s["sleep(".len()..s.len() - 1]
                    .parse()
                    .map_err(|_| format!("clause `{part}`: bad sleep duration"))?;
                FailAction::Sleep(ms)
            }
            other => return Err(format!("clause `{part}`: unknown action `{other}`")),
        };
        clauses.insert(site.trim().to_string(), Clause { action, on_hit });
    }
    Ok(clauses)
}

/// Installs a failpoint configuration programmatically, replacing any
/// previous one and resetting all hit counters. Pass `""` to clear.
///
/// Intended for tests: the environment is only read once per process,
/// so suites that exercise several configurations use this instead
/// (serialized behind their own lock — the configuration is
/// process-global).
///
/// # Errors
///
/// Returns a description of the first malformed clause; the previous
/// configuration is left untouched.
pub fn set_config(spec: &str) -> Result<(), String> {
    let clauses = parse_config(spec)?;
    let mut reg = registry().lock().expect("failpoint registry poisoned");
    ACTIVE.store(!clauses.is_empty(), Ordering::Release);
    reg.clauses = clauses;
    reg.hits.clear();
    Ok(())
}

/// Checks the failpoint `site`, advancing its hit counter, and returns
/// the action to perform if one fires on this hit.
///
/// With no configuration installed this is a single atomic load.
/// [`FailAction::Sleep`] is performed here (the site only observes the
/// delay); `Panic` and `Err` are returned for the site to enact so the
/// panic/error originates in the instrumented code path.
#[must_use]
pub fn check(site: &str) -> Option<FailAction> {
    // `ACTIVE` only flips inside `registry()` (env load) or
    // `set_config`; force the one-time env read before trusting it.
    static ENV_INIT: std::sync::Once = std::sync::Once::new();
    ENV_INIT.call_once(|| {
        let _ = registry();
    });
    if !ACTIVE.load(Ordering::Acquire) {
        return None;
    }
    let action = {
        let mut reg = registry().lock().expect("failpoint registry poisoned");
        let clause = reg.clauses.get(site).cloned()?;
        let hit = reg.hits.entry(site.to_string()).or_insert(0);
        *hit += 1;
        match clause.on_hit {
            Some(n) if *hit != n => return None,
            _ => clause.action,
        }
    };
    if let FailAction::Sleep(ms) = action {
        std::thread::sleep(std::time::Duration::from_millis(ms));
        return None;
    }
    Some(action)
}

/// Checks `site` and panics if a `panic` action fires; returns an
/// injected error message for an `err` action.
///
/// The common site shape for fallible code:
///
/// ```
/// # fn read() -> Result<(), String> {
/// teaal_core::failpoint::hit("io.read")?;
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Returns the injected message when an `err` action fires at `site`.
pub fn hit(site: &str) -> Result<(), String> {
    match check(site) {
        None | Some(FailAction::Sleep(_)) | Some(FailAction::Drop) => Ok(()),
        Some(FailAction::Panic) => panic!("injected failpoint panic at `{site}`"),
        Some(FailAction::Err(msg)) => Err(msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, OnceLock};

    /// The registry is process-global; serialize tests that mutate it.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn unconfigured_sites_are_inert() {
        let _g = guard();
        set_config("").unwrap();
        assert_eq!(check("nope"), None);
        assert!(hit("nope").is_ok());
    }

    #[test]
    fn err_fires_on_requested_hit_only() {
        let _g = guard();
        set_config("io.read:err@2").unwrap();
        assert!(hit("io.read").is_ok());
        assert!(hit("io.read").is_err());
        assert!(hit("io.read").is_ok());
        set_config("").unwrap();
    }

    #[test]
    fn every_hit_fires_without_count() {
        let _g = guard();
        set_config("a.b:err").unwrap();
        assert!(hit("a.b").is_err());
        assert!(hit("a.b").is_err());
        set_config("").unwrap();
    }

    #[test]
    fn panic_action_panics_once() {
        let _g = guard();
        set_config("x.y:panic@1").unwrap();
        let r = std::panic::catch_unwind(|| hit("x.y"));
        assert!(r.is_err());
        assert!(hit("x.y").is_ok(), "second hit passes after panic@1");
        set_config("").unwrap();
    }

    #[test]
    fn drop_action_parses_and_is_inert_for_hit() {
        let _g = guard();
        set_config("serve.request:drop@2").unwrap();
        assert_eq!(check("serve.request"), None);
        assert_eq!(check("serve.request"), Some(FailAction::Drop));
        // Sites without a connection to sever treat `drop` as a pass.
        set_config("io.read:drop").unwrap();
        assert!(hit("io.read").is_ok());
        set_config("").unwrap();
    }

    #[test]
    fn malformed_configs_are_rejected() {
        let _g = guard();
        assert!(set_config("noseparator").is_err());
        assert!(set_config("a:err@0").is_err());
        assert!(set_config("a:zap").is_err());
        assert!(set_config("a:sleep(x)").is_err());
        // A failed install leaves the previous config in place.
        set_config("keep.me:err").unwrap();
        assert!(set_config("bad clause").is_err());
        assert!(hit("keep.me").is_err());
        set_config("").unwrap();
    }
}
