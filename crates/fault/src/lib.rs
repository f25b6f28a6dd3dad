//! # granlog-fault
//!
//! A tiny failpoint facility for fault-injection testing, written locally
//! (like the other vendored stand-ins) because the build environment is
//! offline. The API is deliberately small:
//!
//! * code under test marks its risky seams with **named failpoints** —
//!   `if granlog_fault::should_fail("serve.lease") { return Err(...) }` —
//!   choosing its own typed error for the injected failure;
//! * a test (or the `GRANLOG_FAILPOINTS` environment variable) arms a
//!   failpoint with an [`Action`] — inject an **error**, **panic**, or
//!   **delay** — and a firing probability drawn from a **deterministic
//!   seeded** per-failpoint RNG, so chaos runs are reproducible;
//! * everything is gated behind the `failpoints` cargo feature. Compiled
//!   out, [`should_fail`] is an `#[inline(always)]` constant `false`, every
//!   other function a constant no-op, and the registry is never reached:
//!   release builds are observationally identical to builds that never
//!   heard of this crate.
//!
//! # Environment knob
//!
//! With the feature enabled, the registry is seeded once, lazily, from
//! `GRANLOG_FAILPOINTS` (same syntax as [`configure`]:
//! `name=action[:prob][;name=action[:prob]]...`, actions `error`, `panic`,
//! `delay(<ms>)`) and `GRANLOG_FAULT_SEED` (a `u64`). This lets
//! `granlog serve`, built with `--features failpoints`, be chaos-tested
//! from the outside without any CLI surface.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Duration;

/// What an armed failpoint injects when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// The call site returns its own typed error ([`should_fail`] → `true`).
    Error,
    /// The evaluation panics with a message naming the failpoint.
    Panic,
    /// The evaluation sleeps, then proceeds normally (`should_fail` →
    /// `false`): exercises timeout and slow-peer paths.
    Delay(Duration),
}

/// Counters of one failpoint's activity, for test assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailpointStats {
    /// Times the failpoint was evaluated (site reached while armed).
    pub evaluated: u64,
    /// Times it actually fired (error returned, panic raised, delay slept).
    pub fired: u64,
}

struct Failpoint {
    action: Action,
    /// Firing probability in [0, 1].
    probability: f64,
    /// Per-failpoint splitmix64 state, derived from the global seed and
    /// the failpoint name so arming order does not change the stream.
    rng: u64,
    stats: FailpointStats,
}

#[derive(Default)]
struct Registry {
    points: HashMap<String, Failpoint>,
    seed: u64,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut reg = Registry {
            points: HashMap::new(),
            seed: std::env::var("GRANLOG_FAULT_SEED")
                .ok()
                .and_then(|s| s.parse().ok())
                .unwrap_or(0x9E37_79B9_7F4A_7C15),
        };
        if let Ok(spec) = std::env::var("GRANLOG_FAILPOINTS") {
            // A bad env spec must not take the process down — it is a
            // debugging knob, not an interface contract.
            let _ = apply_spec(&mut reg, &spec);
        }
        Mutex::new(reg)
    })
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn parse_action(text: &str) -> Result<Action, String> {
    if text == "error" {
        return Ok(Action::Error);
    }
    if text == "panic" {
        return Ok(Action::Panic);
    }
    if let Some(ms) = text
        .strip_prefix("delay(")
        .and_then(|rest| rest.strip_suffix(')'))
    {
        let ms: u64 = ms
            .parse()
            .map_err(|_| format!("bad delay milliseconds in {text:?}"))?;
        return Ok(Action::Delay(Duration::from_millis(ms)));
    }
    Err(format!(
        "unknown action {text:?} (expected error, panic, or delay(<ms>))"
    ))
}

fn apply_spec(reg: &mut Registry, spec: &str) -> Result<usize, String> {
    let mut armed = 0;
    for part in spec.split(';').filter(|p| !p.trim().is_empty()) {
        let (name, rest) = part
            .split_once('=')
            .ok_or_else(|| format!("missing `=` in failpoint spec {part:?}"))?;
        let (action, probability) = match rest.rsplit_once(':') {
            // `delay(5):0.5` splits at the last colon; `delay(5)` alone
            // has none. A non-numeric tail is part of the action.
            Some((action, prob)) if prob.trim().parse::<f64>().is_ok() => {
                (action, prob.trim().parse::<f64>().unwrap_or(1.0))
            }
            _ => (rest, 1.0),
        };
        arm_locked(reg, name.trim(), parse_action(action.trim())?, probability);
        armed += 1;
    }
    Ok(armed)
}

fn arm_locked(reg: &mut Registry, name: &str, action: Action, probability: f64) {
    let rng = reg.seed ^ fnv64(name.as_bytes());
    reg.points.insert(
        name.to_string(),
        Failpoint {
            action,
            probability: probability.clamp(0.0, 1.0),
            rng,
            stats: FailpointStats::default(),
        },
    );
}

fn lock() -> MutexGuard<'static, Registry> {
    // A panic while the registry lock was held (an armed `panic` action
    // never panics inside the lock, but a test harness might) must not
    // poison every later evaluation: the map holds plain data.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Draws one evaluation of an armed failpoint.
fn evaluate(name: &str) -> bool {
    // One short critical section per evaluation of an *armed* process;
    // the common case (nothing armed) is a map lookup and out.
    let action = {
        let mut reg = lock();
        let Some(point) = reg.points.get_mut(name) else {
            return false;
        };
        point.stats.evaluated += 1;
        let draw = (splitmix64(&mut point.rng) >> 11) as f64 / (1u64 << 53) as f64;
        if draw >= point.probability {
            return false;
        }
        point.stats.fired += 1;
        point.action
    };
    // Panic and sleep OUTSIDE the registry lock.
    match action {
        Action::Error => true,
        Action::Panic => panic!("injected panic at failpoint `{name}`"),
        Action::Delay(d) => {
            std::thread::sleep(d);
            false
        }
    }
}

/// Whether the `failpoints` feature compiled the registry in. Each public
/// function below tests it first, so with the feature off every one of
/// them is a constant and the registry is never reached.
const ENABLED: bool = cfg!(feature = "failpoints");

/// Evaluates a failpoint. Returns `true` when an armed `error` action fires
/// — the call site then returns its own typed error. An armed `panic`
/// action panics here; an armed `delay` sleeps and returns `false`. With the
/// `failpoints` feature off this is a constant `false` the optimizer
/// removes.
#[inline(always)]
pub fn should_fail(name: &str) -> bool {
    ENABLED && evaluate(name)
}

/// Arms failpoints from a spec string:
/// `name=action[:prob][;name=action[:prob]]...` with actions `error`,
/// `panic` and `delay(<ms>)`, probability defaulting to 1.0. Returns the
/// number of failpoints armed (0 with the feature off).
///
/// # Errors
///
/// Returns a description of the first malformed entry.
#[inline(always)]
pub fn configure(spec: &str) -> Result<usize, String> {
    if !ENABLED {
        return Ok(0);
    }
    apply_spec(&mut lock(), spec)
}

/// Arms one failpoint with an action and firing probability (clamped to
/// `[0, 1]`). Re-arming resets its RNG stream and counters.
#[inline(always)]
pub fn arm(name: &str, action: Action, probability: f64) {
    if ENABLED {
        arm_locked(&mut lock(), name, action, probability);
    }
}

/// Disarms one failpoint.
#[inline(always)]
pub fn disarm(name: &str) {
    if ENABLED {
        lock().points.remove(name);
    }
}

/// Disarms every failpoint (chaos tests call this between scenarios).
#[inline(always)]
pub fn disarm_all() {
    if ENABLED {
        lock().points.clear();
    }
}

/// Sets the global seed and re-derives every armed failpoint's RNG stream,
/// making a chaos scenario reproducible end to end.
#[inline(always)]
pub fn set_seed(seed: u64) {
    if ENABLED {
        let mut reg = lock();
        reg.seed = seed;
        for (name, point) in &mut reg.points {
            point.rng = seed ^ fnv64(name.as_bytes());
        }
    }
}

/// Evaluation/firing counters of one failpoint (zeroes when unarmed or
/// compiled out).
#[inline(always)]
pub fn stats(name: &str) -> FailpointStats {
    if !ENABLED {
        return FailpointStats::default();
    }
    lock().points.get(name).map(|p| p.stats).unwrap_or_default()
}

/// Returns an injected-fault error for a failpoint if it fires, in one step:
/// `fail_or(name, || MyError::Fault(name))?`.
///
/// # Errors
///
/// The error built by `err` when the failpoint fires with [`Action::Error`].
#[inline(always)]
pub fn fail_or<E>(name: &str, err: impl FnOnce() -> E) -> Result<(), E> {
    if should_fail(name) {
        return Err(err());
    }
    Ok(())
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    /// The registry is process-global; tests touching it serialize here.
    fn guard() -> std::sync::MutexGuard<'static, ()> {
        static GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GUARD
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn unarmed_failpoints_never_fire() {
        let _g = guard();
        disarm_all();
        assert!(!should_fail("nothing.here"));
        assert_eq!(stats("nothing.here"), FailpointStats::default());
    }

    #[test]
    fn error_actions_fire_with_probability_one() {
        let _g = guard();
        disarm_all();
        arm("t.error", Action::Error, 1.0);
        for _ in 0..10 {
            assert!(should_fail("t.error"));
        }
        let s = stats("t.error");
        assert_eq!((s.evaluated, s.fired), (10, 10));
        disarm("t.error");
        assert!(!should_fail("t.error"));
    }

    #[test]
    fn probability_is_deterministic_under_a_seed() {
        let _g = guard();
        disarm_all();
        let pattern = |seed: u64| -> Vec<bool> {
            arm("t.prob", Action::Error, 0.5);
            set_seed(seed);
            (0..64).map(|_| should_fail("t.prob")).collect()
        };
        let a = pattern(42);
        let b = pattern(42);
        assert_eq!(a, b, "same seed must reproduce the firing pattern");
        let c = pattern(43);
        assert_ne!(a, c, "a different seed must (overwhelmingly) differ");
        let fired = a.iter().filter(|f| **f).count();
        assert!(
            (8..=56).contains(&fired),
            "p=0.5 over 64 draws fired {fired} times"
        );
        disarm_all();
    }

    #[test]
    fn panic_actions_panic_with_the_failpoint_name() {
        let _g = guard();
        disarm_all();
        arm("t.panic", Action::Panic, 1.0);
        let result = std::panic::catch_unwind(|| should_fail("t.panic"));
        disarm_all();
        let message = *result
            .expect_err("armed panic action must panic")
            .downcast::<String>()
            .expect("panic payload is the formatted message");
        assert!(message.contains("t.panic"), "{message}");
    }

    #[test]
    fn delay_actions_sleep_then_proceed() {
        let _g = guard();
        disarm_all();
        arm(
            "t.delay",
            Action::Delay(std::time::Duration::from_millis(20)),
            1.0,
        );
        let start = std::time::Instant::now();
        assert!(!should_fail("t.delay"), "a delay is not an error");
        assert!(start.elapsed() >= std::time::Duration::from_millis(15));
        assert_eq!(stats("t.delay").fired, 1);
        disarm_all();
    }

    #[test]
    fn spec_strings_parse_and_arm() {
        let _g = guard();
        disarm_all();
        let armed = configure("a=error;b=panic:0.25; c=delay(15):0.5 ").expect("well-formed spec");
        assert_eq!(armed, 3);
        assert!(should_fail("a"));
        assert!(configure("oops").is_err());
        assert!(configure("x=explode").is_err());
        assert!(configure("x=delay(abc)").is_err());
        disarm_all();
    }

    #[test]
    fn fail_or_returns_the_typed_error() {
        let _g = guard();
        disarm_all();
        arm("t.failor", Action::Error, 1.0);
        let r: Result<(), &'static str> = fail_or("t.failor", || "boom");
        assert_eq!(r, Err("boom"));
        disarm_all();
        let r: Result<(), &'static str> = fail_or("t.failor", || "boom");
        assert_eq!(r, Ok(()));
    }
}

#[cfg(all(test, not(feature = "failpoints")))]
mod compiled_out {
    use super::*;

    /// Without the feature nothing arms and nothing fires: every function
    /// is its constant.
    #[test]
    fn every_function_is_a_constant_without_the_feature() {
        arm("t.off", Action::Error, 1.0);
        set_seed(7);
        assert_eq!(configure("a=error;b=panic"), Ok(0));
        assert!(!should_fail("t.off") && !should_fail("a") && !should_fail("b"));
        assert_eq!(stats("t.off"), FailpointStats::default());
        assert_eq!(fail_or("t.off", || "boom"), Ok(()));
        disarm("t.off");
        disarm_all();
    }
}
