//! Runtime toggle for the fused execution plan (`SKYNET_FUSION`).
//!
//! The fused execution plan in `skynet-core` (`core::plan`) runs each
//! bundle chain `DW-Conv3 → BN → Act → PW-Conv → BN → Act` as a single
//! cache-blocked fused kernel ([`crate::fused`]). The fused path is
//! engineered to be **bit-identical** to the unfused layer-by-layer
//! path, so the unfused path survives as the equivalence oracle behind
//! this toggle:
//!
//! * `SKYNET_FUSION=on` / `auto` / unset — fused plans enabled (the
//!   default; `auto` and `on` are synonyms today, `auto` reserves room
//!   for geometry-dependent decisions later),
//! * `SKYNET_FUSION=off` — always run the unfused layer path,
//! * anything else — hard error (panic), mirroring the `SKYNET_SIMD`
//!   contract: a typo must never silently change which code runs.
//!
//! [`force`] flips the mode mid-process for equivalence sweeps, exactly
//! like [`crate::simd::force`]. Flipping is safe because both paths
//! produce identical bits; plans already built keep executing fused
//! until their owner rebuilds them.

use crate::telemetry;
use std::sync::atomic::{AtomicU8, Ordering};

/// `STATE` encoding: 0 = unresolved, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

fn store(on: bool) {
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
    telemetry::record_gauge("fusion.enabled", if on { 1.0 } else { 0.0 });
}

/// Whether fused execution plans are enabled, resolving `SKYNET_FUSION`
/// on first use.
///
/// # Panics
///
/// Panics (hard error, by design) when `SKYNET_FUSION` names an unknown
/// value.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        0 => init_from_env(),
        1 => false,
        _ => true,
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var("SKYNET_FUSION").as_deref() {
        Err(_) | Ok("auto") | Ok("") | Ok("on") => true,
        Ok("off") => false,
        Ok(other) => {
            panic!("SKYNET_FUSION={other:?} is not a fusion mode (expected on|off|auto)")
        }
    };
    store(on);
    on
}

/// Forces fusion on or off, e.g. for an equivalence sweep. Safe to flip
/// mid-process: the fused and unfused paths produce bit-identical
/// outputs, so callers cannot observe the change in their results.
pub fn force(on: bool) {
    store(on);
}

/// Human-readable name of the active mode (`"on"` / `"off"`).
pub fn mode_name() -> &'static str {
    if enabled() {
        "on"
    } else {
        "off"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_round_trips() {
        let before = enabled();
        force(false);
        assert!(!enabled());
        assert_eq!(mode_name(), "off");
        force(true);
        assert!(enabled());
        assert_eq!(mode_name(), "on");
        force(before);
    }
}
