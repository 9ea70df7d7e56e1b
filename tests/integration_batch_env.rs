//! Environment fallback for the process-wide batch capacity: an
//! invalid `REBALANCE_BATCH` (here `0`, the classic footgun) must fall
//! back to the default instead of panicking or latching a zero-sized
//! batch. The other parse edges (`MAX_BATCH_CAPACITY`, one past it,
//! garbage text) are covered value-by-value by the pure
//! `parse_batch_capacity` unit tests — this file pins the one thing
//! they cannot: what the process-wide latch does with a bad value.
//!
//! The capacity latches once per process, so this file holds exactly
//! one test, which owns its test binary's process.

use rebalance::trace::{batch_capacity, BATCH_ENV, DEFAULT_BATCH_CAPACITY};

#[test]
fn invalid_env_value_falls_back_to_default() {
    std::env::set_var(BATCH_ENV, "0");
    assert_eq!(batch_capacity(), DEFAULT_BATCH_CAPACITY);
    // Latched: changing the env after first use is inert by design.
    std::env::set_var(BATCH_ENV, "9");
    assert_eq!(batch_capacity(), DEFAULT_BATCH_CAPACITY);
}
