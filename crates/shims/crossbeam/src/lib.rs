//! Offline shim for the `crossbeam` crate.
//!
//! The build environment has no crates.io access, so this workspace vendors
//! the subset of `crossbeam::channel` the engine uses: [`channel::bounded`]
//! MPMC channels with disconnect semantics and the [`channel::Select`]
//! multiplexer the engine's operator input driver waits on. The
//! implementation is a mutex + condvar ring with an out-of-band waker list
//! for multiplexed waits; it trades a little raw throughput for zero
//! dependencies. Swap the path dependency for the real crate when a
//! registry is available — call sites are API-compatible.

pub mod channel;
