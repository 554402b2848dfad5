//! # ultravc-sync — synchronization facade with a model-checking mode
//!
//! Every concurrent crate in the workspace imports its sync primitives from
//! here instead of `std::sync`. The crate has two personalities:
//!
//! * **std path (default):** pure re-exports of `std::sync` and
//!   `std::thread`. Zero cost, zero behavior change — the types *are* the
//!   std types, pinned by the workspace's bitwise-identity suites.
//! * **model path (`--features model`):** the same API surface backed by
//!   instrumented primitives driven by a deterministic cooperative
//!   scheduler (`model::Explorer`). Every lock, condvar operation,
//!   atomic access, spawn, and join becomes a scheduling point; the
//!   explorer enumerates thread interleavings (bounded-exhaustive DFS with
//!   a preemption bound, then seeded random sampling), detecting
//!   deadlocks, lost wakeups, stalls, and leaked threads, and printing a
//!   replayable schedule trace on failure.
//!
//! Even on the model path, code that runs *outside* an active exploration
//! (ordinary tests, binaries) transparently delegates to `std`: the
//! instrumented types only intercept operations on threads registered
//! with a running `model::Explorer`.
//!
//! ## Facade usage rules
//!
//! * Import `Mutex`/`Condvar`/`RwLock`/`OnceLock` and the `atomic` module
//!   from `ultravc_sync`, never from `std::sync`. `Arc`, `mpsc`, and the
//!   poison types stay std on both paths (re-exported here for one-stop
//!   imports).
//! * Spawn long-lived workers with `ultravc_sync::thread::spawn`.
//!   Scoped threads (`std::thread::scope`) borrow stack data and cannot be
//!   modeled; code that needs them (e.g. `parfor::team`) keeps using std
//!   directly and is exercised by the model suite through its lock-free
//!   protocol objects instead.
//! * Don't block a model thread on anything the scheduler can't see
//!   (channel `recv`, real I/O, real sleeps) inside a model test.

#![forbid(unsafe_code)]

#[cfg(feature = "model")]
pub mod model;

// ---------------------------------------------------------------------------
// std path: pure re-exports.
// ---------------------------------------------------------------------------

#[cfg(not(feature = "model"))]
pub use std::sync::{
    atomic, mpsc, Arc, Barrier, Condvar, LockResult, Mutex, MutexGuard, OnceLock, PoisonError,
    RwLock, RwLockReadGuard, RwLockWriteGuard, TryLockError, TryLockResult, WaitTimeoutResult,
    Weak,
};

/// Thread spawning and management (std path: re-export of `std::thread`).
#[cfg(not(feature = "model"))]
pub mod thread {
    pub use std::thread::*;
}

// ---------------------------------------------------------------------------
// model path: instrumented primitives + std types that stay uninstrumented.
// ---------------------------------------------------------------------------

#[cfg(feature = "model")]
pub use std::sync::{
    mpsc, Arc, Barrier, LockResult, PoisonError, TryLockError, TryLockResult, Weak,
};

#[cfg(feature = "model")]
pub use model::prims::{
    Condvar, Mutex, MutexGuard, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};

/// Atomic types (model path: instrumented, sequentially consistent).
#[cfg(feature = "model")]
pub mod atomic {
    pub use crate::model::prims::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize};
    pub use std::sync::atomic::Ordering;
}

/// Thread spawning and management (model path: instrumented spawn/join).
#[cfg(feature = "model")]
pub mod thread {
    pub use crate::model::prims::{sleep, spawn, yield_now, Builder, JoinHandle};
    // Scoped threads and introspection helpers stay std: they are only used
    // on paths that the model suite does not drive (see crate docs).
    pub use std::thread::{available_parallelism, scope, Scope, ScopedJoinHandle};
}
