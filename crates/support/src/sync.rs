//! Poison-free wrappers over `std::sync` locks with the parking_lot
//! calling convention (`lock()` returns the guard directly).
//!
//! A simulation process that panics inside a kernel primitive unwinds
//! while holding the kernel lock, and the kernel re-raises that panic
//! on the driver thread, so a poisoned std mutex would only ever signal
//! a panic that is already being propagated elsewhere; unwrapping the
//! poison error is therefore safe and keeps every call site free of
//! `unwrap()` noise (which the `xtask` lint bans in library code).

use std::fmt;
use std::sync::MutexGuard;

/// A mutual-exclusion lock that ignores poisoning.
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a lock holding `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.0.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available. Recovers the guard
    /// from a poisoned lock (see the module docs for why that is sound
    /// here).
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        match self.0.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn guards_concurrent_increments() {
        let m = Arc::new(Mutex::new(0u32));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    for _ in 0..100 {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), 800);
    }

    #[test]
    fn survives_poisoning() {
        let m = Arc::new(Mutex::new(5u32));
        let m2 = Arc::clone(&m);
        let _ = thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison it");
        })
        .join();
        assert_eq!(*m.lock(), 5, "lock still usable after a panic");
    }

    #[test]
    fn into_inner_and_get_mut() {
        let mut m = Mutex::new(3);
        *m.get_mut() += 1;
        assert_eq!(m.into_inner(), 4);
    }
}
