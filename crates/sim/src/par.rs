//! The one fan-out: ordered, panic-isolated parallel evaluation.
//!
//! Every parallel site in the workspace runs through [`fan_out`]: the
//! engine's top-rank shards, a cascade's independent Einsum waves, the
//! mapper's loop-order candidates and `teaal batch` requests. Each site
//! chooses only how many workers it wants (`cap`) and, optionally, when
//! to stop early; worker start-up, index claiming, panic capture and
//! result ordering live here once.
//!
//! Panics are isolated per item with [`catch`]: a panicking item comes
//! back as that item's `Err(message)` and the other items are
//! unaffected, so a caller decides per site whether a panic degrades,
//! skips or fails.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f`, returning its value, or the panic's message if it panics.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| panic_message(&*p))
}

/// Renders a panic payload as text: panics carry `&str` or `String`
/// messages in practice; anything else gets a placeholder.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Spawned fan-out workers alive now, and the most alive at once.
static SPAWNED: AtomicUsize = AtomicUsize::new(0);
static PEAK_SPAWNED: AtomicUsize = AtomicUsize::new(0);

/// The most worker threads [`fan_out`] has had running at once in this
/// process, across every (nested) fan-out. The caller of a fan-out is one
/// of its workers, so a process whose fan-outs share `n` threads never
/// has more than `n - 1` spawned.
pub fn peak_spawned_workers() -> usize {
    PEAK_SPAWNED.load(Ordering::Relaxed)
}

/// Runs `work(i)` for `i in 0..n` on at most `cap` workers and returns
/// the results in index order, each item's panic caught as its
/// `Err(message)`.
///
/// The caller's thread is one of the workers; the other `cap − 1` are
/// scoped threads. Workers claim indices in order from a shared counter
/// (work stealing, no static chunking, so one slow item never idles the
/// others). With `cap <= 1` (or `n <= 1`) the items run inline on the
/// caller's thread and nothing is spawned.
///
/// `stop` sees the results in index order, over the contiguous
/// completed prefix only. Once it returns `true` no further index is
/// claimed, and the returned vector ends at the item that stopped it.
///
/// Deterministic for any `cap`: the predicate observes exactly the
/// sequence a sequential walk would produce, so the stopping point —
/// and therefore the returned prefix — is the sequential one. Items
/// claimed past that point still finish, but their results are
/// discarded, never observed. Without an early stop every item runs
/// and the vector has `n` entries.
pub fn fan_out<T: Send>(
    n: usize,
    cap: usize,
    work: impl Fn(usize) -> T + Sync,
    mut stop: impl FnMut(&Result<T, String>) -> bool + Send,
) -> Vec<Result<T, String>> {
    let workers = cap.min(n);
    if workers <= 1 {
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let result = catch(|| work(i));
            let done = stop(&result);
            out.push(result);
            if done {
                break;
            }
        }
        return out;
    }

    /// Results so far, and the length of their contiguous prefix the
    /// predicate has seen.
    struct Prefix<T, S> {
        slots: Vec<Option<Result<T, String>>>,
        seen: usize,
        stop: S,
    }
    let prefix = Mutex::new(Prefix {
        slots: (0..n).map(|_| None).collect(),
        seen: 0,
        stop,
    });
    let next = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let worker = || loop {
        if stopped.load(Ordering::Relaxed) {
            break;
        }
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let result = catch(|| work(i));
        let mut guard = prefix.lock().expect("fan-out prefix poisoned");
        let p = &mut *guard;
        p.slots[i] = Some(result);
        while !stopped.load(Ordering::Relaxed) && p.seen < n {
            let Some(done) = &p.slots[p.seen] else {
                break;
            };
            p.seen += 1;
            if (p.stop)(done) {
                stopped.store(true, Ordering::Relaxed);
            }
        }
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(|| {
                let live = SPAWNED.fetch_add(1, Ordering::Relaxed) + 1;
                PEAK_SPAWNED.fetch_max(live, Ordering::Relaxed);
                worker();
                SPAWNED.fetch_sub(1, Ordering::Relaxed);
            });
        }
        worker();
    });
    let p = prefix.into_inner().expect("fan-out prefix poisoned");
    p.slots
        .into_iter()
        .take(p.seen)
        .map(|r| r.expect("the seen prefix is complete"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        for cap in [1, 2, 4, 16] {
            let out = fan_out(20, cap, |i| i * i, |_| false);
            let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
            assert_eq!(
                values,
                (0..20).map(|i| i * i).collect::<Vec<_>>(),
                "cap {cap}"
            );
        }
    }

    #[test]
    fn a_panic_becomes_that_items_error_only() {
        for cap in [1, 3] {
            let out = fan_out(
                6,
                cap,
                |i| {
                    assert!(i != 4, "item {i} exploded");
                    i
                },
                |_| false,
            );
            assert_eq!(out.len(), 6);
            for (i, r) in out.iter().enumerate() {
                match r {
                    Ok(v) => assert_eq!(*v, i),
                    Err(m) => {
                        assert_eq!(i, 4, "cap {cap}");
                        assert!(m.contains("item 4 exploded"), "{m}");
                    }
                }
            }
            assert!(out[4].is_err());
        }
    }

    #[test]
    fn early_stop_returns_the_same_prefix_for_any_cap() {
        // Stop once three multiples of 3 have been seen: the sequential
        // stopping point is index 6 (0, 3, 6).
        let expected: Vec<usize> = (0..=6).collect();
        for cap in 1..=4 {
            let claimed = AtomicUsize::new(0);
            let mut hits = 0;
            let out = fan_out(
                40,
                cap,
                |i| {
                    claimed.fetch_add(1, Ordering::Relaxed);
                    // Later items finish first, so completion order
                    // differs from index order.
                    std::thread::sleep(std::time::Duration::from_millis((8 - i as u64 % 8) * 2));
                    i
                },
                |r| {
                    if matches!(r, Ok(v) if v % 3 == 0) {
                        hits += 1;
                    }
                    hits >= 3
                },
            );
            let values: Vec<usize> = out.into_iter().map(Result::unwrap).collect();
            assert_eq!(values, expected, "cap {cap}");
            assert!(
                claimed.load(Ordering::Relaxed) < 40,
                "cap {cap}: the stop must end claiming"
            );
        }
    }

    #[test]
    fn cap_one_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let out = fan_out(5, 1, |_| std::thread::current().id(), |_| false);
        assert!(out.into_iter().all(|id| id.unwrap() == caller));
        // A cap of 2 is the caller plus one spawned worker: two items
        // that wait for each other run on exactly those two threads.
        let both = std::sync::Barrier::new(2);
        let work = |_| {
            both.wait();
            std::thread::current().id()
        };
        let ids: Vec<_> = fan_out(2, 2, work, |_| false)
            .into_iter()
            .map(Result::unwrap)
            .collect();
        assert!(ids.contains(&caller) && ids[0] != ids[1], "{ids:?}");
    }

    #[test]
    fn catch_renders_string_and_str_payloads() {
        assert_eq!(catch(|| 7), Ok(7));
        assert_eq!(catch(|| panic!("plain")), Err::<(), _>("plain".into()));
        let n = 3;
        assert_eq!(
            catch(|| panic!("formatted {n}")),
            Err::<(), _>("formatted 3".into())
        );
        assert_eq!(
            catch(|| std::panic::panic_any(5u8)),
            Err::<(), _>("non-string panic payload".into())
        );
    }
}
