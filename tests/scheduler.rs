//! The pool's scheduling contract, seen through the parallel-iterator API:
//! indices are claimed on demand, so one long item never holds back the
//! others, and a panicking item costs the region nothing but that item.
//!
//! Both tests need a second thread: on a single-CPU host a region runs
//! inline, in index order, and they return early.

use rayon::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

#[test]
fn a_long_item_does_not_hold_back_the_others() {
    if rayon::current_num_threads() == 1 {
        return;
    }
    // Item 0 does not finish until the other nine have run. A schedule that
    // binds any of them to item 0's thread in advance can never finish.
    let items: Vec<usize> = (0..10).collect();
    let others_run = AtomicUsize::new(0);
    let timed_out = AtomicBool::new(false);
    let deadline = Instant::now() + Duration::from_secs(10);
    items.par_iter().for_each(|&i| {
        if i != 0 {
            others_run.fetch_add(1, Ordering::SeqCst);
            return;
        }
        while others_run.load(Ordering::SeqCst) < 9 {
            if Instant::now() > deadline {
                timed_out.store(true, Ordering::SeqCst);
                return;
            }
            std::thread::yield_now();
        }
    });
    assert!(
        !timed_out.load(Ordering::SeqCst),
        "items were still waiting behind item 0 after 10 s"
    );
}

#[test]
fn a_panicking_item_fails_the_region_once_and_loses_no_other_item() {
    if rayon::current_num_threads() == 1 {
        return;
    }
    let hits: Vec<AtomicUsize> = (0..10).map(|_| AtomicUsize::new(0)).collect();
    let items: Vec<usize> = (0..10).collect();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        items.par_iter().for_each(|&i| {
            if i == 3 {
                panic!("item 3 fails");
            }
            hits[i].fetch_add(1, Ordering::SeqCst);
        })
    }));
    assert!(outcome.is_err(), "the region must re-raise the panic");
    for (i, h) in hits.iter().enumerate() {
        assert_eq!(h.load(Ordering::SeqCst), usize::from(i != 3), "item {i}");
    }
}
