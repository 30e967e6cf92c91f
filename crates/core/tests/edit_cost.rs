//! Edit-cost guard: one edge insert on a clone that shares structure
//! with a live snapshot pays for the slots it touches, not for the
//! arena leaves around them. The instance has `e2e`'s shape — 10 000
//! `Info`s, each with a name, a date and two `links-to` — over
//! `bench_scheme`. Its own test binary: it counts every allocation of
//! the process.

use good_core::gen::bench_scheme;
use good_core::instance::Instance;
use good_core::value::Value;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, whose contract
// the caller already upholds; the counter is the only addition.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_shared_edge_insert_allocates_for_its_delta() {
    const INFOS: usize = 10_000;
    let mut db = Instance::new(bench_scheme());
    let infos: Vec<_> = (0..INFOS)
        .map(|k| {
            let info = db.add_object("Info").expect("Info in scheme");
            let name = db
                .add_printable("String", format!("info-{k}"))
                .expect("String in scheme");
            db.add_edge(info, "name", name).expect("name edge");
            let date = db
                .add_printable("Date", Value::date(1990, 1, (k % 16) as u8 + 1))
                .expect("Date in scheme");
            db.add_edge(info, "created", date).expect("created edge");
            info
        })
        .collect();
    for k in 0..INFOS {
        for step in [1, 7] {
            db.add_edge(infos[k], "links-to", infos[(k + step) % INFOS])
                .expect("links-to edge");
        }
    }
    // `db` stays live as the published snapshot the clone shares with.
    let mut next = db.clone();
    let before = ALLOCATIONS.load(Relaxed);
    next.add_edge(infos[1_234], "links-to", infos[5_678])
        .expect("new link");
    let allocations = ALLOCATIONS.load(Relaxed) - before;
    // 286 → 98 → 62 → 39: incidence lists shared, planner figures read
    // off the postings, then no edge arena or incidence lists (they took
    // 23). All 39 are the adjacency index's, the one edge store: per side,
    // two label-keyed tables and the path copies of the postings map and
    // of the one postings set the edge joins.
    assert!(
        allocations <= 39,
        "one shared insert made {allocations} allocations"
    );
    assert_eq!(next.edge_count(), db.edge_count() + 1);
}
