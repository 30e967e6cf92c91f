//! OS-resource leak check for the network front end, isolated in its
//! own test binary so `/proc/self` counts are not polluted by other
//! tests running in the same process.

use good_core::gen::bench_scheme;
use good_core::ops::NodeAddition;
use good_core::pattern::Pattern;
use good_core::program::{Operation, Program};
use good_server::client::Client;
use good_server::net::{NetConfig, NetServer};
use good_server::{Server, ServerConfig};
use good_store::vfs::{FaultPlan, FaultVfs, Vfs};
use good_store::Store;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn count(dir: &str) -> Option<usize> {
    std::fs::read_dir(dir).ok().map(|entries| entries.count())
}

fn start_net() -> NetServer {
    let vfs: Arc<dyn Vfs> = Arc::new(FaultVfs::new(FaultPlan::reliable(5)));
    let store =
        Store::create_with_vfs(vfs, "/leak/db.journal", bench_scheme()).expect("create store");
    let server = Server::start(store, ServerConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    NetServer::start(server, listener, NetConfig::default()).expect("start")
}

fn one_cycle(net: &NetServer, label: &str, polite: bool) {
    let mut client = Client::connect(net.local_addr()).expect("connect");
    client
        .submit_wait(&Program::from_ops([Operation::NodeAdd(NodeAddition::new(
            Pattern::new(),
            label,
            [],
        ))]))
        .expect("commit");
    if polite {
        client.goodbye().expect("goodbye");
    }
}

/// Threads and file descriptors return to baseline after heavy
/// connection churn and a full server lifecycle. Skipped quietly on
/// platforms without procfs.
#[test]
fn churn_and_shutdown_leak_no_threads_or_fds() {
    let (Some(_), Some(_)) = (count("/proc/self/task"), count("/proc/self/fd")) else {
        eprintln!("skipping: /proc not available");
        return;
    };

    // Warm-up lifecycle so lazy one-time allocations (TLS, runtime
    // buffers) don't count against the churn run.
    let net = start_net();
    one_cycle(&net, "Warm", true);
    net.shutdown().expect("warm shutdown");

    let threads_before = count("/proc/self/task").unwrap();
    let fds_before = count("/proc/self/fd").unwrap();

    let net = start_net();
    for i in 0..60 {
        // Mix polite goodbyes with abrupt drops; both must reclaim.
        one_cycle(&net, &format!("Churn{i}"), i % 2 == 0);
    }
    // Shutdown returns only once it has joined every connection thread,
    // so no clock decides when the churn counts as reclaimed.
    let store = net.shutdown().expect("shutdown");
    assert_eq!(store.instance().node_count(), 60);
    drop(store);

    // Thread exit is asynchronous after join returns the handle count
    // to us; give the kernel a moment to reap.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let threads_after = count("/proc/self/task").unwrap();
        let fds_after = count("/proc/self/fd").unwrap();
        if threads_after <= threads_before && fds_after <= fds_before + 2 {
            return;
        }
        if Instant::now() >= deadline {
            panic!(
                "leak: threads {threads_before} -> {threads_after}, \
                 fds {fds_before} -> {fds_after}"
            );
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}
