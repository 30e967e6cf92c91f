//! The system under test, assembled from outside: a counting `Vfs`
//! over real files, a `Store` opened from a seeded one-record journal,
//! `Server`, `NetServer` on loopback, and one `Client`.

use crate::gen::{build_instance, Seeded, Shape};
use good_server::client::Client;
use good_server::net::{NetConfig, NetServer};
use good_server::{Server, ServerConfig};
use good_store::vfs::{StdVfs, Vfs, VfsFile};
use good_store::{LogRecord, Store};
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Server settings, written as literals so that a change to a program
/// default cannot silently change the benchmark.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        queue_capacity: 4096,
        max_batch: 32,
        retain_versions: 64,
        ..ServerConfig::default() // slow-log thresholds: the program's own
    }
}

/// Network settings: one session may hold 64 submits in flight; the
/// pipelined phase keeps at most `PIPELINE_WINDOW` of them.
pub fn net_config() -> NetConfig {
    NetConfig {
        session_inflight: 64,
        ..NetConfig::default()
    }
}

/// Submits kept in flight by the pipelined commit phase.
pub const PIPELINE_WINDOW: usize = 48;

/// What the store asked of the filesystem. Counts are always kept;
/// fsyncs are timed only when `timed` is set (the traced run).
#[derive(Default)]
pub struct VfsCounters {
    /// `append` calls.
    pub appends: AtomicU64,
    /// Bytes appended.
    pub bytes: AtomicU64,
    /// `sync_data` + `sync_all` calls on files.
    pub fsyncs: AtomicU64,
    timed: AtomicBool,
    fsync_ns: Mutex<Vec<u64>>,
}

/// A snapshot of `VfsCounters`, for per-phase differences.
#[derive(Debug, Clone, Copy, Default)]
pub struct VfsCounts {
    /// `append` calls.
    pub appends: u64,
    /// Bytes appended.
    pub bytes: u64,
    /// File fsyncs.
    pub fsyncs: u64,
}

impl VfsCounters {
    /// Current totals.
    pub fn counts(&self) -> VfsCounts {
        VfsCounts {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
        }
    }

    /// Start timing every fsync (traced runs only).
    pub fn time_fsyncs(&self) {
        self.timed.store(true, Ordering::Relaxed);
    }

    /// Drain the fsync durations (ns) recorded so far.
    pub fn take_fsync_ns(&self) -> Vec<u64> {
        std::mem::take(&mut self.fsync_ns.lock().expect("fsync samples"))
    }

    fn sync(&self, sync: impl FnOnce() -> io::Result<()>) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        if !self.timed.load(Ordering::Relaxed) {
            return sync();
        }
        let started = Instant::now();
        let result = sync();
        let nanos = started.elapsed().as_nanos() as u64;
        self.fsync_ns.lock().expect("fsync samples").push(nanos);
        result
    }
}

/// `StdVfs` with every file operation counted.
pub struct CountingVfs {
    /// Shared with every file this `Vfs` opens.
    pub counters: Arc<VfsCounters>,
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<VfsCounters>,
}

impl VfsFile for CountingFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.counters.appends.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.inner.append(data)
    }
    fn sync_data(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.counters.sync(|| inner.sync_data())
    }
    fn sync_all(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.counters.sync(|| inner.sync_all())
    }
}

impl CountingVfs {
    fn wrap(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: file?,
            counters: Arc::clone(&self.counters),
        }))
    }
}

impl Vfs for CountingVfs {
    fn create_new(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(StdVfs.create_new(path))
    }
    fn create_truncate(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(StdVfs.create_truncate(path))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(StdVfs.open_append(path))
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        StdVfs.truncate(path, len)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        StdVfs.sync_parent_dir(path)
    }
}

/// Write `instance` as a one-record journal at `path`, durably. The
/// only format assumption the benchmark makes: one JSON record per
/// line, a `LogRecord::Snapshot` first.
pub fn write_seed_journal(vfs: &dyn Vfs, path: &Path, seeded: &Seeded) -> io::Result<u64> {
    let record = LogRecord::Snapshot(Box::new(seeded.instance.clone()));
    let mut line = serde_json::to_string(&record).map_err(io::Error::other)?;
    line.push('\n');
    let mut file = vfs.create_truncate(path)?;
    file.append(line.as_bytes())?;
    file.sync_all()?;
    vfs.sync_parent_dir(path)?;
    Ok(line.len() as u64)
}

/// A running system: loopback server, one connected client, and the
/// generator's record of what it serves.
pub struct Rig {
    /// The TCP front end (owns the `Server` and the `Store`).
    pub net: NetServer,
    /// The single client connection every workload uses.
    pub client: Client,
    /// The generator's record of the served instance.
    pub seeded: Seeded,
    /// The journal file.
    pub journal: PathBuf,
    /// Size of the seed record, bytes.
    pub seed_bytes: u64,
    /// Filesystem counters of the store's `Vfs`.
    pub counters: Arc<VfsCounters>,
    /// Seconds `Store::open_with_vfs` took on the seed-only journal.
    pub open_seed_s: f64,
}

/// Build the instance, seed the journal, open the store, start the
/// servers and connect: one full set-up, timed by the caller.
pub fn set_up(dir: &Path, shape: Shape, seed: u64) -> io::Result<Rig> {
    std::fs::create_dir_all(dir)?;
    let seeded = build_instance(shape, seed);
    let counters = Arc::new(VfsCounters::default());
    let vfs: Arc<dyn Vfs> = Arc::new(CountingVfs {
        counters: Arc::clone(&counters),
    });
    let journal = dir.join("db.journal");
    let seed_bytes = write_seed_journal(vfs.as_ref(), &journal, &seeded)?;
    let open_started = Instant::now();
    let store = Store::open_with_vfs(Arc::clone(&vfs), &journal).map_err(io::Error::other)?;
    let open_seed_s = open_started.elapsed().as_secs_f64();
    let server = Server::start(store, server_config());
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let net = NetServer::start(server, listener, net_config())?;
    let client = Client::connect(net.local_addr()).map_err(io::Error::other)?;
    Ok(Rig {
        net,
        client,
        seeded,
        journal,
        seed_bytes,
        counters,
        open_seed_s,
    })
}

impl Rig {
    /// Say goodbye, drain the server and drop the store. Returns the
    /// generator's record and the journal's final size in bytes.
    pub fn shut_down(self) -> io::Result<(Seeded, u64)> {
        self.client.goodbye().map_err(io::Error::other)?;
        let store = self.net.shutdown().map_err(io::Error::other)?;
        drop(store);
        Ok((self.seeded, std::fs::metadata(&self.journal)?.len()))
    }
}

/// Reopen the journal a run produced: seconds taken, and the node and
/// edge counts and record count of the recovered store.
pub fn recover(journal: &Path) -> io::Result<(f64, usize, usize, usize)> {
    let started = Instant::now();
    let store = Store::open_with_vfs(Arc::new(StdVfs), journal).map_err(io::Error::other)?;
    let secs = started.elapsed().as_secs_f64();
    let instance = store.instance();
    Ok((
        secs,
        instance.node_count(),
        instance.edge_count(),
        store.record_count(),
    ))
}
