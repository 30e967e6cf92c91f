//! The loopback run: `BLOCKS` rounds of closed-loop query, pipelined
//! commit and `submit_wait` blocks of fixed operation counts over TCP,
//! every reply checked against the oracle.

use crate::gen::{
    link, link_pairs, point_query, query_ops, unlink, Oracle, QueryKind, Seeded, SequenceHash,
    Shape, LINK_REPORT, UNLINK_REPORT,
};
use crate::rig::{recover, set_up, VfsCounts, PIPELINE_WINDOW};
use crate::stats::{Phase, BLOCKS};
use good_core::program::Program;
use good_server::client::{Client, ClientError, WireAck};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Set-up is repeated this often; the median is reported.
pub const SETUP_REPETITIONS: usize = 3;
/// Recovery is repeated this often; the fastest is reported.
pub const RECOVERY_REPETITIONS: usize = 3;

/// One workload: which instance, which query, and how many operations
/// one block of each phase holds when `--seconds` is `REFERENCE_SECONDS`.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as in BENCHMARK.json.
    pub name: &'static str,
    /// The served instance.
    pub shape: Shape,
    /// The query shape.
    pub query: QueryKind,
    /// `write` only: every query follows a `submit_wait(link i→j)` and
    /// must see `j`; the `unlink` follows the query.
    pub read_your_write: bool,
    /// Queries per block.
    pub query_block: usize,
    /// Pipelined commits per block.
    pub pipelined_block: usize,
    /// `submit_wait` commits per block.
    pub sync_block: usize,
}

/// `--seconds` value the block sizes below are written for.
pub const REFERENCE_SECONDS: f64 = 10.0;

/// The four workloads (README.md says why each exists). A block of
/// any kind lasts 15-50 ms at `REFERENCE_SECONDS`.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "point",
        shape: Shape::Random { infos: 10_000 },
        query: QueryKind::Point,
        read_your_write: false,
        query_block: 1_200,
        pipelined_block: 256,
        sync_block: 32,
    },
    Spec {
        name: "join",
        shape: Shape::Random { infos: 10_000 },
        query: QueryKind::Join,
        read_your_write: false,
        query_block: 10,
        pipelined_block: 256,
        sync_block: 32,
    },
    Spec {
        name: "closure",
        shape: Shape::Rings { infos: 200 },
        query: QueryKind::Closure,
        read_your_write: false,
        query_block: 1,
        pipelined_block: 256,
        sync_block: 32,
    },
    Spec {
        name: "write",
        shape: Shape::Random { infos: 10_000 },
        query: QueryKind::Point,
        read_your_write: true,
        query_block: 24,
        pipelined_block: 320,
        sync_block: 32,
    },
];

impl Spec {
    /// Look a workload up by name.
    pub fn by_name(name: &str) -> Option<Spec> {
        WORKLOADS.into_iter().find(|spec| spec.name == name)
    }

    /// Scale every block by one constant (never below one operation;
    /// commit blocks stay even so each holds whole link/unlink pairs).
    pub fn scaled(mut self, scale: f64) -> Spec {
        let scale_ops = |ops: usize| ((ops as f64 * scale).round() as usize).max(1);
        let even = |ops: usize| ops.div_ceil(2) * 2;
        self.query_block = scale_ops(self.query_block);
        self.pipelined_block = even(scale_ops(self.pipelined_block));
        self.sync_block = even(scale_ops(self.sync_block));
        self
    }
}

/// Everything one untraced run measured.
pub struct Measured {
    /// The block sizes actually run.
    pub spec: Spec,
    /// Seconds of each full set-up repetition.
    pub setup_secs: Vec<f64>,
    /// Seconds `Store::open_with_vfs` took on the seed-only journal.
    pub open_seed_s: f64,
    /// Closed-loop query phase.
    pub queries: Phase,
    /// Pipelined commit phase.
    pub pipelined: Phase,
    /// One-commit-per-round-trip phase.
    pub sync: Phase,
    /// Seconds of each reopen of the journal the run produced.
    pub recovery_secs: Vec<f64>,
    /// Records in that journal.
    pub journal_records: usize,
    /// Journal growth over the seed record, bytes.
    pub journal_growth: u64,
    /// Commits the server acked with a commit sequence number.
    pub acked_commits: u64,
    /// Filesystem calls the store made for those commits.
    pub vfs: VfsCounts,
    /// Duration of every fsync, ns (empty unless fsyncs were timed).
    pub fsync_ns: Vec<u64>,
    /// Operations sent (queries + commits, warm-up blocks included).
    pub attempted: u64,
    /// Operations whose reply failed its check, or errored.
    pub failed: u64,
    /// FNV-1a over every request sent, in order.
    pub sequence_hash: u64,
    /// Nodes, edges, approximate bytes of the served instance.
    pub instance: (usize, usize, usize),
    /// `VmHWM` of the process when the server had shut down, MiB.
    pub peak_rss_mib: f64,
}

struct Driver<'a> {
    client: &'a mut Client,
    attempted: u64,
    failed: u64,
    acked: u64,
    hash: SequenceHash,
}

/// One commit of the stationary mix: a `link`, or the `unlink` of the
/// same pair.
struct Commit {
    is_link: bool,
    pair: (usize, usize),
    program: Program,
}

impl Commit {
    fn new(is_link: bool, pair: (usize, usize)) -> Commit {
        let program = if is_link {
            link(pair.0, pair.1)
        } else {
            unlink(pair.0, pair.1)
        };
        Commit {
            is_link,
            pair,
            program,
        }
    }

    /// The report string a correct server acks this commit with.
    fn report(&self) -> &'static str {
        if self.is_link {
            LINK_REPORT
        } else {
            UNLINK_REPORT
        }
    }
}

/// `link`, `unlink` of each pair in turn.
fn commit_mix(pairs: &[(usize, usize)]) -> Vec<Commit> {
    pairs
        .iter()
        .flat_map(|&pair| [Commit::new(true, pair), Commit::new(false, pair)])
        .collect()
}

impl Driver<'_> {
    fn note_commit(&mut self, commit: &Commit) {
        self.attempted += 1;
        self.hash.update(&[u8::from(commit.is_link)]);
        self.hash.update(&(commit.pair.0 as u64).to_le_bytes());
        self.hash.update(&(commit.pair.1 as u64).to_le_bytes());
    }

    fn check_ack(&mut self, ack: Result<WireAck, ClientError>, expected: &str) {
        match ack {
            Ok(ack) if ack.commit_seq.is_some() && ack.outcome.as_deref() == Ok(expected) => {
                self.acked += 1;
            }
            Ok(ack) => {
                self.failed += 1;
                eprintln!("e2e: bad ack {ack:?}, expected `{expected}`");
            }
            Err(err) => {
                self.failed += 1;
                eprintln!("e2e: commit failed: {err}");
            }
        }
    }

    /// One timed query; returns its round-trip latency in µs.
    fn query(&mut self, text: &str, expected: &[Vec<String>]) -> f64 {
        self.attempted += 1;
        self.hash.update(text.as_bytes());
        let started = Instant::now();
        let reply = self.client.query(text, None);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        match reply {
            Ok((_, _, rows)) if rows == expected => {}
            Ok((_, _, rows)) => {
                self.failed += 1;
                eprintln!(
                    "e2e: wrong reply to `{text}`: {} row(s), expected {}",
                    rows.len(),
                    expected.len()
                );
            }
            Err(err) => {
                self.failed += 1;
                eprintln!("e2e: query failed: {err}");
            }
        }
        micros
    }

    /// One `submit_wait`; returns its round-trip latency in µs.
    fn commit(&mut self, commit: &Commit) -> f64 {
        self.note_commit(commit);
        let started = Instant::now();
        let ack = self.client.submit_wait(&commit.program);
        let micros = started.elapsed().as_secs_f64() * 1e6;
        self.check_ack(ack, commit.report());
        micros
    }

    /// `write`'s query: commit a link, read it back, undo it. Only the
    /// query is timed.
    fn read_your_write(&mut self, seeded: &Seeded, pair: (usize, usize)) -> f64 {
        self.commit(&Commit::new(true, pair));
        let expected = seeded.point_rows(pair.0, Some(pair.1));
        let micros = self.query(&point_query(pair.0), &expected);
        self.commit(&Commit::new(false, pair));
        micros
    }

    /// Pipelined commits: at most `PIPELINE_WINDOW` submits in flight,
    /// drained before returning.
    fn pipelined(&mut self, commits: &[Commit]) {
        let mut in_flight: VecDeque<(u64, &'static str)> = VecDeque::new();
        let mut unsent = commits.iter();
        loop {
            while in_flight.len() < PIPELINE_WINDOW {
                let Some(commit) = unsent.next() else { break };
                self.note_commit(commit);
                match self.client.submit(&commit.program) {
                    Ok(request) => in_flight.push_back((request, commit.report())),
                    Err(err) => {
                        self.failed += 1;
                        eprintln!("e2e: submit failed: {err}");
                    }
                }
            }
            let Some((request, report)) = in_flight.pop_front() else {
                return;
            };
            let ack = self.client.wait_ack(request);
            self.check_ack(ack, report);
        }
    }
}

/// Run `spec` from `seed` in `dir`: repeated set-up, `BLOCKS` rounds of
/// one query block, one pipelined block and one sync block each,
/// drain-shutdown, repeated recovery.
///
/// The three kinds of block alternate instead of running as three
/// consecutive phases so that each metric's hundred blocks are spread
/// over the whole run: the sandbox's slow spells last from a fraction
/// of a second to a few seconds, and a phase of two seconds could sit
/// wholly inside or outside one.
pub fn run(spec: Spec, seed: u64, dir: &Path, time_fsyncs: bool) -> io::Result<Measured> {
    let mut setup_secs = Vec::with_capacity(SETUP_REPETITIONS);
    let mut timed_set_up = || {
        let started = Instant::now();
        let rig = set_up(dir, spec.shape, seed);
        setup_secs.push(started.elapsed().as_secs_f64());
        rig
    };
    // The last repetition's system is the one measured.
    let mut rig = timed_set_up()?;
    for _ in 1..SETUP_REPETITIONS {
        rig.shut_down()?;
        rig = timed_set_up()?;
    }
    if time_fsyncs {
        rig.counters.time_fsyncs();
    }
    let oracle = Oracle::new(spec.query, &rig.seeded);
    let instance = {
        let db = &rig.seeded.instance;
        (db.node_count(), db.edge_count(), db.approx_bytes())
    };

    // The request sequence is a function of the seed alone.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let infos = spec.shape.infos();
    let query_count = spec.query_block * BLOCKS;
    let (plain, ryw_pairs) = if spec.read_your_write {
        (Vec::new(), link_pairs(&rig.seeded, query_count, &mut rng))
    } else {
        (
            query_ops(spec.query, infos, query_count, &mut rng),
            Vec::new(),
        )
    };
    let pairs_per_round = (spec.pipelined_block + spec.sync_block) / 2;
    let pairs = link_pairs(&rig.seeded, pairs_per_round * BLOCKS, &mut rng);

    let mut driver = Driver {
        client: &mut rig.client,
        attempted: 0,
        failed: 0,
        acked: 0,
        hash: SequenceHash::default(),
    };
    let mut queries = Phase::new(spec.query_block);
    let mut pipelined = Phase::new(spec.pipelined_block);
    let mut sync = Phase::new(spec.sync_block);
    let vfs_before = rig.counters.counts();
    for round in 0..BLOCKS {
        let commits = commit_mix(&pairs[round * pairs_per_round..][..pairs_per_round]);
        let (pipelined_commits, sync_commits) = commits.split_at(spec.pipelined_block);

        let started = Instant::now();
        let samples: Vec<f64> = (round * spec.query_block..(round + 1) * spec.query_block)
            .map(|index| {
                if spec.read_your_write {
                    driver.read_your_write(&rig.seeded, ryw_pairs[index])
                } else {
                    let op = &plain[index];
                    driver.query(&op.text, oracle.rows(op))
                }
            })
            .collect();
        // A read-your-write block is mostly commits; its query rate
        // counts only the time spent in the queries.
        let secs = if spec.read_your_write {
            samples.iter().sum::<f64>() / 1e6
        } else {
            started.elapsed().as_secs_f64()
        };
        queries.push(secs, samples);

        let started = Instant::now();
        driver.pipelined(pipelined_commits);
        pipelined.push(started.elapsed().as_secs_f64(), Vec::new());

        let started = Instant::now();
        let samples = sync_commits
            .iter()
            .map(|commit| driver.commit(commit))
            .collect();
        sync.push(started.elapsed().as_secs_f64(), samples);
    }
    let Driver {
        attempted,
        mut failed,
        acked,
        hash,
        ..
    } = driver;
    let vfs_after = rig.counters.counts();

    // The server's final snapshot must be what recovery rebuilds, and
    // (the mix being stationary) what the run started from.
    let served = rig.client.snapshot(None, false).map_err(io::Error::other)?;
    let fsync_ns = rig.counters.take_fsync_ns();
    let journal = rig.journal.clone();
    let seed_bytes = rig.seed_bytes;
    let open_seed_s = rig.open_seed_s;
    let (_, journal_bytes) = rig.shut_down()?;
    // Read before the recovery repetitions: they parse the whole
    // journal in memory, and how high that pushes the mark depends on
    // how fragmented the heap happens to be by then.
    let peak_rss_mib = crate::report::peak_rss_mib();
    let mut recovery_secs = Vec::with_capacity(RECOVERY_REPETITIONS);
    let mut journal_records = 0;
    for _ in 0..RECOVERY_REPETITIONS {
        let (secs, nodes, edges, records) = recover(&journal)?;
        recovery_secs.push(secs);
        journal_records = records;
        if (nodes as u64, edges as u64) != (served.nodes, served.edges) {
            failed += 1;
            eprintln!(
                "e2e: recovery rebuilt {nodes} nodes / {edges} edges, server had {} / {}",
                served.nodes, served.edges
            );
        }
    }
    if (served.nodes, served.edges) != (instance.0 as u64, instance.1 as u64) {
        failed += 1;
        eprintln!("e2e: the commit mix did not restore the instance");
    }
    std::fs::remove_file(&journal)?;

    Ok(Measured {
        spec,
        setup_secs,
        open_seed_s,
        queries,
        pipelined,
        sync,
        recovery_secs,
        journal_records,
        journal_growth: journal_bytes - seed_bytes,
        acked_commits: acked,
        vfs: VfsCounts {
            appends: vfs_after.appends - vfs_before.appends,
            bytes: vfs_after.bytes - vfs_before.bytes,
            fsyncs: vfs_after.fsyncs - vfs_before.fsyncs,
        },
        fsync_ns,
        attempted,
        failed,
        sequence_hash: hash.0,
        instance,
        peak_rss_mib,
    })
}
