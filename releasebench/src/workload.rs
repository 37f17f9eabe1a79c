//! The workloads: what each one sends, and the request list a seed fixes.
//!
//! Every workload replays a request list that is a pure function of the
//! run seed: request `i` of connection `c` always names the same record,
//! analyst and per-request `seed`, so two runs with one seed serve the same
//! releases and must return the same contexts. The dataset and the pool of
//! outlier records are fixed per workload; the seed chooses the rotation
//! through the pool and the mechanism's randomness, not how hard the
//! records are.

use pcor_core::runner::find_random_outliers;
use pcor_data::generator::{salary_dataset, SalaryConfig};
use pcor_data::Dataset;
use pcor_outlier::DetectorKind;
use pcor_service::{BatchItem, BatchReleaseRequest, ReleaseRequest, RequestEnvelope};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// The detector every request verifies contexts with.
pub const DETECTOR: DetectorKind = DetectorKind::ZScore;
/// ε of every release (and of every batch item).
pub const EPSILON: f64 = 0.2;
/// Server pool workers: one per core of the 2-core box the bounds were
/// set on, so no workload runs more releases at once than there are cores.
pub const WORKERS: usize = 2;
/// Name the dataset is registered under.
pub const DATASET: &str = "salary";
/// Seed of the outlier search that fixes each workload's record pool.
const POOL_SEED: u64 = 0x0051_EED0_0071;
/// Candidates the outlier search may examine before giving up.
const POOL_CANDIDATES: usize = 4_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2 connections × single BFS releases (n = 50) on 8k records,
    /// in-memory ledger: the search dominates.
    SearchHot,
    /// 1 connection × single BFS releases (n = 5) on 700 records through a
    /// WAL-backed ledger: the fixed per-request path dominates.
    DurableCheap,
    /// 1 connection × v2 batches of 16 items (n = 20) streamed back per
    /// item: the streaming path and shared-session amortization.
    BatchStream,
}

impl Workload {
    /// Parses a workload name as given on the command line.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "search_hot" => Some(Workload::SearchHot),
            "durable_cheap" => Some(Workload::DurableCheap),
            "batch_stream" => Some(Workload::BatchStream),
            _ => None,
        }
    }

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchHot => "search_hot",
            Workload::DurableCheap => "durable_cheap",
            Workload::BatchStream => "batch_stream",
        }
    }

    /// The workload's fixed shape.
    pub fn spec(self) -> Spec {
        match self {
            Workload::SearchHot => Spec {
                workload: self,
                connections: 2,
                durable: false,
                records: 8_000,
                samples: 50,
                batch_items: 0,
                pool: 4,
                analysts: 1,
                quota_per_s: 120.0,
            },
            Workload::DurableCheap => Spec {
                workload: self,
                connections: 1,
                durable: true,
                records: 700,
                samples: 5,
                batch_items: 0,
                pool: 4,
                analysts: 16,
                quota_per_s: 800.0,
            },
            Workload::BatchStream => Spec {
                workload: self,
                connections: 1,
                durable: false,
                records: 8_000,
                samples: 20,
                batch_items: 16,
                pool: 8,
                analysts: 1,
                quota_per_s: 25.0,
            },
        }
    }
}

/// The fixed shape of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// Closed-loop client connections (one envelope in flight on each).
    pub connections: usize,
    /// Whether the ledger is journaled through a fresh WAL.
    pub durable: bool,
    /// Records in the generated salary dataset.
    pub records: usize,
    /// BFS samples `n` per release.
    pub samples: usize,
    /// Items per batch envelope; `0` sends single releases.
    pub batch_items: usize,
    /// Outlier records the requests rotate through.
    pub pool: usize,
    /// Analysts each connection rotates across, one per request.
    pub analysts: usize,
    /// Envelopes per connection and second of `--seconds`: a run replays
    /// exactly `quota` envelopes per connection, about `--seconds` of load
    /// on the 2-core box the bounds were set on.
    pub quota_per_s: f64,
}

impl Spec {
    /// Items one envelope releases.
    pub fn items_per_envelope(&self) -> usize {
        self.batch_items.max(1)
    }

    /// Envelopes each connection replays in a run of `seconds`.
    pub fn quota(&self, seconds: u64) -> u64 {
        ((self.quota_per_s * seconds as f64).ceil() as u64).max(1)
    }
}

/// The request list of one run: the dataset, its outlier pool and the
/// seed that orders requests through it.
pub struct RequestList {
    /// The workload's shape.
    pub spec: Spec,
    /// The dataset the server hosts.
    pub dataset: Dataset,
    /// Outlier records the requests name.
    pub pool: Vec<usize>,
    seed: u64,
}

/// splitmix64: a cheap, well-mixed function of one word.
pub fn mix(raw: u64) -> u64 {
    let mut z = raw.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl RequestList {
    /// Generates the dataset and finds its outlier pool. This is request
    /// preparation: it runs before any timing and outside `setup_s`.
    pub fn prepare(spec: Spec, seed: u64) -> Result<Self, String> {
        let dataset = salary_dataset(&SalaryConfig::reduced().with_records(spec.records))
            .map_err(|err| format!("dataset generation failed: {err}"))?;
        let detector = DETECTOR.build();
        let mut rng = ChaCha12Rng::seed_from_u64(POOL_SEED);
        let found =
            find_random_outliers(&dataset, detector.as_ref(), spec.pool, POOL_CANDIDATES, &mut rng)
                .map_err(|err| format!("outlier search failed: {err}"))?;
        if found.len() < spec.pool {
            return Err(format!("found {} of {} pool outliers", found.len(), spec.pool));
        }
        let mut pool: Vec<usize> = found.iter().map(|query| query.record_id).collect();
        pool.sort_unstable();
        Ok(RequestList { spec, dataset, pool, seed })
    }

    /// The record released by item `item` of envelope `index` on
    /// connection `conn`.
    fn record(&self, conn: usize, index: u64, item: usize) -> usize {
        let slot = index as usize * self.spec.items_per_envelope() + item;
        let rotation =
            (mix(self.seed) % self.pool.len() as u64) as usize + conn * (self.pool.len() / 2 + 1);
        self.pool[(slot + rotation) % self.pool.len()]
    }

    /// The mechanism seed of one item.
    fn item_seed(&self, conn: usize, index: u64, item: usize) -> u64 {
        mix(self.seed ^ mix(((conn as u64) << 48) ^ (index << 8) ^ item as u64))
    }

    fn analyst(&self, conn: usize, index: u64) -> String {
        let analyst = conn * self.spec.analysts + (index % self.spec.analysts as u64) as usize;
        format!("analyst-{analyst}")
    }

    /// Envelope `index` of connection `conn`'s list.
    pub fn envelope(&self, conn: usize, index: u64) -> RequestEnvelope {
        let analyst = self.analyst(conn, index);
        if self.spec.batch_items == 0 {
            RequestEnvelope::single(
                ReleaseRequest::new(&analyst, DATASET, self.record(conn, index, 0))
                    .with_detector(DETECTOR)
                    .with_epsilon(EPSILON)
                    .with_samples(self.spec.samples)
                    .with_seed(self.item_seed(conn, index, 0)),
            )
        } else {
            let items = (0..self.spec.batch_items)
                .map(|item| {
                    BatchItem::new(self.record(conn, index, item))
                        .with_epsilon(EPSILON)
                        .with_samples(self.spec.samples)
                        .with_seed(self.item_seed(conn, index, item))
                })
                .collect();
            RequestEnvelope::batch(
                BatchReleaseRequest::new(&analyst, DATASET)
                    .with_detector(DETECTOR)
                    .with_items(items),
            )
        }
    }

    /// One single release per pool record, sent before timing so the
    /// registry's starting-context cache is warm and every timed request
    /// does the same work on every run.
    pub fn warmup(&self) -> Vec<RequestEnvelope> {
        self.pool
            .iter()
            .map(|&record| {
                RequestEnvelope::single(
                    ReleaseRequest::new("warmup", DATASET, record)
                        .with_detector(DETECTOR)
                        .with_epsilon(EPSILON)
                        .with_samples(self.spec.samples)
                        .with_seed(record as u64),
                )
            })
            .collect()
    }
}
