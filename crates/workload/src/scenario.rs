//! Metropolitan scenario geometry: spatial density, regional demand and
//! temporal stress for the multi-region VoD simulator.
//!
//! The paper pitches Skyscraper Broadcasting for *metropolitan* systems,
//! yet a plain workload is spatially uniform: one Zipf catalog, one
//! Poisson stream. This module generates the geography the scale-out
//! core (`sim::shard`) can actually exercise:
//!
//! * **Placement** — users sit on a km grid as Gaussian clusters plus a
//!   uniform Poisson background ([`ScenarioPreset::Urban`],
//!   [`ScenarioPreset::Rural`], [`ScenarioPreset::Remote`] presets).
//!   Every background user attaches to the nearest cluster, so clusters
//!   double as *regions*.
//! * **Demand** — each user draws a log-normal demand weight; a region's
//!   arrival-rate share is the (normalized) sum over its users.
//!   Clusters of different sizes therefore load their regions
//!   asymmetrically by design.
//! * **Access classes** — each region is classed
//!   [`AccessClass::Fiber`]/[`AccessClass::Cable`]/[`AccessClass::Dsl`]
//!   by cluster population, bounding the client downlink.
//! * **Catalogs** — a shared *hot head* of titles every region watches,
//!   plus a region-local slice; requests draw from a region-local Zipf
//!   ranking over `head ∪ slice`.
//! * **Temporal stress** — [`ScenarioWorkload`] layers a diurnal profile
//!   and a premiere *flash crowd* (a cold local title jumps to Zipf rank
//!   1 mid-run, via the [`PopularityShift`] rotation machinery) on the
//!   per-region streams.
//!
//! Everything is a pure function of the configuration and its seed:
//! two calls with the same [`ScenarioConfig`] produce bit-identical
//! users, regions and request streams, which is what lets scenario
//! studies promise byte-identical artifacts across `--shards` and
//! `--threads` (see `DESIGN.md` §13).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vod_units::{Mbps, Minutes};

use crate::arrivals::{
    splitmix64, DiurnalArrivals, Patience, PoissonArrivals, PopularityShift, WorkloadRequest,
};
use crate::zipf::ZipfPopularity;

/// The three metropolitan density presets, following the survey-style
/// cluster exemplar: a dense four-cluster core, a sparse three-cluster
/// countryside, and a two-hamlet remote area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScenarioPreset {
    /// Four dense clusters (600–900 users, σ 3–4 km) over a strong
    /// Poisson background (0.1 users/km²).
    Urban,
    /// Three loose clusters (100–150 users, σ 6–8 km) over a thin
    /// background (0.02 users/km²).
    Rural,
    /// Two hamlets (30–40 users, σ 3–4 km) over an almost-empty
    /// background (0.005 users/km²).
    Remote,
}

impl ScenarioPreset {
    /// Parse a CLI spelling (`urban`, `rural`, `remote`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "urban" => Some(Self::Urban),
            "rural" => Some(Self::Rural),
            "remote" => Some(Self::Remote),
            _ => None,
        }
    }

    /// The CLI spelling.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Urban => "urban",
            Self::Rural => "rural",
            Self::Remote => "remote",
        }
    }

    /// The preset's full configuration at `seed`.
    #[must_use]
    pub fn config(self, seed: u64) -> ScenarioConfig {
        let clusters = match self {
            Self::Urban => vec![
                ClusterSpec::new((30.0, 30.0), 800, 3.0),
                ClusterSpec::new((70.0, 70.0), 900, 3.5),
                ClusterSpec::new((50.0, 20.0), 700, 4.0),
                ClusterSpec::new((20.0, 70.0), 600, 3.5),
            ],
            Self::Rural => vec![
                ClusterSpec::new((30.0, 40.0), 120, 6.0),
                ClusterSpec::new((65.0, 60.0), 150, 8.0),
                ClusterSpec::new((50.0, 25.0), 100, 7.0),
            ],
            Self::Remote => vec![
                ClusterSpec::new((35.0, 45.0), 40, 3.0),
                ClusterSpec::new((70.0, 30.0), 30, 4.0),
            ],
        };
        let background_per_km2 = match self {
            Self::Urban => 0.1,
            Self::Rural => 0.02,
            Self::Remote => 0.005,
        };
        ScenarioConfig {
            preset: self,
            grid_km: 100.0,
            clusters,
            background_per_km2,
            hot_titles: 4,
            local_titles: 4,
            seed,
        }
    }
}

/// One Gaussian population cluster: the seed of a region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Cluster centre on the grid, km.
    pub center_km: (f64, f64),
    /// Users drawn around the centre.
    pub users: usize,
    /// Gaussian standard deviation of the placement, km.
    pub std_km: f64,
}

impl ClusterSpec {
    /// A cluster at `center_km` with `users` users spread `std_km` wide.
    #[must_use]
    pub fn new(center_km: (f64, f64), users: usize, std_km: f64) -> Self {
        Self {
            center_km,
            users,
            std_km,
        }
    }
}

/// The full geometry recipe a [`MetroScenario`] is generated from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioConfig {
    /// Which preset shaped this configuration (kept for labeling).
    pub preset: ScenarioPreset,
    /// Side of the square service area, km.
    pub grid_km: f64,
    /// The population clusters, one region each, in region-id order.
    pub clusters: Vec<ClusterSpec>,
    /// Intensity of the uniform Poisson background, users per km².
    /// The generated count is the rounded expectation, so the user
    /// population is a pure function of the configuration.
    pub background_per_km2: f64,
    /// Titles in the shared hot head every region watches.
    pub hot_titles: usize,
    /// Region-local titles appended per region.
    pub local_titles: usize,
    /// Seed for placement and demand draws.
    pub seed: u64,
}

/// Last-mile access technology of a region, classed by cluster
/// population: ≥ 500 users is fiber territory, ≥ 100 cable, below that
/// DSL. Deterministic, so region classes never depend on the draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessClass {
    /// Metro fiber: 100 Mb/s downlink.
    Fiber,
    /// HFC cable: 30 Mb/s downlink.
    Cable,
    /// Copper DSL: 8 Mb/s downlink.
    Dsl,
}

impl AccessClass {
    /// The class for a cluster of `users`.
    #[must_use]
    pub fn for_cluster(users: usize) -> Self {
        if users >= 500 {
            Self::Fiber
        } else if users >= 100 {
            Self::Cable
        } else {
            Self::Dsl
        }
    }

    /// Nominal client downlink of the class.
    #[must_use]
    pub fn downlink(self) -> Mbps {
        match self {
            Self::Fiber => Mbps(100.0),
            Self::Cable => Mbps(30.0),
            Self::Dsl => Mbps(8.0),
        }
    }

    /// Lower-case label for tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Fiber => "fiber",
            Self::Cable => "cable",
            Self::Dsl => "dsl",
        }
    }
}

/// One placed user.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UserSite {
    /// Position, km.
    pub x_km: f64,
    /// Position, km.
    pub y_km: f64,
    /// Owning region (nearest cluster for background users).
    pub region: usize,
    /// Log-normal demand weight (unnormalized).
    pub demand: f64,
}

/// One region: a cluster plus its attached background users.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Region {
    /// Region id (= cluster index).
    pub id: usize,
    /// Cluster centre, km.
    pub center_km: (f64, f64),
    /// Users attached (cluster + background).
    pub users: usize,
    /// Normalized demand share over the metro, in `(0, 1]`; shares sum
    /// to 1 across regions.
    pub demand_share: f64,
    /// Access-bandwidth class.
    pub access: AccessClass,
    /// Global ids of the region-local catalog slice.
    pub local_titles: Vec<usize>,
}

/// A generated metropolitan scenario: users, regions and catalogs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetroScenario {
    /// The recipe that produced it.
    pub config: ScenarioConfig,
    /// Every placed user, cluster users first (in cluster order), then
    /// background users.
    pub users: Vec<UserSite>,
    /// The regions, in cluster order.
    pub regions: Vec<Region>,
}

/// One standard-normal draw via Box–Muller over two open-interval
/// uniforms (strictly inside `(0, 1)`, so the log is finite).
fn normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The log-normal demand weight of one user: `exp(0.5 + 0.75·z)`, the
/// exemplar's `lognormal(mean=0.5, sigma=0.75)`.
fn demand_draw<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    (0.5 + 0.75 * normal(rng)).exp()
}

impl MetroScenario {
    /// Generate the scenario: clustered placement, Poisson-background
    /// fill, nearest-cluster region assignment, demand shares, access
    /// classes and catalog slices. Bit-reproducible for a fixed config.
    ///
    /// # Panics
    /// Panics on an empty cluster list, a non-positive grid, or a
    /// zero-title catalog recipe.
    #[must_use]
    pub fn generate(config: &ScenarioConfig) -> Self {
        assert!(!config.clusters.is_empty(), "a metro needs regions");
        assert!(config.grid_km > 0.0, "grid side must be positive");
        assert!(
            config.hot_titles + config.local_titles > 0,
            "catalog recipe names no titles"
        );
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let clamp = |v: f64| v.clamp(0.0, config.grid_km);
        let mut users = Vec::new();

        // Cluster users, in cluster order.
        for (r, c) in config.clusters.iter().enumerate() {
            for _ in 0..c.users {
                let x = clamp(c.center_km.0 + c.std_km * normal(&mut rng));
                let y = clamp(c.center_km.1 + c.std_km * normal(&mut rng));
                users.push(UserSite {
                    x_km: x,
                    y_km: y,
                    region: r,
                    demand: demand_draw(&mut rng),
                });
            }
        }

        // Poisson background at the rounded expectation, attached to the
        // nearest cluster centre (lowest region id breaks ties).
        let area = config.grid_km * config.grid_km;
        let background = (config.background_per_km2 * area).round() as usize;
        for _ in 0..background {
            let x: f64 = rng.gen_range(0.0..config.grid_km);
            let y: f64 = rng.gen_range(0.0..config.grid_km);
            let mut best = 0usize;
            let mut best_d2 = f64::INFINITY;
            for (r, c) in config.clusters.iter().enumerate() {
                let (dx, dy) = (x - c.center_km.0, y - c.center_km.1);
                let d2 = dx * dx + dy * dy;
                if d2 < best_d2 {
                    best_d2 = d2;
                    best = r;
                }
            }
            users.push(UserSite {
                x_km: x,
                y_km: y,
                region: best,
                demand: demand_draw(&mut rng),
            });
        }

        // Demand shares and region records.
        let mut weight = vec![0.0f64; config.clusters.len()];
        let mut count = vec![0usize; config.clusters.len()];
        for u in &users {
            weight[u.region] += u.demand;
            count[u.region] += 1;
        }
        let total: f64 = weight.iter().sum();
        let regions = config
            .clusters
            .iter()
            .enumerate()
            .map(|(r, c)| Region {
                id: r,
                center_km: c.center_km,
                users: count[r],
                demand_share: weight[r] / total,
                access: AccessClass::for_cluster(c.users),
                local_titles: (0..config.local_titles)
                    .map(|i| config.hot_titles + r * config.local_titles + i)
                    .collect(),
            })
            .collect();

        Self {
            config: config.clone(),
            users,
            regions,
        }
    }

    /// Total catalog size: the shared hot head plus every region slice.
    #[must_use]
    pub fn titles(&self) -> usize {
        self.config.hot_titles + self.regions.len() * self.config.local_titles
    }

    /// The region that *owns* a global title: hot-head titles are dealt
    /// round-robin across regions (so the replicated head's load spreads
    /// evenly), local titles belong to their slice's region.
    ///
    /// # Panics
    /// Panics when `title` is outside the catalog.
    #[must_use]
    pub fn region_of_title(&self, title: usize) -> usize {
        assert!(title < self.titles(), "title {title} outside the catalog");
        if title < self.config.hot_titles {
            title % self.regions.len()
        } else {
            (title - self.config.hot_titles) / self.config.local_titles
        }
    }

    /// The deterministic scenario → shard mapping: a per-title owning
    /// shard table (`map[title] = region_of_title(title) % shards`) for
    /// `RunConfig::partition`. Each shard owns whole regions — their
    /// catalog slices and, with them, their arrival streams — so shard
    /// load is asymmetric exactly as the demand shares are.
    ///
    /// # Panics
    /// Panics when `shards` is zero.
    #[must_use]
    pub fn shard_map(&self, shards: usize) -> Vec<usize> {
        assert!(shards > 0, "no zero-shard metros");
        (0..self.titles())
            .map(|t| self.region_of_title(t) % shards)
            .collect()
    }

    /// The broadcast slots (hot-slot indices `0..slots`) owned by
    /// `region` under the round-robin deal — the blast radius of a
    /// correlated regional outage.
    #[must_use]
    pub fn region_slots(&self, region: usize, slots: usize) -> Vec<usize> {
        (0..slots)
            .filter(|i| i % self.regions.len() == region)
            .collect()
    }
}

/// A premiere flash crowd: at `at`, a cold title of `region`'s local
/// slice jumps to Zipf rank 1. Implemented with the [`PopularityShift`]
/// rotation — post-shift requests rotate one rank down, so the head's
/// demand lands on the region's coldest local title while arrival times
/// and patience draws stay untouched.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowd {
    /// When the premiere drops.
    pub at: Minutes,
    /// The region whose local slice hosts the premiere.
    pub region: usize,
}

/// One generated request, attributed to its region.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioRequest {
    /// Arrival time.
    pub at: Minutes,
    /// Global title id.
    pub video: usize,
    /// Patience before reneging.
    pub patience: Minutes,
    /// Originating region.
    pub region: usize,
}

/// Temporal workload recipe over a [`MetroScenario`]: per-region Poisson
/// (or diurnal) streams at rates proportional to the demand shares,
/// region-local Zipf title choice, optional flash crowd.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioWorkload {
    /// Metro-wide arrival rate, requests per minute; region `r` receives
    /// `rate × demand_share(r)`.
    pub rate_per_minute: f64,
    /// Generate every request with `at < horizon`.
    pub horizon: Minutes,
    /// Mean of the exponential viewer patience.
    pub mean_patience: Minutes,
    /// Layer the evening-surge diurnal profile on every region.
    pub diurnal: bool,
    /// Optional premiere flash crowd.
    pub flash: Option<FlashCrowd>,
    /// Seed; region `r` streams from `seed` mixed with `r`.
    pub seed: u64,
}

impl ScenarioWorkload {
    /// Generate the merged metro request stream, sorted by arrival time
    /// (ties broken by region id). Bit-reproducible for a fixed
    /// scenario + recipe.
    ///
    /// # Panics
    /// Panics on a non-positive rate or horizon, or a flash crowd naming
    /// a region the scenario does not have.
    #[must_use]
    pub fn generate(&self, scenario: &MetroScenario) -> Vec<ScenarioRequest> {
        assert!(
            self.rate_per_minute > 0.0 && self.horizon.value() > 0.0,
            "scenario workload needs a positive rate and horizon"
        );
        if let Some(f) = self.flash {
            assert!(
                f.region < scenario.regions.len(),
                "flash crowd names region {} of {}",
                f.region,
                scenario.regions.len()
            );
        }
        let streams = scenario
            .regions
            .iter()
            .map(|region| (region, self.region_stream(scenario, region)))
            .collect();
        merge_regions(scenario.config.hot_titles, streams)
    }

    /// Region `region`'s own stream: time-ordered, with region-local
    /// title ids (the shared head first, then the region's slice), the
    /// flash rotation applied.
    fn region_stream(&self, scenario: &MetroScenario, region: &Region) -> Vec<WorkloadRequest> {
        let n = scenario.config.hot_titles + scenario.config.local_titles;
        let zipf = ZipfPopularity::paper(n);
        let patience = Patience::Exponential(self.mean_patience);
        let rate = self.rate_per_minute * region.demand_share;
        let seed = splitmix64(self.seed ^ (region.id as u64).wrapping_mul(0x9E37));
        let flash_here = self.flash.filter(|f| f.region == region.id);
        // Rotating one rank down drops the head's demand onto local
        // rank n-1 — the region's coldest title becomes rank 1.
        let rotate = n - 1;
        let mut local: Vec<WorkloadRequest> = if self.diurnal {
            DiurnalArrivals {
                base_rate: rate * 0.5,
                peak_boost: rate,
                peak_at: Minutes(self.horizon.value() * 0.6),
                peak_width: Minutes(self.horizon.value() / 8.0),
                day: None,
                patience,
                seed,
            }
            .generate(&zipf, self.horizon)
        } else if let Some(f) = flash_here {
            // The PopularityShift machinery proper: same seed, same
            // arrival times and patience, ranks rotated post-shift.
            PopularityShift {
                arrivals: PoissonArrivals::new(rate, seed).with_patience(patience),
                shift_at: f.at,
                rotate,
            }
            .generate(&zipf, self.horizon)
        } else {
            PoissonArrivals::new(rate, seed)
                .with_patience(patience)
                .generate(&zipf, self.horizon)
        };
        if self.diurnal {
            if let Some(f) = flash_here {
                // The same rotation PopularityShift applies, layered
                // on the diurnal stream.
                for r in &mut local {
                    if r.at >= f.at {
                        r.video = (r.video + rotate) % n;
                    }
                }
            }
        }
        local
    }
}

/// Stable k-way merge of per-region streams by `(at, region id)`, each
/// local title mapped to its global id on the way out. Every stream is
/// in time order, so this is the stable sort of their concatenation
/// without the sort: equal times within a region keep generation order,
/// and equal times across regions go to the lower region id. The output
/// is allocated once, at the summed stream lengths.
fn merge_regions(
    hot_titles: usize,
    streams: Vec<(&Region, Vec<WorkloadRequest>)>,
) -> Vec<ScenarioRequest> {
    debug_assert!(streams.iter().all(|(_, s)| s.is_sorted_by_key(|r| r.at)));
    let mut merged = Vec::with_capacity(streams.iter().map(|(_, s)| s.len()).sum());
    let mut heads = vec![0usize; streams.len()];
    loop {
        let next = streams
            .iter()
            .zip(&heads)
            .enumerate()
            .filter_map(|(i, ((region, stream), &head))| Some((i, *region, stream.get(head)?)))
            .min_by(|(_, ra, a), (_, rb, b)| {
                a.at.value()
                    .total_cmp(&b.at.value())
                    .then(ra.id.cmp(&rb.id))
            });
        let Some((i, region, r)) = next else {
            return merged;
        };
        heads[i] += 1;
        merged.push(ScenarioRequest {
            at: r.at,
            video: if r.video < hot_titles {
                r.video
            } else {
                region.local_titles[r.video - hot_titles]
            },
            patience: r.patience,
            region: region.id,
        });
    }
}

/// Strip the region attribution for executors that take
/// [`WorkloadRequest`]s.
#[must_use]
pub fn to_workload(reqs: &[ScenarioRequest]) -> Vec<WorkloadRequest> {
    reqs.iter()
        .map(|r| WorkloadRequest {
            at: r.at,
            video: r.video,
            patience: r.patience,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn urban() -> MetroScenario {
        MetroScenario::generate(&ScenarioPreset::Urban.config(7))
    }

    #[test]
    fn presets_are_reproducible_and_shaped_like_their_class() {
        for preset in [
            ScenarioPreset::Urban,
            ScenarioPreset::Rural,
            ScenarioPreset::Remote,
        ] {
            let cfg = preset.config(7);
            let a = MetroScenario::generate(&cfg);
            let b = MetroScenario::generate(&cfg);
            assert_eq!(a, b, "{} scenario must be bit-reproducible", preset.name());
            let shares: f64 = a.regions.iter().map(|r| r.demand_share).sum();
            assert!((shares - 1.0).abs() < 1e-9, "shares sum to 1, got {shares}");
            assert!(a
                .users
                .iter()
                .all(|u| (0.0..=cfg.grid_km).contains(&u.x_km)
                    && (0.0..=cfg.grid_km).contains(&u.y_km)));
            assert!(a.users.iter().all(|u| u.demand > 0.0));
        }
        let urban = urban();
        let rural = MetroScenario::generate(&ScenarioPreset::Rural.config(7));
        let remote = MetroScenario::generate(&ScenarioPreset::Remote.config(7));
        assert!(urban.users.len() > rural.users.len());
        assert!(rural.users.len() > remote.users.len());
        assert!(urban.regions.iter().all(|r| r.access == AccessClass::Fiber));
        assert!(rural.regions.iter().all(|r| r.access == AccessClass::Cable));
        assert!(remote.regions.iter().all(|r| r.access == AccessClass::Dsl));
    }

    #[test]
    fn demand_shares_are_asymmetric() {
        let m = urban();
        let max = m
            .regions
            .iter()
            .map(|r| r.demand_share)
            .fold(0.0f64, f64::max);
        let min = m
            .regions
            .iter()
            .map(|r| r.demand_share)
            .fold(1.0f64, f64::min);
        assert!(max > min, "clusters of different sizes must load unevenly");
    }

    #[test]
    fn catalog_slices_partition_the_tail_and_shard_map_follows_regions() {
        let m = urban();
        assert_eq!(m.titles(), 4 + 4 * 4);
        // Hot head deals round-robin; local slices map to their region.
        for t in 0..m.titles() {
            let r = m.region_of_title(t);
            assert!(r < m.regions.len());
            if t >= m.config.hot_titles {
                assert!(m.regions[r].local_titles.contains(&t));
            }
        }
        for shards in [1, 2, 4, 8] {
            let map = m.shard_map(shards);
            assert_eq!(map.len(), m.titles());
            assert!(map.iter().all(|&s| s < shards));
        }
        // Region slots partition the slot space.
        let mut seen = [false; 8];
        for r in 0..m.regions.len() {
            for s in m.region_slots(r, 8) {
                assert!(!seen[s], "slot {s} owned twice");
                seen[s] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn workload_is_sorted_attributed_and_reproducible() {
        let m = urban();
        let wl = ScenarioWorkload {
            rate_per_minute: 6.0,
            horizon: Minutes(300.0),
            mean_patience: Minutes(30.0),
            diurnal: false,
            flash: None,
            seed: 11,
        };
        let reqs = wl.generate(&m);
        assert_eq!(reqs, wl.generate(&m), "stream must be bit-reproducible");
        assert!(reqs.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(reqs.iter().all(|r| r.video < m.titles()));
        // Every request's title is either hot or owned by its region.
        for r in &reqs {
            if r.video >= m.config.hot_titles {
                assert_eq!(m.region_of_title(r.video), r.region);
            }
        }
        // Bigger regions request more.
        let mut counts = vec![0usize; m.regions.len()];
        for r in &reqs {
            counts[r.region] += 1;
        }
        let (hi, lo) = (
            m.regions
                .iter()
                .max_by(|a, b| a.demand_share.total_cmp(&b.demand_share))
                .unwrap()
                .id,
            m.regions
                .iter()
                .min_by(|a, b| a.demand_share.total_cmp(&b.demand_share))
                .unwrap()
                .id,
        );
        assert!(counts[hi] > counts[lo], "{counts:?}");
    }

    #[test]
    fn flash_crowd_rotates_only_the_named_region_after_the_premiere() {
        let m = urban();
        let base = ScenarioWorkload {
            rate_per_minute: 8.0,
            horizon: Minutes(400.0),
            mean_patience: Minutes(30.0),
            diurnal: false,
            flash: None,
            seed: 23,
        };
        let flash = ScenarioWorkload {
            flash: Some(FlashCrowd {
                at: Minutes(200.0),
                region: 1,
            }),
            ..base
        };
        let plain = base.generate(&m);
        let crowd = flash.generate(&m);
        assert_eq!(plain.len(), crowd.len());
        let premiere = *m.regions[1].local_titles.last().unwrap();
        let mut premiere_hits = 0usize;
        for (p, c) in plain.iter().zip(&crowd) {
            assert_eq!(p.at, c.at, "flash crowds never move arrivals");
            assert_eq!(p.patience, c.patience);
            assert_eq!(p.region, c.region);
            if p.region != 1 || p.at < Minutes(200.0) {
                assert_eq!(p.video, c.video, "other regions / pre-premiere untouched");
            }
            if c.at >= Minutes(200.0) && c.video == premiere {
                premiere_hits += 1;
            }
        }
        // The cold title now draws the head's demand: post-premiere it
        // is the region's single most-requested title.
        let mut per_title = std::collections::HashMap::new();
        for r in crowd
            .iter()
            .filter(|r| r.region == 1 && r.at >= Minutes(200.0))
        {
            *per_title.entry(r.video).or_insert(0usize) += 1;
        }
        let top = per_title.iter().max_by_key(|&(_, &c)| c).unwrap();
        assert_eq!(*top.0, premiere, "premiere must lead: {per_title:?}");
        // Before the premiere the title was cold: a tail-share trickle.
        let pre_hits = plain
            .iter()
            .filter(|r| r.at < Minutes(200.0) && r.video == premiere)
            .count();
        assert!(
            premiere_hits > 2 * pre_hits,
            "premiere {premiere_hits} vs cold baseline {pre_hits}"
        );
    }

    #[test]
    fn diurnal_layer_concentrates_arrivals_near_the_peak() {
        let m = urban();
        let wl = ScenarioWorkload {
            rate_per_minute: 10.0,
            horizon: Minutes(600.0),
            mean_patience: Minutes(30.0),
            diurnal: true,
            flash: None,
            seed: 5,
        };
        let reqs = wl.generate(&m);
        let count = |lo: f64, hi: f64| {
            reqs.iter()
                .filter(|r| r.at.value() >= lo && r.at.value() < hi)
                .count()
        };
        // Peak sits at 0.6 × horizon = 360.
        assert!(count(330.0, 390.0) > 2 * count(0.0, 60.0));
    }

    #[test]
    fn to_workload_strips_only_the_region() {
        let m = urban();
        let reqs = ScenarioWorkload {
            rate_per_minute: 3.0,
            horizon: Minutes(100.0),
            mean_patience: Minutes(10.0),
            diurnal: false,
            flash: None,
            seed: 2,
        }
        .generate(&m);
        let wl = to_workload(&reqs);
        assert_eq!(wl.len(), reqs.len());
        for (a, b) in reqs.iter().zip(&wl) {
            assert_eq!((a.at, a.video, a.patience), (b.at, b.video, b.patience));
        }
    }

    /// FNV-1a 64-bit over the value's `serde_json` bytes.
    fn digest(value: &impl Serialize) -> u64 {
        let bytes = serde_json::to_string(value).expect("in-memory values serialize");
        bytes.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The scenario stream at smoke rate over every preset, seeds 17 and
    /// 29, diurnal on and off, and no flash crowd or one in the busiest
    /// region, pinned as digests. Each stream is ordered by `(at,
    /// region)`, and each region's subsequence is that region's own
    /// stream in the order it was drawn.
    #[test]
    fn scenario_stream_digests_are_pinned() {
        let mut digests = Vec::new();
        for preset in [
            ScenarioPreset::Urban,
            ScenarioPreset::Rural,
            ScenarioPreset::Remote,
        ] {
            for seed in [17, 29] {
                let m = MetroScenario::generate(&preset.config(seed));
                let busiest = m
                    .regions
                    .iter()
                    .max_by(|a, b| a.demand_share.total_cmp(&b.demand_share))
                    .unwrap()
                    .id;
                for diurnal in [false, true] {
                    for flash in [
                        None,
                        Some(FlashCrowd {
                            at: Minutes(80.0),
                            region: busiest,
                        }),
                    ] {
                        let wl = ScenarioWorkload {
                            rate_per_minute: 4.0,
                            horizon: Minutes(240.0),
                            mean_patience: Minutes(45.0),
                            diurnal,
                            flash,
                            seed,
                        };
                        let reqs = wl.generate(&m);
                        assert!(reqs.windows(2).all(|w| w[0]
                            .at
                            .value()
                            .total_cmp(&w[1].at.value())
                            .then(w[0].region.cmp(&w[1].region))
                            .is_le()));
                        for region in &m.regions {
                            let own: Vec<WorkloadRequest> = reqs
                                .iter()
                                .filter(|r| r.region == region.id)
                                .map(|r| WorkloadRequest {
                                    at: r.at,
                                    video: r.video,
                                    patience: r.patience,
                                })
                                .collect();
                            let drawn: Vec<WorkloadRequest> = wl
                                .region_stream(&m, region)
                                .into_iter()
                                .map(|r| WorkloadRequest {
                                    video: if r.video < m.config.hot_titles {
                                        r.video
                                    } else {
                                        region.local_titles[r.video - m.config.hot_titles]
                                    },
                                    ..r
                                })
                                .collect();
                            assert_eq!(own, drawn, "region {} leaves its stream order", region.id);
                        }
                        digests.push(digest(&reqs));
                    }
                }
            }
        }
        // Per preset and seed: (diurnal, flash) = (off, none), (off,
        // busiest), (on, none), (on, busiest).
        let pinned: [u64; 24] = [
            // urban, seed 17
            0xbd4f_c8e3_0bcd_5e75,
            0x05e2_5e9a_6ee5_d68f,
            0xe8a5_97bb_3906_0fa8,
            0xb8ce_2556_69d4_14f9,
            // urban, seed 29
            0x5b90_548c_b831_f3f7,
            0xe403_522a_7c76_93bd,
            0x38dc_a957_d947_e8f3,
            0x5647_c4fc_d3ca_e462,
            // rural, seed 17
            0x431e_296d_6d73_5af8,
            0x1d59_c62b_9cd3_c100,
            0x0ea6_9af7_668b_c3c5,
            0x2e7c_5d68_d6f3_26e8,
            // rural, seed 29
            0xa1b7_cbad_7da8_2ac8,
            0x5f55_7f08_f8c6_1dad,
            0xc83b_df6b_44cb_0bbd,
            0x8d1d_21bb_4a2a_df63,
            // remote, seed 17
            0xfe0f_b6c7_3d87_9e5e,
            0xd4f8_db88_5f3f_fb8a,
            0x8362_99db_2d39_418b,
            0xc57d_91ec_fdfd_d58a,
            // remote, seed 29
            0x0a00_08cb_ab44_3e51,
            0xcc10_4952_bd75_3cbf,
            0xdb2c_46de_9f4e_6dcc,
            0x85ff_922a_f51b_4518,
        ];
        assert_eq!(digests, pinned);
    }

    /// A hand-built request: `video` is a region-local title id, and
    /// `patience` tags the request so order within a region shows.
    fn req(at: f64, video: usize, patience: f64) -> WorkloadRequest {
        WorkloadRequest {
            at: Minutes(at),
            video,
            patience: Minutes(patience),
        }
    }

    /// `(at, global title, patience, region)` of each merged request.
    fn keys(reqs: &[ScenarioRequest]) -> Vec<(f64, usize, f64, usize)> {
        reqs.iter()
            .map(|r| (r.at.value(), r.video, r.patience.value(), r.region))
            .collect()
    }

    #[test]
    fn merge_sends_equal_times_across_regions_to_the_lower_region_id() {
        let m = urban();
        let hot = m.config.hot_titles;
        // Streams handed over in descending region order, so the tie
        // is decided by the id, not by the stream's position.
        let merged = merge_regions(
            hot,
            vec![
                (&m.regions[2], vec![req(1.0, 0, 20.0), req(2.0, hot, 21.0)]),
                (&m.regions[1], vec![req(1.0, 1, 10.0), req(3.0, hot, 11.0)]),
                (&m.regions[0], vec![req(2.0, 2, 0.0)]),
            ],
        );
        let (l1, l2) = (m.regions[1].local_titles[0], m.regions[2].local_titles[0]);
        assert_eq!(
            keys(&merged),
            [
                (1.0, 1, 10.0, 1),
                (1.0, 0, 20.0, 2),
                (2.0, 2, 0.0, 0),
                (2.0, l2, 21.0, 2),
                (3.0, l1, 11.0, 1),
            ]
        );
    }

    #[test]
    fn merge_keeps_generation_order_for_equal_times_within_a_region() {
        let m = urban();
        let hot = m.config.hot_titles;
        let merged = merge_regions(
            hot,
            vec![
                (
                    &m.regions[0],
                    vec![
                        req(1.0, 3, 2.0),
                        req(1.0, 1, 0.0),
                        req(1.0, 2, 1.0),
                        req(4.0, 0, 3.0),
                    ],
                ),
                (&m.regions[1], vec![req(1.0, 0, 9.0), req(4.0, 0, 8.0)]),
            ],
        );
        assert_eq!(
            keys(&merged),
            [
                (1.0, 3, 2.0, 0),
                (1.0, 1, 0.0, 0),
                (1.0, 2, 1.0, 0),
                (1.0, 0, 9.0, 1),
                (4.0, 0, 3.0, 0),
                (4.0, 0, 8.0, 1),
            ]
        );
    }

    #[test]
    fn merge_handles_empty_regions_and_a_single_region() {
        let m = urban();
        let hot = m.config.hot_titles;
        let none = merge_regions(hot, vec![(&m.regions[0], vec![]), (&m.regions[1], vec![])]);
        assert!(none.is_empty());
        assert!(merge_regions(hot, vec![]).is_empty());
        let stream = vec![req(0.5, hot + 1, 1.0), req(0.5, 0, 2.0), req(7.0, hot, 3.0)];
        let local = &m.regions[3].local_titles;
        let expect = [
            (0.5, local[1], 1.0, 3),
            (0.5, 0, 2.0, 3),
            (7.0, local[0], 3.0, 3),
        ];
        let single = merge_regions(hot, vec![(&m.regions[3], stream.clone())]);
        assert_eq!(keys(&single), expect);
        // Empty streams on either side change nothing.
        let padded = merge_regions(
            hot,
            vec![
                (&m.regions[0], vec![]),
                (&m.regions[3], stream),
                (&m.regions[2], vec![]),
            ],
        );
        assert_eq!(keys(&padded), expect);
    }

    /// The merged stream is allocated once, at its final length: it
    /// never regrows and holds no spare capacity.
    #[test]
    fn generate_sizes_its_output_once() {
        let m = urban();
        for diurnal in [false, true] {
            let reqs = ScenarioWorkload {
                rate_per_minute: 6.0,
                horizon: Minutes(300.0),
                mean_patience: Minutes(30.0),
                diurnal,
                flash: None,
                seed: 11,
            }
            .generate(&m);
            assert!(!reqs.is_empty());
            assert_eq!(reqs.capacity(), reqs.len());
        }
    }

    #[test]
    #[should_panic(expected = "outside the catalog")]
    fn region_of_title_rejects_out_of_range() {
        let m = urban();
        let _ = m.region_of_title(m.titles());
    }
}
