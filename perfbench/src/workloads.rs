//! The three workloads. Each drives one `NymManager` through the
//! public API, single-threaded and closed-loop: the next call goes out
//! only after the previous one returned. Every site, stain and
//! ordering comes from the benchmark seed.

use std::collections::BTreeMap;

use nymix::{FleetSaveRequest, NymId, NymManager, SaveKind, StorageDest, UsageModel};
use nymix_anon::AnonymizerKind;
use nymix_net::Ip;
use nymix_store::CloudProvider;
use nymix_workload::Site;

use crate::record::{Recorder, SeedRng};

/// The password every nym's chain is sealed under.
pub const PASSWORD: &str = "perfbench-pw";
/// Host RAM the manager is built with: admission never refuses.
pub const HOST_RAM_MIB: u32 = 65_536;
/// Browser byte-scale divisor.
pub const BROWSER_SCALE: u64 = 8;

const CLOUD: &str = "dropbox";
const STRIPE_ACCOUNT: &str = "stripe-acct";
const STRIPE_CHILDREN: [&str; 3] = ["p0", "p1", "p2"];
/// The striped child that goes dark for the middle third of each
/// `durable` episode.
const DARK_CHILD: &str = "p1";

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["heartbeat", "amnesia", "durable"];

/// One workload's running state.
pub trait Workload {
    /// Nyms the workload keeps.
    fn nyms(&self) -> usize;
    /// Measured steps per episode.
    fn episode_steps(&self) -> usize;
    /// One measured round (or cycle).
    fn step(&mut self, rec: &mut Recorder);
    /// Correctness checks that run at the end of an episode, outside
    /// the measured steps.
    fn verify(&mut self, rec: &mut Recorder);
    /// The manager under test.
    fn manager(&self) -> &NymManager;
    /// Bytes held by every backend the workload stores to.
    fn at_rest_bytes(&self) -> u64;
    /// Measured properties the workload exists for.
    fn facts(&self) -> Vec<(String, f64)>;
}

/// Builds workload `name` for `seed`: the manager, the nyms, their
/// first browse and the first full save. `None` for an unknown name.
pub fn setup(name: &str, seed: u64, rec: &mut Recorder) -> Option<Box<dyn Workload>> {
    Some(match name {
        "heartbeat" => Box::new(Heartbeat::setup(seed, rec)),
        "amnesia" => Box::new(Amnesia::setup(seed, rec)),
        "durable" => Box::new(Durable::setup(seed, rec)),
        _ => return None,
    })
}

fn cloud_dest(i: usize) -> StorageDest {
    StorageDest::Cloud {
        provider: CLOUD.into(),
        account: format!("acct-{i}"),
        credential: format!("tok-{i}"),
    }
}

/// Which site each nym visits in `round`. The mix of sites per storage
/// destination is the same for every seed (nym `i` of `round` starts
/// from site `i + round`); the seed then shuffles the sites among the
/// nyms sharing a destination. So the seed moves sites between nyms,
/// not the bytes each destination sees.
fn site_plan(rng: &mut SeedRng, dests: &[StorageDest], round: u64) -> Vec<Site> {
    let sites = Site::VISIT_ORDER;
    let mut plan: Vec<Site> = (0..dests.len())
        .map(|i| sites[(i + round as usize) % sites.len()])
        .collect();
    let mut done = vec![false; dests.len()];
    for i in 0..dests.len() {
        if done[i] {
            continue;
        }
        let class = std::mem::discriminant(&dests[i]);
        let members: Vec<usize> = (i..dests.len())
            .filter(|&j| std::mem::discriminant(&dests[j]) == class)
            .collect();
        let shuffled: Vec<Site> = rng
            .permutation(members.len())
            .into_iter()
            .map(|k| plan[members[k]])
            .collect();
        for (&j, site) in members.iter().zip(shuffled) {
            plan[j] = site;
            done[j] = true;
        }
    }
    plan
}

fn create(m: &mut NymManager, rec: &mut Recorder, name: &str) -> Option<NymId> {
    rec.attempted += 1;
    let (res, _) = rec.time("create_nym", || {
        m.create_nym(name, AnonymizerKind::Tor, UsageModel::Persistent)
    });
    match res {
        Ok((id, _)) => Some(id),
        Err(e) => {
            rec.typed_error("create_nym", &e);
            None
        }
    }
}

fn visit(m: &mut NymManager, rec: &mut Recorder, id: NymId, site: Site) {
    if let (Err(e), _) = rec.time("visit_site", || m.visit_site(id, site)) {
        rec.typed_error("visit_site", &e);
    }
}

fn stain(m: &mut NymManager, rec: &mut Recorder, id: NymId, marker: &str) {
    if let Err(e) = m.inject_stain(id, marker) {
        rec.typed_error("inject_stain", &e);
    }
}

/// One batched store-nym call over `ids`. Returns the per-nym save
/// kinds, or `None` after a typed error.
fn save_batch(
    m: &mut NymManager,
    rec: &mut Recorder,
    ids: &[NymId],
    dests: &[StorageDest],
) -> Option<Vec<SaveKind>> {
    let reqs: Vec<FleetSaveRequest<'_>> = ids
        .iter()
        .zip(dests)
        .map(|(id, dest)| FleetSaveRequest {
            id: *id,
            password: PASSWORD,
            dest,
        })
        .collect();
    rec.attempted += ids.len() as u64;
    let (res, ms) = rec.time("save", || m.save_nyms_incremental(&reqs));
    match res {
        Ok(outcomes) => {
            let modeled = outcomes
                .iter()
                .map(|(_, _, d)| d.as_secs_f64())
                .fold(0.0, f64::max);
            rec.store(ms, modeled);
            for ((kind, bytes, _), dest) in outcomes.iter().zip(dests) {
                rec.saved(*kind, *bytes as u64);
                if *dest == StorageDest::Disk {
                    rec.disk_saves += 1;
                    rec.disk_sealed_bytes += *bytes as u64;
                }
            }
            Some(outcomes.into_iter().map(|(k, _, _)| k).collect())
        }
        Err(e) => {
            for _ in ids {
                rec.typed_error("save_nyms_incremental", &e);
            }
            None
        }
    }
}

/// Loads nym `name` from `dest`; records the load and returns its id.
fn load(m: &mut NymManager, rec: &mut Recorder, name: &str, dest: &StorageDest) -> Option<NymId> {
    rec.attempted += 1;
    let (res, ms) = rec.time("restore_nym", || {
        m.restore_nym(
            name,
            AnonymizerKind::Tor,
            UsageModel::Persistent,
            PASSWORD,
            dest,
        )
    });
    match res {
        Ok((id, breakdown)) => {
            rec.load(ms, breakdown.total().as_secs_f64());
            Some(id)
        }
        Err(e) => {
            rec.typed_error("restore_nym", &e);
            None
        }
    }
}

fn destroy(m: &mut NymManager, rec: &mut Recorder, id: NymId) {
    if let (Err(e), _) = rec.time("destroy_nym", || m.destroy_nym(id)) {
        rec.typed_error("destroy_nym", &e);
    }
}

/// Loads nym `name` after amnesia and checks it carries its own latest
/// stain `own` and none of `others`. On a failed load a fresh nym takes the slot so the
/// workload can go on; the failure is already counted.
fn reload_checked(
    m: &mut NymManager,
    rec: &mut Recorder,
    name: &str,
    dest: &StorageDest,
    own: &str,
    others: &[&str],
) -> NymId {
    let Some(id) = load(m, rec, name, dest) else {
        return create(m, rec, name).unwrap_or(NymId(0));
    };
    let mut stained = |marker: &str| match m.has_stain(id, marker) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: has_stain failed: {e}");
            false
        }
    };
    let ok = stained(own) && !others.iter().any(|o| stained(o));
    if !ok {
        rec.wrong_state("restored nym lost its own stain or carries another nym's");
    }
    id
}

/// Follows a provider's access log: every entry since the last look
/// must show an anonymizer exit, never the user's address.
#[derive(Debug, Default)]
struct LogWatch {
    seen: BTreeMap<String, u64>,
    /// Entries read and checked.
    checked: u64,
    /// Entries overwritten before they could be read.
    unreadable: u64,
}

impl LogWatch {
    fn facts(&self, workload: &str) -> [(String, f64); 2] {
        [
            (
                format!("{workload}.access_log.checked"),
                self.checked as f64,
            ),
            (
                format!("{workload}.access_log.unreadable"),
                self.unreadable as f64,
            ),
        ]
    }

    fn check(&mut self, key: &str, provider: &CloudProvider, user_ip: Ip, rec: &mut Recorder) {
        let log = provider.access_log();
        let seen = self.seen.entry(key.to_string()).or_insert(0);
        let new = log.total_recorded() - *seen;
        *seen = log.total_recorded();
        if new == 0 {
            return;
        }
        // A batch can log more entries than the provider retains; the
        // overwritten ones cannot be read back and are counted apart.
        let fresh = (new as usize).min(log.len());
        self.checked += fresh as u64;
        self.unreadable += new - fresh as u64;
        rec.attempted += 1;
        let leaks = log
            .iter()
            .skip(log.len() - fresh)
            .filter(|e| e.observed_ip == user_ip)
            .count() as u64;
        if leaks > 0 {
            rec.failures.ip_leak += leaks;
            eprintln!("perfbench: {leaks} provider log entries show the user's address");
        }
    }
}

fn subpoena_bytes(provider: Option<&CloudProvider>, account: &str) -> u64 {
    provider.map_or(0, |p| {
        p.subpoena(account)
            .iter()
            .map(|(_, d)| d.len() as u64)
            .sum()
    })
}

// --- heartbeat ------------------------------------------------------

const HB_NYMS: usize = 32;
/// One compaction period: `DELTA_CHAIN_LIMIT` (4) deltas, then a full save.
const HB_PERIOD: u64 = 5;
/// Two compaction periods: every episode ends on a compaction, and the
/// end-of-episode loads recur often enough to spread over the run.
const HB_STEPS: usize = 2 * HB_PERIOD as usize;
const HB_LOCATIONS: [&str; 2] = ["guard-loc-a", "guard-loc-b"];

/// A 32-nym fleet on one provider, one account per nym; every round
/// dirties only guard state and a small stain, then saves in one batch.
pub struct Heartbeat {
    m: NymManager,
    ids: Vec<NymId>,
    names: Vec<String>,
    dests: Vec<StorageDest>,
    stains: Vec<String>,
    tag: u64,
    round: u64,
    log: LogWatch,
    /// (wall ms, compaction round) per measured round.
    rounds: Vec<(f64, bool)>,
}

impl Heartbeat {
    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let mut rng = SeedRng::new(seed, 1);
        let mut m = NymManager::with_host_ram(seed, BROWSER_SCALE, HOST_RAM_MIB);
        let dests: Vec<StorageDest> = (0..HB_NYMS).map(cloud_dest).collect();
        for i in 0..HB_NYMS {
            m.register_cloud(CLOUD, &format!("acct-{i}"), &format!("tok-{i}"));
        }
        let names: Vec<String> = (0..HB_NYMS).map(|i| format!("hb-{i}")).collect();
        let ids: Vec<NymId> = names
            .iter()
            .map(|n| create(&mut m, rec, n).unwrap_or(NymId(0)))
            .collect();
        for (&id, site) in ids.iter().zip(site_plan(&mut rng, &dests, 0)) {
            visit(&mut m, rec, id, site);
        }
        let tag = rng.next_u64();
        let mut hb = Self {
            m,
            ids,
            names,
            dests,
            stains: vec![String::new(); HB_NYMS],
            tag,
            round: 0,
            log: LogWatch::default(),
            rounds: Vec::new(),
        };
        hb.dirty(rec);
        if let Some(kinds) = save_batch(&mut hb.m, rec, &hb.ids, &hb.dests) {
            if kinds.iter().any(|k| *k != SaveKind::Full) {
                rec.wrong_state("heartbeat's first save was not full");
            }
        }
        hb
    }

    /// Dirties each nym's guard state (alternating locations) and adds
    /// a small stain unique to this nym and round.
    fn dirty(&mut self, rec: &mut Recorder) {
        let r = self.round;
        for (i, &id) in self.ids.iter().enumerate() {
            let loc = HB_LOCATIONS[(r as usize + i) % 2];
            if let Err(e) = self.m.seed_guards_deterministically(id, loc, PASSWORD) {
                rec.typed_error("seed_guards_deterministically", &e);
            }
            let marker = format!("hb{:x}-{i}-{r}", self.tag);
            stain(&mut self.m, rec, id, &marker);
            self.stains[i] = marker;
        }
    }
}

impl Workload for Heartbeat {
    fn nyms(&self) -> usize {
        HB_NYMS
    }

    fn episode_steps(&self) -> usize {
        HB_STEPS
    }

    fn step(&mut self, rec: &mut Recorder) {
        self.round += 1;
        self.dirty(rec);
        let before = rec.store_ms.len();
        let kinds = save_batch(&mut self.m, rec, &self.ids, &self.dests);
        let compaction = self.round.is_multiple_of(HB_PERIOD);
        if let Some(kinds) = kinds {
            let want = if compaction {
                SaveKind::Full
            } else {
                SaveKind::Delta
            };
            if kinds.iter().any(|k| *k != want) {
                rec.wrong_state("heartbeat chains did not compact together");
            }
        }
        if let Some(&ms) = rec.store_ms.get(before) {
            self.rounds.push((ms, compaction));
        }
        let ip = self.m.public_ip();
        if let Some(p) = self.m.cloud_provider(CLOUD) {
            self.log.check(CLOUD, p, ip, rec);
        }
    }

    /// Amnesia for the whole fleet, then load-nym for every nym: each
    /// must come back with its own latest stain and no other's.
    fn verify(&mut self, rec: &mut Recorder) {
        for &id in &self.ids {
            destroy(&mut self.m, rec, id);
        }
        for i in 0..HB_NYMS {
            let others: Vec<&str> = (0..HB_NYMS)
                .filter(|&j| j != i)
                .map(|j| self.stains[j].as_str())
                .collect();
            self.ids[i] = reload_checked(
                &mut self.m,
                rec,
                &self.names[i],
                &self.dests[i],
                &self.stains[i],
                &others,
            );
            // One fleet-wide load overflows the provider's bounded log,
            // so it is read after every load.
            let ip = self.m.public_ip();
            if let Some(p) = self.m.cloud_provider(CLOUD) {
                self.log.check(CLOUD, p, ip, rec);
            }
        }
    }

    fn manager(&self) -> &NymManager {
        &self.m
    }

    fn at_rest_bytes(&self) -> u64 {
        (0..HB_NYMS)
            .map(|i| subpoena_bytes(self.m.cloud_provider(CLOUD), &format!("acct-{i}")))
            .sum()
    }

    fn facts(&self) -> Vec<(String, f64)> {
        let n = self.rounds.len().max(1) as f64;
        let compactions = self.rounds.iter().filter(|(_, c)| *c).count() as f64;
        let total: f64 = self.rounds.iter().map(|(ms, _)| ms).sum();
        let compaction_ms: f64 = self
            .rounds
            .iter()
            .filter(|(_, c)| *c)
            .map(|(ms, _)| ms)
            .sum();
        let [checked, unreadable] = self.log.facts("heartbeat");
        vec![
            checked,
            unreadable,
            ("heartbeat.rounds".into(), self.rounds.len() as f64),
            ("heartbeat.compaction_round_share".into(), compactions / n),
            (
                "heartbeat.compaction_wall_share".into(),
                if total > 0.0 {
                    compaction_ms / total
                } else {
                    0.0
                },
            ),
        ]
    }
}

// --- amnesia --------------------------------------------------------

const AM_NYMS: usize = 16;
/// Three passes: every nym is stored and loaded three times.
const AM_STEPS: usize = 3 * AM_NYMS;
const DEST_NAMES: [&str; 3] = ["cloud", "local", "disk"];

/// 16 nyms, one at a time: browse, stain, store, destroy, load, check.
pub struct Amnesia {
    m: NymManager,
    ids: Vec<NymId>,
    names: Vec<String>,
    dests: Vec<StorageDest>,
    stains: Vec<Option<String>>,
    rng: SeedRng,
    tag: u64,
    cycle: u64,
    /// This pass's nym order and each nym's site.
    order: Vec<usize>,
    sites: Vec<Site>,
    log: LogWatch,
    /// (stores, loads) per destination kind: cloud, local, disk.
    per_dest: [(u64, u64); 3],
}

impl Amnesia {
    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let mut rng = SeedRng::new(seed, 2);
        let mut m = NymManager::with_host_ram(seed, BROWSER_SCALE, HOST_RAM_MIB);
        let dests: Vec<StorageDest> = (0..AM_NYMS)
            .map(|i| match i % 3 {
                0 => cloud_dest(i),
                1 => StorageDest::Local,
                _ => StorageDest::Disk,
            })
            .collect();
        for i in (0..AM_NYMS).filter(|i| i % 3 == 0) {
            m.register_cloud(CLOUD, &format!("acct-{i}"), &format!("tok-{i}"));
        }
        let names: Vec<String> = (0..AM_NYMS).map(|i| format!("am-{i}")).collect();
        let mut ids = Vec::with_capacity(AM_NYMS);
        let plan = site_plan(&mut rng, &dests, 0);
        for ((name, dest), site) in names.iter().zip(&dests).zip(plan) {
            let id = create(&mut m, rec, name).unwrap_or(NymId(0));
            visit(&mut m, rec, id, site);
            if let Some(kinds) = save_batch(&mut m, rec, &[id], std::slice::from_ref(dest)) {
                if kinds[0] != SaveKind::Full {
                    rec.wrong_state("amnesia's first save was not full");
                }
            }
            ids.push(id);
        }
        let tag = rng.next_u64();
        Self {
            m,
            ids,
            names,
            dests,
            stains: vec![None; AM_NYMS],
            rng,
            tag,
            cycle: 0,
            order: Vec::new(),
            sites: Vec::new(),
            log: LogWatch::default(),
            per_dest: [(0, 0); 3],
        }
    }
}

impl Workload for Amnesia {
    fn nyms(&self) -> usize {
        AM_NYMS
    }

    fn episode_steps(&self) -> usize {
        AM_STEPS
    }

    fn step(&mut self, rec: &mut Recorder) {
        let pos = (self.cycle % AM_NYMS as u64) as usize;
        if pos == 0 {
            let pass = 1 + self.cycle / AM_NYMS as u64;
            self.order = self.rng.permutation(AM_NYMS);
            self.sites = site_plan(&mut self.rng, &self.dests, pass);
        }
        let i = self.order[pos];
        let id = self.ids[i];
        visit(&mut self.m, rec, id, self.sites[i]);
        let marker = format!("am{:x}-{i}-{}", self.tag, self.cycle);
        stain(&mut self.m, rec, id, &marker);
        self.cycle += 1;

        let dest = self.dests[i].clone();
        save_batch(&mut self.m, rec, &[id], std::slice::from_ref(&dest));
        destroy(&mut self.m, rec, id);
        let others: Vec<&str> = self
            .stains
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .filter_map(|(_, s)| s.as_deref())
            .collect();
        self.ids[i] = reload_checked(&mut self.m, rec, &self.names[i], &dest, &marker, &others);
        self.stains[i] = Some(marker);
        let slot = &mut self.per_dest[i % 3];
        slot.0 += 1;
        slot.1 += 1;

        let ip = self.m.public_ip();
        if let Some(p) = self.m.cloud_provider(CLOUD) {
            self.log.check(CLOUD, p, ip, rec);
        }
    }

    /// Every cycle already loads and checks its nym.
    fn verify(&mut self, _rec: &mut Recorder) {}

    fn manager(&self) -> &NymManager {
        &self.m
    }

    fn at_rest_bytes(&self) -> u64 {
        let cloud: u64 = (0..AM_NYMS)
            .filter(|i| i % 3 == 0)
            .map(|i| subpoena_bytes(self.m.cloud_provider(CLOUD), &format!("acct-{i}")))
            .sum();
        cloud + self.m.local_store().total_bytes() as u64 + self.m.disk_store().committed_heap_len()
    }

    fn facts(&self) -> Vec<(String, f64)> {
        // Bytes at rest held in content-addressed chunk objects
        // (`{label}#e{epoch}/c/{id}`), over the backends that can list.
        let mut chunked = 0u64;
        let mut all = 0u64;
        let mut tally = |name: &str, len: usize| {
            all += len as u64;
            if name.contains("/c/") {
                chunked += len as u64;
            }
        };
        for (name, data) in self.m.local_store().confiscate() {
            tally(name, data.len());
        }
        if let Some(p) = self.m.cloud_provider(CLOUD) {
            for i in (0..AM_NYMS).filter(|i| i % 3 == 0) {
                for (name, data) in p.subpoena(&format!("acct-{i}")) {
                    tally(name, data.len());
                }
            }
        }
        let mut facts = vec![
            ("amnesia.cycles".into(), self.cycle as f64),
            (
                "amnesia.chunked_share".into(),
                if all > 0 {
                    chunked as f64 / all as f64
                } else {
                    0.0
                },
            ),
        ];
        for (d, (stores, loads)) in DEST_NAMES.iter().zip(self.per_dest) {
            facts.push((format!("amnesia.{d}.stores"), stores as f64));
            facts.push((format!("amnesia.{d}.loads"), loads as f64));
        }
        facts.extend(self.log.facts("amnesia"));
        facts
    }
}

// --- durable --------------------------------------------------------

const DU_NYMS: usize = 8;
/// Rounds per episode: healthy, dark, healthy — two rounds each.
const DU_PERIOD: u64 = 6;

/// An 8-nym fleet: even nyms journal to disk, odd nyms stripe 2-of-3;
/// amnesia every 2nd round; one provider dark for a third of the time.
pub struct Durable {
    m: NymManager,
    ids: Vec<NymId>,
    names: Vec<String>,
    dests: Vec<StorageDest>,
    stains: Vec<String>,
    rng: SeedRng,
    tag: u64,
    round: u64,
    log: LogWatch,
    repairs: u64,
}

impl Durable {
    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let mut rng = SeedRng::new(seed, 3);
        let mut m = NymManager::with_host_ram(seed, BROWSER_SCALE, HOST_RAM_MIB);
        let children: Vec<(&str, &str, &str)> = STRIPE_CHILDREN
            .iter()
            .map(|c| (*c, STRIPE_ACCOUNT, "stripe-tok"))
            .collect();
        m.register_striped(2, &children);
        let dests: Vec<StorageDest> = (0..DU_NYMS)
            .map(|i| {
                if i % 2 == 0 {
                    StorageDest::Disk
                } else {
                    StorageDest::Striped
                }
            })
            .collect();
        let names: Vec<String> = (0..DU_NYMS).map(|i| format!("du-{i}")).collect();
        let ids: Vec<NymId> = names
            .iter()
            .map(|n| create(&mut m, rec, n).unwrap_or(NymId(0)))
            .collect();
        let tag = rng.next_u64();
        let mut du = Self {
            m,
            ids,
            names,
            dests,
            stains: vec![String::new(); DU_NYMS],
            rng,
            tag,
            round: 0,
            log: LogWatch::default(),
            repairs: 0,
        };
        du.browse_and_stain(rec);
        if let Some(kinds) = save_batch(&mut du.m, rec, &du.ids, &du.dests) {
            if kinds.iter().any(|k| *k != SaveKind::Full) {
                rec.wrong_state("durable's first save was not full");
            }
        }
        du
    }

    fn browse_and_stain(&mut self, rec: &mut Recorder) {
        let plan = site_plan(&mut self.rng, &self.dests, self.round);
        for (i, site) in plan.into_iter().enumerate() {
            let id = self.ids[i];
            visit(&mut self.m, rec, id, site);
            let marker = format!("du{:x}-{i}-{}", self.tag, self.round);
            stain(&mut self.m, rec, id, &marker);
            self.stains[i] = marker;
        }
    }

    fn check_logs(&mut self, rec: &mut Recorder) {
        let ip = self.m.public_ip();
        for child in STRIPE_CHILDREN {
            if let Some(p) = self.m.striped_provider(child) {
                self.log.check(child, p, ip, rec);
            }
        }
    }
}

impl Workload for Durable {
    fn nyms(&self) -> usize {
        DU_NYMS
    }

    fn episode_steps(&self) -> usize {
        DU_PERIOD as usize
    }

    fn step(&mut self, rec: &mut Recorder) {
        self.round += 1;
        match (self.round - 1) % DU_PERIOD {
            2 => {
                if let Some(p) = self.m.striped_provider_mut(DARK_CHILD) {
                    p.outage();
                }
            }
            4 => {
                if let Some(p) = self.m.striped_provider_mut(DARK_CHILD) {
                    p.heal();
                }
                rec.attempted += 1;
                let (report, _) = rec.time("repair_striped", || self.m.repair_striped());
                self.repairs += 1;
                let pending = self.m.striped_store().map_or(1, |s| s.pending_repairs());
                if report.is_none_or(|r| r.shards_still_missing > 0) || pending > 0 {
                    rec.wrong_state("striped repair left shards pending");
                }
            }
            _ => {}
        }
        self.browse_and_stain(rec);
        save_batch(&mut self.m, rec, &self.ids, &self.dests);
        if self.round.is_multiple_of(2) {
            for &id in &self.ids {
                destroy(&mut self.m, rec, id);
            }
            for i in 0..DU_NYMS {
                let others: Vec<&str> = (0..DU_NYMS)
                    .filter(|&j| j != i)
                    .map(|j| self.stains[j].as_str())
                    .collect();
                self.ids[i] = reload_checked(
                    &mut self.m,
                    rec,
                    &self.names[i],
                    &self.dests[i],
                    &self.stains[i],
                    &others,
                );
            }
        }
        self.check_logs(rec);
    }

    /// Every 2nd round already loads and checks the whole fleet.
    fn verify(&mut self, _rec: &mut Recorder) {}

    fn manager(&self) -> &NymManager {
        &self.m
    }

    fn at_rest_bytes(&self) -> u64 {
        let striped: u64 = STRIPE_CHILDREN
            .iter()
            .map(|c| subpoena_bytes(self.m.striped_provider(c), STRIPE_ACCOUNT))
            .sum();
        striped + self.m.disk_store().committed_heap_len()
    }

    fn facts(&self) -> Vec<(String, f64)> {
        let disk = self.m.disk_store();
        let live = disk
            .committed_heap_len()
            .saturating_sub(disk.garbage_bytes());
        let tier = disk.tier_stats();
        let [checked, unreadable] = self.log.facts("durable");
        vec![
            checked,
            unreadable,
            ("durable.rounds".into(), self.round as f64),
            ("durable.repairs".into(), self.repairs as f64),
            ("durable.live_disk_bytes".into(), live as f64),
            (
                "durable.live_over_tier".into(),
                live as f64 / nymix_store::disk::DEFAULT_RAM_TIER_BYTES as f64,
            ),
            ("durable.tier_hits".into(), tier.hits as f64),
            ("durable.tier_misses".into(), tier.misses as f64),
        ]
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}
