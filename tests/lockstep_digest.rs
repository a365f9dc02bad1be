//! Lock-step outcome pin: the sequential `Lockstep` engine, folded into
//! digests and compared with constants recorded from the kernel that
//! swept its whole active set every slot.
//!
//! The identity suites compare two users of the same `SlotKernel`
//! (Lockstep ↔ Sharded ↔ stepper), so a kernel change that moved the
//! visit order or the RNG use of *both* would pass them. This suite
//! pins the kernel to fixed numbers instead, on the paths its sweeps
//! skip or reorder:
//!
//! - staggered wake-ups, so the active set is in wake order, not id
//!   order, under `Ideal`, `ProbabilisticLoss` and the order-sensitive
//!   `AdversarialJam`;
//! - members that retire (`Silent { until: None }` once decided, or
//!   decided while already silent for good), are compacted out, and are
//!   re-activated by a reception that hands them a new segment; in the
//!   `Beacons` scenario deciding in place is the only way to retire, so
//!   a compaction skipped there moves a re-activated member in the
//!   active set;
//! - p = 1 segments, which draw no randomness;
//! - two members raising a protocol error in the same slot, in the
//!   deadline phase and in the transmit phase, where the reported error
//!   is the first one in visit order.
//!
//! Each digest folds every run's per-node stats, `slots_run`,
//! `all_decided`, error, fault log and each node's hash of the messages
//! it heard through `splitmix64`.
//!
//! The same inputs also pin the two engines that step the kernel in
//! their own order: `EventSkip` (heap events, geometric transmission
//! skips) and `Jittered` (half-slot phases drawn from the run seed).
//! Their tables were recorded from the code before `EventSkip` moved
//! onto the kernel's delivery phase, so that move, and any later change
//! to either engine's draw or delivery order, shows as a changed digest.

use radio_graph::generators::gnp;
use radio_graph::{Graph, Partition};
use radio_sim::rng::splitmix64;
use radio_sim::{
    run_sharded, Behavior, BehaviorFault, ChannelSpec, EngineKind, EventSkip, Lockstep,
    NullMonitor, RadioProtocol, SimConfig, SimDriver, SimOutcome, Slot,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A member's part in a run.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Role {
    /// Random-length transmit and silent segments switched by deadlines;
    /// a quarter start as pure listeners.
    Mixed,
    /// A pure listener (`Silent { until: None }`) from wake-up.
    Listener,
    /// Transmits with p = 0.2 for good and ignores what it hears.
    Beacon,
    /// Its deadline at `DOOM_SLOT` returns an invalid probability.
    FailDeadline,
    /// It transmits with p = 1 at `DOOM_SLOT`, and `message` reports a
    /// contract breach.
    FailMessage,
}

/// A member decides on its `need`-th reception. A listener then decides
/// in place; anyone else retires to `Silent { until: None }`. A retired
/// member that hears a message sometimes relapses: a `Mixed` one into a
/// short transmit segment, whose deadline retires it again, a
/// `Listener` into transmitting for good.
struct Drifter {
    id: u32,
    need: u64,
    got: u64,
    /// Current segment is `Silent { until: None }`.
    forever: bool,
    /// Hash of every message heard, in order.
    heard: u64,
    role: Role,
    breach: Option<BehaviorFault>,
}

impl Drifter {
    fn new(id: u32, need: u64, role: Role) -> Self {
        Drifter {
            id,
            need,
            got: 0,
            forever: false,
            heard: 0,
            role,
            breach: None,
        }
    }

    fn failing(&self) -> bool {
        matches!(self.role, Role::FailDeadline | Role::FailMessage)
    }

    fn set(&mut self, b: Behavior) -> Behavior {
        self.forever = b == Behavior::Silent { until: None };
        b
    }

    fn segment(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        let b = if rng.gen_bool(0.5) {
            Behavior::Transmit {
                p: if rng.gen_bool(0.1) {
                    1.0
                } else {
                    rng.gen_range(0.05..0.6)
                },
                until: Some(now + rng.gen_range(1..6)),
            }
        } else {
            Behavior::Silent {
                until: Some(now + rng.gen_range(1..4)),
            }
        };
        self.set(b)
    }
}

impl RadioProtocol for Drifter {
    type Message = u32;

    fn on_wake(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        match self.role {
            Role::FailDeadline | Role::FailMessage => self.set(Behavior::Silent {
                until: Some(DOOM_SLOT),
            }),
            Role::Beacon => self.set(Behavior::Transmit {
                p: 0.2,
                until: None,
            }),
            Role::Listener => self.set(Behavior::Silent { until: None }),
            Role::Mixed if rng.gen_bool(0.25) => self.set(Behavior::Silent { until: None }),
            Role::Mixed => self.segment(now, rng),
        }
    }

    fn on_deadline(&mut self, now: Slot, rng: &mut SmallRng) -> Behavior {
        match self.role {
            Role::FailDeadline => Behavior::Transmit {
                p: 2.0,
                until: None,
            },
            Role::FailMessage => self.set(Behavior::Transmit {
                p: 1.0,
                until: None,
            }),
            _ if self.is_decided() => self.set(Behavior::Silent { until: None }),
            _ => self.segment(now, rng),
        }
    }

    fn message(&mut self, now: Slot, rng: &mut SmallRng) -> u32 {
        if self.role == Role::FailMessage && now == DOOM_SLOT {
            self.breach = Some(BehaviorFault::ContractBreach {
                context: "doomed transmission",
            });
        }
        self.id ^ (rng.gen_range(0..16) << 8)
    }

    fn on_receive(&mut self, now: Slot, msg: &u32, rng: &mut SmallRng) -> Option<Behavior> {
        self.got += 1;
        self.heard = self.heard.rotate_left(7) ^ u64::from(*msg);
        if self.failing() || self.role == Role::Beacon {
            return None;
        }
        if self.got < self.need {
            if !self.forever && rng.gen_bool(0.3) {
                return Some(self.segment(now, rng));
            }
            return None;
        }
        if self.got == self.need {
            // A listener decides in place; anyone else retires.
            return (!self.forever).then(|| self.set(Behavior::Silent { until: None }));
        }
        if self.forever && rng.gen_bool(0.25) {
            let p = rng.gen_range(0.2..0.9);
            let until = (self.role == Role::Mixed).then(|| now + rng.gen_range(1..4));
            return Some(self.set(Behavior::Transmit { p, until }));
        }
        None
    }

    fn is_decided(&self) -> bool {
        self.got >= self.need
    }

    fn take_breach(&mut self) -> Option<BehaviorFault> {
        self.breach.take()
    }
}

/// One digest over many runs.
struct Digest(u64);

impl Digest {
    fn push(&mut self, x: u64) {
        let mut s = self.0 ^ x;
        self.0 = splitmix64(&mut s);
    }

    fn push_debug(&mut self, x: &impl std::fmt::Debug) {
        for b in format!("{x:?}").bytes() {
            self.push(u64::from(b));
        }
    }

    fn outcome(&mut self, out: &SimOutcome<Drifter>) {
        for (s, p) in out.stats.iter().zip(&out.protocols) {
            self.push(s.wake);
            self.push(s.decided_at.unwrap_or(u64::MAX));
            for x in [s.sent, s.received, s.collisions, s.drops, s.jams, p.heard] {
                self.push(x);
            }
        }
        self.push(out.slots_run);
        self.push(u64::from(out.all_decided));
        self.push_debug(&out.error);
        self.push_debug(&out.faults);
        self.push(out.faults_dropped);
    }
}

/// The two failing members of an error scenario, with their wake
/// slots: the higher id wakes first, so visit order (wake order) and id
/// order disagree on which error is first.
const DOOMED: [(u32, Slot); 2] = [(17, 1), (4, 6)];
const DOOM_SLOT: Slot = 30;

/// The scenarios, in the row order of `PINNED`.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// Every member `Mixed`.
    Clean,
    /// `Mixed`, but the `DOOMED` members fail in the deadline phase.
    DeadlineErrors,
    /// `Mixed`, but the `DOOMED` members fail in the transmit phase.
    MessageErrors,
    /// Every fourth member a `Beacon`, the rest `Listener`s: members
    /// retire only by deciding in place, and a reception re-activates
    /// them, so the active set's order after compaction shows.
    Beacons,
}

const SCENARIOS: [Scenario; 4] = [
    Scenario::Clean,
    Scenario::DeadlineErrors,
    Scenario::MessageErrors,
    Scenario::Beacons,
];

impl Scenario {
    fn role(self, v: u32) -> Role {
        let doomed = DOOMED.iter().any(|&(d, _)| d == v);
        match self {
            Scenario::DeadlineErrors if doomed => Role::FailDeadline,
            Scenario::MessageErrors if doomed => Role::FailMessage,
            Scenario::Beacons if v.is_multiple_of(4) => Role::Beacon,
            Scenario::Beacons => Role::Listener,
            _ => Role::Mixed,
        }
    }
}

fn instance(n: usize, seed: u64, scenario: Scenario) -> (Graph, Vec<Slot>, Vec<Drifter>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let g = gnp(n, 0.25, &mut rng);
    let mut wake: Vec<Slot> = (0..n).map(|_| rng.gen_range(0..40)).collect();
    let protos: Vec<Drifter> = (0..n as u32)
        .map(|v| Drifter::new(v, 1 + u64::from(v % 3), scenario.role(v)))
        .collect();
    for (v, w) in DOOMED {
        if protos[v as usize].failing() {
            wake[v as usize] = w;
        }
    }
    (g, wake, protos)
}

const CHANNELS: [(&str, ChannelSpec); 3] = [
    ("ideal", ChannelSpec::Ideal),
    ("loss", ChannelSpec::ProbabilisticLoss { p: 0.25 }),
    (
        "jam",
        ChannelSpec::AdversarialJam {
            window: 12,
            budget: 3,
        },
    ),
];

const SEEDS: [u64; 4] = [1, 2, 3, 4];
const N: usize = 40;

/// One engine's run of an instance: graph, wake schedule, protocols,
/// seed and configuration.
type Run = fn(&Graph, &[Slot], Vec<Drifter>, u64, &SimConfig) -> SimOutcome<Drifter>;

/// The digest of every seed's `run` of `scenario` under `channel`, plus
/// the reported error of the last seed's run.
fn digest(scenario: Scenario, channel: ChannelSpec, run: Run) -> (u64, Option<(u32, Slot)>) {
    let cfg = SimConfig::with_max_slots(2_000).with_channel(channel);
    let mut d = Digest(0);
    let mut last_error = None;
    for seed in SEEDS {
        let (g, wake, protos) = instance(N, seed, scenario);
        let out = run(&g, &wake, protos, seed, &cfg);
        d.outcome(&out);
        last_error = out.error.map(|e| (e.node, e.slot));
    }
    (d.0, last_error)
}

/// [`digest`] of the sequential `Lockstep` engine.
fn lockstep_digest(scenario: Scenario, channel: ChannelSpec) -> (u64, Option<(u32, Slot)>) {
    digest(scenario, channel, |g, wake, protos, seed, cfg| {
        SimDriver::run::<Lockstep>(g, wake, protos, (), seed, cfg, &mut NullMonitor)
    })
}

/// `run`'s digests, `[scenario][channel]`.
fn table(run: Run) -> [[u64; 3]; 4] {
    SCENARIOS.map(|s| CHANNELS.map(|(_, spec)| digest(s, spec, run).0))
}

/// Recorded from the full-sweep kernel: `[scenario][channel]`, in the
/// order of `SCENARIOS` and `CHANNELS`.
const PINNED: [[u64; 3]; 4] = [
    [
        0xd357_0a21_91be_a99e,
        0x35f2_564f_b65f_b923,
        0x0510_21c9_9125_9ad5,
    ],
    [
        0xa19f_6e36_2209_7253,
        0x259d_6acf_64f7_5ffb,
        0x3679_50f0_6608_c547,
    ],
    [
        0x2674_d55a_b587_fffa,
        0xa81c_82a0_ad4c_c29b,
        0x5a94_13f5_5c44_ce87,
    ],
    [
        0x0140_64d5_1340_47c9,
        0x9102_5e54_01ad_34da,
        0x8fe0_2af5_768c_755a,
    ],
];

#[test]
fn lockstep_outcomes_match_the_pinned_digests() {
    let got = SCENARIOS.map(|s| CHANNELS.map(|(_, spec)| lockstep_digest(s, spec).0));
    assert_eq!(got, PINNED, "digests [scenario][channel]: {got:#018x?}");
}

#[test]
fn same_slot_errors_report_the_first_in_visit_order() {
    // Both doomed members fail in the doom slot; the one that woke
    // first comes first in the active set, although its id is higher.
    for scenario in [Scenario::DeadlineErrors, Scenario::MessageErrors] {
        for (channel, spec) in CHANNELS {
            let (_, err) = lockstep_digest(scenario, spec);
            assert_eq!(
                err,
                Some((DOOMED[0].0, DOOM_SLOT)),
                "{scenario:?} under {channel}"
            );
        }
    }
}

#[test]
fn sharded_shards_match_the_pinned_digests() {
    // Error-free runs on shardable channels: every shard's kernel must
    // reproduce the same numbers.
    for (s, scenario) in SCENARIOS.into_iter().enumerate() {
        if matches!(scenario, Scenario::DeadlineErrors | Scenario::MessageErrors) {
            continue;
        }
        for (c, (name, spec)) in CHANNELS.iter().enumerate().take(2) {
            let cfg = SimConfig::with_max_slots(2_000).with_channel(*spec);
            for k in [2, 3] {
                let mut d = Digest(0);
                for seed in SEEDS {
                    let (g, wake, protos) = instance(N, seed, scenario);
                    let out = run_sharded(
                        &g,
                        &wake,
                        protos,
                        seed,
                        &cfg,
                        &mut NullMonitor,
                        &Partition::contiguous(N, k),
                    );
                    d.outcome(&out);
                }
                assert_eq!(d.0, PINNED[s][c], "{scenario:?}, {name}, {k} shards");
            }
        }
    }
}

/// Recorded from `EventSkip` with its own delivery loop:
/// `[scenario][channel]`, in the order of `SCENARIOS` and `CHANNELS`.
const PINNED_EVENT: [[u64; 3]; 4] = [
    [
        0x13bb_ec08_1635_7af5,
        0xeb53_554e_f70d_a06b,
        0x644b_78fc_1ee3_bb8d,
    ],
    [
        0x06c6_4af9_6374_97a5,
        0xdb21_edc5_cc62_081d,
        0x2ab9_f259_bf7e_1788,
    ],
    [
        0x691e_31ef_3de8_b2ad,
        0xd1b9_cfe5_f204_2522,
        0x37ed_19de_0db7_4f3e,
    ],
    [
        0x611f_0ef6_d446_841b,
        0x5f9d_7e04_1927_c140,
        0x195c_c5c6_b353_d337,
    ],
];

/// Recorded from `Jittered` with seeded mixed phases (the phases
/// `EngineKind::Jittered` draws from the run seed), in the same order.
const PINNED_JITTERED: [[u64; 3]; 4] = [
    [
        0x3aea_7a0a_79f8_4a74,
        0xffba_e30b_b294_e979,
        0xe2c8_77f5_5154_0ca1,
    ],
    [
        0x58cd_c909_6d1e_2d2a,
        0x4209_15e4_d0b3_4e0e,
        0xddc6_cb27_d1a3_0b39,
    ],
    [
        0x17a5_bae6_091e_67fb,
        0xe675_70fd_1804_b264,
        0x1bcb_824a_6778_f312,
    ],
    [
        0x0189_5b2f_4cbb_9381,
        0x8526_4a12_56b1_e668,
        0x0e05_ea50_c739_55ad,
    ],
];

#[test]
fn event_outcomes_match_the_pinned_digests() {
    let got = table(|g, wake, protos, seed, cfg| {
        SimDriver::run::<EventSkip>(g, wake, protos, (), seed, cfg, &mut NullMonitor)
    });
    assert_eq!(
        got, PINNED_EVENT,
        "digests [scenario][channel]: {got:#018x?}"
    );
}

#[test]
fn jittered_outcomes_match_the_pinned_digests() {
    let got =
        table(|g, wake, protos, seed, cfg| EngineKind::Jittered.run(g, wake, protos, seed, cfg));
    assert_eq!(
        got, PINNED_JITTERED,
        "digests [scenario][channel]: {got:#018x?}"
    );
}
