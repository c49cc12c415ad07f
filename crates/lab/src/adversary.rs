//! Time-phased adversary scripts.
//!
//! A scenario's adversary is a *script*: an ordered list of [`Stage`]s, each
//! active in a window of virtual time — e.g. clean warmup → δ-inflation delay
//! attack → crash → recovery. Scripts are declarative; [`AdversaryScript::compile`]
//! lowers them onto the concrete run: network-level stages become windowed
//! faults in netsim's [`FaultPlan`], and protocol-level stages (the
//! proposal-delay attack) become the `rsm::MisbehaviorPlan` every family's
//! configuration carries. Targets may be symbolic (`OptimizedLeader`, tree
//! intermediates, the sequence of tree roots) and are resolved against the
//! scenario's topology at compile time, exactly the way the hand-written
//! figure harnesses used to probe them.

use crate::scenario::Substrate;
use netsim::{Duration, FaultPlan, FaultWindow, NodeFault, SimTime};
use rsm::SystemConfig;

/// Who a stage applies to. Symbolic targets are resolved at compile time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// A concrete replica id.
    Replica(usize),
    /// The replica the latency optimisation elects as leader over the
    /// scenario topology (the Fig 7 attacker: hit the optimised path).
    OptimizedLeader,
    /// The run's initial proposer: the tree policy's first root on the tree
    /// substrates, the leader of the first view elsewhere (replica 0 for
    /// the fixed HotStuff leader and the initial PBFT leader, replica
    /// `1 % n` for round-robin HotStuff, whose first proposed view is 1).
    /// The Fig 7 attacker for substrates that do not elect an optimised
    /// leader.
    Root,
    /// The first `count` intermediate nodes of the tree the scenario's tree
    /// policy selects (the Fig 11 victims).
    TreeIntermediates {
        /// How many intermediates to target.
        count: usize,
    },
}

/// What a stage does while its window is open.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Attack {
    /// The proposal-delay attack: the target delays its own proposals (and,
    /// on the tree substrates, its forwarded payloads) by `delay` while it
    /// holds the leader/root role. Protocol-level on every substrate; a
    /// substrate without the hook fails compilation instead of degrading to
    /// a network fault.
    DelayProposals {
        /// The attacking replica.
        target: Target,
        /// Extra delay per proposal.
        delay: Duration,
    },
    /// δ-inflation: all of the target's outgoing latency multiplied (§7.6).
    InflateOutgoing {
        /// The attacking replica.
        target: Target,
        /// The multiplier δ.
        factor: f64,
    },
    /// A fixed extra delay on all of the target's outgoing messages.
    DelayOutgoing {
        /// The attacking replica.
        target: Target,
        /// The extra delay.
        extra: Duration,
    },
    /// The target drops all outgoing messages (omission) while active.
    Silence {
        /// The silent replica.
        target: Target,
    },
    /// The target crashes at the stage start and recovers at the stage end
    /// (if the stage is bounded).
    Crash {
        /// The crashing replica.
        target: Target,
    },
    /// Messages on one directed link are dropped.
    DropLink {
        /// Sender side of the link.
        from: usize,
        /// Receiver side of the link.
        to: usize,
    },
    /// Crash the current tree root every `interval`, following the tree
    /// policy's reconfiguration sequence (Fig 15). Tree substrates only.
    CrashRoots {
        /// Time between successive root crashes.
        interval: Duration,
    },
}

/// One phase of the adversary script.
#[derive(Debug, Clone, PartialEq)]
pub struct Stage {
    /// First instant the stage is active.
    pub from: SimTime,
    /// First instant it is inactive again (`None` = until the end).
    pub until: Option<SimTime>,
    /// The behaviour during the stage.
    pub attack: Attack,
}

/// A named, time-phased adversary.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversaryScript {
    /// Label used in point names and JSON params.
    pub label: String,
    /// The phases, in script order.
    pub stages: Vec<Stage>,
}

impl AdversaryScript {
    /// The empty script: every replica is correct.
    pub fn clean() -> Self {
        AdversaryScript {
            label: "clean".to_string(),
            stages: Vec::new(),
        }
    }

    /// An empty script with a label, ready for [`AdversaryScript::at`] /
    /// [`AdversaryScript::during`] stages.
    pub fn named(label: impl Into<String>) -> Self {
        AdversaryScript {
            label: label.into(),
            stages: Vec::new(),
        }
    }

    /// Add an open-ended stage starting at `from`.
    pub fn at(mut self, from: SimTime, attack: Attack) -> Self {
        self.stages.push(Stage {
            from,
            until: None,
            attack,
        });
        self
    }

    /// Add a bounded stage active in `[from, until)`.
    pub fn during(mut self, from: SimTime, until: SimTime, attack: Attack) -> Self {
        assert!(from <= until, "stage ends before it starts");
        self.stages.push(Stage {
            from,
            until: Some(until),
            attack,
        });
        self
    }

    /// Lower the script onto a concrete run.
    pub fn compile(&self, ctx: &CompileContext) -> CompiledAdversary {
        let mut out = CompiledAdversary {
            faults: FaultPlan::none(),
            delay_attacks: Vec::new(),
        };
        for stage in &self.stages {
            let window = match stage.until {
                Some(u) => FaultWindow::between(stage.from, u),
                None => FaultWindow::starting(stage.from),
            };
            match stage.attack {
                Attack::DelayProposals { target, delay } => {
                    // Protocol-level on every substrate: the attacker holds
                    // its own proposals (and, on the trees, its forwarded
                    // payloads) while its other messages flow normally. A
                    // network-level outgoing delay is NOT an acceptable
                    // stand-in — it also slows votes and heartbeats, and a
                    // substrate gap hidden that way would masquerade as a
                    // measured result. A substrate without the hook must
                    // fail compilation loudly instead.
                    assert!(
                        ctx.substrate.protocol_delay_supported(),
                        "substrate {} has no protocol-level proposal-delay hook; \
                         wire rsm::MisbehaviorPlan through its Cluster::build (see \
                         hotstuff::cluster / kauri::cluster) or script an explicit \
                         network-level Attack::DelayOutgoing instead",
                        ctx.substrate.label()
                    );
                    for r in ctx.resolve(target) {
                        out.delay_attacks.push(DelayAttack {
                            replica: r,
                            delay,
                            from: stage.from,
                            until: stage.until.unwrap_or(SimTime::MAX),
                        });
                    }
                }
                Attack::InflateOutgoing { target, factor } => {
                    for r in ctx.resolve(target) {
                        out.faults.add_node_fault_during(
                            r,
                            NodeFault::OutgoingInflation(factor),
                            window,
                        );
                    }
                }
                Attack::DelayOutgoing { target, extra } => {
                    for r in ctx.resolve(target) {
                        out.faults.add_node_fault_during(
                            r,
                            NodeFault::OutgoingDelay(extra),
                            window,
                        );
                    }
                }
                Attack::Silence { target } => {
                    for r in ctx.resolve(target) {
                        out.faults
                            .add_node_fault_during(r, NodeFault::Silent, window);
                    }
                }
                Attack::Crash { target } => {
                    for r in ctx.resolve(target) {
                        match stage.until {
                            Some(u) => {
                                out.faults.crash_between(r, stage.from, u);
                            }
                            None => {
                                out.faults.crash(r, stage.from);
                            }
                        }
                    }
                }
                Attack::DropLink { from, to } => {
                    out.faults
                        .add_link_fault_during(from, to, netsim::LinkFault::Drop, window);
                }
                Attack::CrashRoots { interval } => {
                    let end = stage.until.unwrap_or(ctx.horizon).min(ctx.horizon);
                    for (root, at) in ctx.root_sequence(stage.from, end, interval) {
                        out.faults.crash(root, at);
                    }
                }
            }
        }
        out
    }
}

/// The concrete faults a script lowers to for one run.
#[derive(Debug, Clone, Default)]
pub struct CompiledAdversary {
    /// Network-level faults, handed to the simulator.
    pub faults: FaultPlan,
    /// Protocol-level delay attacks, installed on every family's
    /// configuration as one `rsm::MisbehaviorPlan`.
    pub delay_attacks: Vec<DelayAttack>,
}

/// A protocol-level proposal-delay attack, one entry of the run's misbehavior plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayAttack {
    /// The attacking replica.
    pub replica: usize,
    /// Extra delay per proposal.
    pub delay: Duration,
    /// Attack start.
    pub from: SimTime,
    /// Attack end (`SimTime::MAX` when open-ended).
    pub until: SimTime,
}

/// Everything target resolution needs about the run being compiled.
pub struct CompileContext<'a> {
    /// Number of replicas.
    pub n: usize,
    /// Fault threshold.
    pub f: usize,
    /// The topology's RTT matrix (n × n, ms).
    pub rtt: &'a [f64],
    /// The run horizon (bounds open-ended `CrashRoots` stages).
    pub horizon: SimTime,
    /// The substrate the scenario runs on.
    pub substrate: Substrate,
    /// The seed the scenario uses for its policies, so probes reproduce the
    /// exact trees the run will build.
    pub policy_seed: u64,
}

impl CompileContext<'_> {
    fn resolve(&self, target: Target) -> Vec<usize> {
        match target {
            Target::Replica(r) => {
                assert!(
                    r < self.n,
                    "target replica {r} out of range (n = {})",
                    self.n
                );
                vec![r]
            }
            Target::OptimizedLeader => {
                let all: Vec<usize> = (0..self.n).collect();
                vec![
                    pbft::score::optimize_configuration(self.rtt, self.n, self.f, &all, &[], 1)
                        .0
                        .leader,
                ]
            }
            Target::Root => {
                if self.substrate.is_tree() {
                    vec![self.probe_tree().root]
                } else if self.substrate == Substrate::HotStuffRr {
                    // Round-robin proposes view 1 first: leader(1) = 1 % n.
                    vec![1 % self.n]
                } else {
                    // The fixed HotStuff leader and the initial PBFT leader
                    // are both replica 0 by construction.
                    vec![0]
                }
            }
            Target::TreeIntermediates { count } => self
                .probe_tree()
                .intermediates
                .into_iter()
                .take(count)
                .collect(),
        }
    }

    /// The first tree the scenario's tree policy elects (tree substrates
    /// only): targets are resolved against the exact tree the run will build.
    fn probe_tree(&self) -> kauri::Tree {
        let mut policy = self
            .substrate
            .tree_policy(self.n, self.rtt.to_vec(), self.policy_seed);
        let system = SystemConfig::new(self.n);
        policy.next_tree(self.n, system.tree_branch_factor())
    }

    /// The sequence of roots the tree policy elects, with the time each gets
    /// crashed: the Fig 15 probe. Stops when a root repeats (the policy
    /// cycled) or the window ends.
    fn root_sequence(
        &self,
        from: SimTime,
        end: SimTime,
        interval: Duration,
    ) -> Vec<(usize, SimTime)> {
        assert!(
            !self.substrate.is_pbft(),
            "CrashRoots requires a tree substrate, got {}",
            self.substrate.label()
        );
        let mut policy = self
            .substrate
            .tree_policy(self.n, self.rtt.to_vec(), self.policy_seed);
        let system = SystemConfig::new(self.n);
        let branch = system.tree_branch_factor();
        let mut crashed = Vec::new();
        let mut at = from;
        while at < end {
            let tree = policy.next_tree(self.n, branch);
            if crashed.iter().any(|&(r, _)| r == tree.root) {
                break;
            }
            crashed.push((tree.root, at));
            policy.on_view_failure(&[tree.root]);
            at += interval;
        }
        crashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Deployment, Topology};

    fn ctx(rtt: &[f64], n: usize, substrate: Substrate) -> CompileContext<'_> {
        CompileContext {
            n,
            f: (n - 1) / 3,
            rtt,
            horizon: SimTime::from_secs(60),
            substrate,
            policy_seed: 7,
        }
    }

    #[test]
    fn clean_script_compiles_to_nothing() {
        let rtt = Topology::of(Deployment::Europe21).rtt_matrix(0);
        let compiled = AdversaryScript::clean().compile(&ctx(&rtt, 21, Substrate::BftSmart));
        assert!(compiled.delay_attacks.is_empty());
        assert!(compiled
            .faults
            .effective_delay(SimTime::from_secs(30), 0, 1, Duration::from_millis(10))
            .is_some());
    }

    #[test]
    fn delay_attack_is_protocol_level_on_pbft() {
        let rtt = Topology::of(Deployment::Europe21).rtt_matrix(0);
        let script = AdversaryScript::named("delay").during(
            SimTime::from_secs(10),
            SimTime::from_secs(20),
            Attack::DelayProposals {
                target: Target::OptimizedLeader,
                delay: Duration::from_millis(600),
            },
        );
        let compiled = script.compile(&ctx(&rtt, 21, Substrate::OptiAware));
        assert_eq!(compiled.delay_attacks.len(), 1);
        let atk = compiled.delay_attacks[0];
        assert_eq!(atk.from, SimTime::from_secs(10));
        assert_eq!(atk.until, SimTime::from_secs(20));
        // The resolved attacker is the optimiser's leader pick.
        let expect =
            pbft::score::optimize_configuration(&rtt, 21, 6, &(0..21).collect::<Vec<_>>(), &[], 1)
                .0
                .leader;
        assert_eq!(atk.replica, expect);
        // No network-level fault was emitted for it.
        assert!(compiled
            .faults
            .effective_delay(
                SimTime::from_secs(15),
                atk.replica,
                0,
                Duration::from_millis(5)
            )
            .is_some());
    }

    /// The regression this PR exists for: `DelayProposals` must stay a
    /// protocol-level behaviour on the tree substrates, never a silent
    /// network-level approximation (which also slows votes and heartbeats
    /// and misrepresents the paper's adversary).
    #[test]
    fn delay_attack_is_protocol_level_on_tree_substrates() {
        let rtt = Topology::of(Deployment::Europe21).rtt_matrix(0);
        for substrate in [
            Substrate::Kauri,
            Substrate::KauriSa,
            Substrate::OptiTree,
            Substrate::OptiTreeNoPipeline,
            Substrate::HotStuffFixed,
            Substrate::HotStuffRr,
        ] {
            let script = AdversaryScript::named("delay").at(
                SimTime::from_secs(5),
                Attack::DelayProposals {
                    target: Target::Replica(3),
                    delay: Duration::from_millis(100),
                },
            );
            let compiled = script.compile(&ctx(&rtt, 21, substrate));
            assert_eq!(compiled.delay_attacks.len(), 1, "{}", substrate.label());
            let atk = compiled.delay_attacks[0];
            assert_eq!(atk.replica, 3);
            assert_eq!(atk.until, SimTime::MAX, "open-ended stage");
            // No network-level fault was emitted as a stand-in.
            let d = compiled
                .faults
                .effective_delay(SimTime::from_secs(6), 3, 0, Duration::from_millis(10))
                .unwrap();
            assert_eq!(d.as_millis(), 10, "{}", substrate.label());
        }
    }

    #[test]
    fn root_target_resolves_to_probe_tree_root_on_trees() {
        let rtt = Topology::of(Deployment::Europe21).rtt_matrix(0);
        let script = AdversaryScript::named("root-delay").at(
            SimTime::from_secs(5),
            Attack::DelayProposals {
                target: Target::Root,
                delay: Duration::from_millis(600),
            },
        );
        let compiled = script.compile(&ctx(&rtt, 21, Substrate::OptiTreeNoPipeline));
        // The attacker is the first tree's root, reproduced via the same
        // seeded policy the run will use.
        let mut policy = Substrate::OptiTreeNoPipeline.tree_policy(21, rtt.to_vec(), 7);
        let expect = policy
            .next_tree(21, SystemConfig::new(21).tree_branch_factor())
            .root;
        assert_eq!(compiled.delay_attacks[0].replica, expect);
        // On non-tree substrates the initial proposer is the first view's
        // leader: replica 0 for the fixed pacemaker, 1 % n for round-robin.
        let hs = script.compile(&ctx(&rtt, 21, Substrate::HotStuffFixed));
        assert_eq!(hs.delay_attacks[0].replica, 0);
        let rr = script.compile(&ctx(&rtt, 21, Substrate::HotStuffRr));
        assert_eq!(rr.delay_attacks[0].replica, 1);
    }

    #[test]
    fn phased_inflation_and_crash_recovery_compile_to_windowed_faults() {
        let rtt = Topology::of(Deployment::Europe21).rtt_matrix(0);
        let script = AdversaryScript::named("phased")
            .during(
                SimTime::from_secs(10),
                SimTime::from_secs(20),
                Attack::InflateOutgoing {
                    target: Target::Replica(2),
                    factor: 2.0,
                },
            )
            .during(
                SimTime::from_secs(30),
                SimTime::from_secs(40),
                Attack::Crash {
                    target: Target::Replica(2),
                },
            );
        let compiled = script.compile(&ctx(&rtt, 21, Substrate::Kauri));
        let base = Duration::from_millis(10);
        let f = &compiled.faults;
        assert_eq!(
            f.effective_delay(SimTime::from_secs(5), 2, 0, base)
                .unwrap(),
            base
        );
        assert_eq!(
            f.effective_delay(SimTime::from_secs(15), 2, 0, base)
                .unwrap()
                .as_millis(),
            20
        );
        assert_eq!(
            f.effective_delay(SimTime::from_secs(25), 2, 0, base)
                .unwrap(),
            base
        );
        assert!(f.is_crashed(2, SimTime::from_secs(35)));
        assert!(!f.is_crashed(2, SimTime::from_secs(40)));
        assert_eq!(
            f.effective_delay(SimTime::from_secs(45), 2, 0, base)
                .unwrap(),
            base
        );
    }

    #[test]
    fn crash_roots_follows_policy_sequence() {
        let top = Topology::of(Deployment::Europe21);
        let rtt = top.rtt_matrix(0);
        let script = AdversaryScript::named("root-crashes").at(
            SimTime::from_secs(10),
            Attack::CrashRoots {
                interval: Duration::from_secs(10),
            },
        );
        let compiled = script.compile(&ctx(&rtt, 21, Substrate::OptiTreeNoPipeline));
        let schedule = compiled.faults.crash_schedule();
        assert!(!schedule.is_empty(), "at least the first root is crashed");
        // Crash times are spaced by the interval, within the horizon.
        for (i, &(_, t)) in schedule.iter().enumerate() {
            assert_eq!(t, SimTime::from_secs(10 + 10 * i as u64));
            assert!(t < SimTime::from_secs(60));
        }
        // No root is crashed twice.
        let mut roots: Vec<usize> = schedule.iter().map(|&(r, _)| r).collect();
        roots.sort_unstable();
        roots.dedup();
        assert_eq!(roots.len(), schedule.len());
    }

    #[test]
    fn tree_intermediates_resolve_against_probe_tree() {
        let top = Topology::of(Deployment::Europe21);
        let rtt = top.rtt_matrix(0);
        let script = AdversaryScript::named("inflate-intermediates").at(
            SimTime::ZERO,
            Attack::InflateOutgoing {
                target: Target::TreeIntermediates { count: 2 },
                factor: 1.4,
            },
        );
        let compiled = script.compile(&ctx(&rtt, 21, Substrate::OptiTreeNoPipeline));
        // Exactly two senders are inflated.
        let inflated: Vec<usize> = (0..21)
            .filter(|&r| {
                compiled
                    .faults
                    .effective_delay(SimTime::ZERO, r, (r + 1) % 21, Duration::from_millis(100))
                    .unwrap()
                    .as_millis()
                    > 100
            })
            .collect();
        assert_eq!(inflated.len(), 2);
    }
}
