//! Deadlock-freedom analysis of a routing configuration.
//!
//! Wormhole networks deadlock when the **channel dependency graph**
//! (CDG) contains a cycle: a set of worms each holding a channel the
//! next one needs. With virtual channels the unit of allocation is a
//! *virtual* channel, so the CDG has one node per `(link, VC)` pair; a
//! routing path that enters a switch on channel `a` and leaves on
//! channel `b` contributes the edge `a -> b`. A single-VC platform is
//! the special case where every node sits on VC 0.
//!
//! [`check_deadlock_freedom`] builds the single-VC CDG from configured
//! flow paths; [`check_routing_deadlock_freedom`] builds the per-VC
//! CDG from a [`RoutingTables`] — this is the check the platform
//! compiler runs. Flow-keyed tables contribute each flow's stored,
//! VC-labelled paths; destination-keyed tables contribute their
//! entries directly (entry `(s, d)` depends on entry `(next(s, d), d)`,
//! plus one injection edge per flow), which yields the same edge set
//! without walking a path per flow. Both include injection and
//! ejection links, which can never be part of a cycle but complete the
//! dependency chains, and report the first cycle found.

use crate::graph::Topology;
use crate::routing::{FlowPaths, FlowRoutes, RoutingTables};
use nocem_common::ids::{LinkId, SwitchId, VcId};
use nocem_common::route::RouteHop;

/// A cyclic channel dependency that could deadlock the network.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockCycle {
    /// The links forming the cycle, in dependency order.
    pub links: Vec<LinkId>,
    /// The virtual channel of each link in the cycle. Empty when the
    /// cycle came from the single-VC check ([`check_deadlock_freedom`]),
    /// parallel to `links` otherwise.
    pub vcs: Vec<VcId>,
}

impl std::fmt::Display for DeadlockCycle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "channel dependency cycle:")?;
        for (i, l) in self.links.iter().enumerate() {
            match self.vcs.get(i) {
                Some(vc) => write!(f, " {l}/{vc}")?,
                None => write!(f, " {l}")?,
            }
        }
        Ok(())
    }
}

impl std::error::Error for DeadlockCycle {}

/// Builds the single-VC channel dependency graph of `flows` over
/// `topo` and verifies it is acyclic.
///
/// # Errors
///
/// Returns the first [`DeadlockCycle`] found, if any.
///
/// # Panics
///
/// Panics if a path references a connection that does not exist in
/// `topo` (a configuration-construction bug).
///
/// # Examples
///
/// ```
/// use nocem_topology::builders::paper_setup;
/// use nocem_topology::deadlock::check_deadlock_freedom;
///
/// let p = paper_setup();
/// // Both routing configurations of the paper setup are deadlock-free.
/// check_deadlock_freedom(&p.topology, &p.primary_paths)?;
/// check_deadlock_freedom(&p.topology, &p.dual_paths)?;
/// # Ok::<(), nocem_topology::deadlock::DeadlockCycle>(())
/// ```
pub fn check_deadlock_freedom(topo: &Topology, flows: &[FlowPaths]) -> Result<(), DeadlockCycle> {
    let mut cdg = Cdg::new(topo, 1);
    for fp in flows {
        for path in &fp.paths {
            let hops = path.windows(2).map(|w| link_toward(topo, w[0], w[1]));
            let chain = std::iter::once(topo.endpoint(fp.spec.src).link)
                .chain(hops)
                .chain(std::iter::once(topo.endpoint(fp.spec.dst).link));
            cdg.chain(chain.map(|l| (l, VcId::ZERO)));
        }
    }
    match cdg.find_cycle() {
        Some(nodes) => Err(DeadlockCycle {
            links: nodes.into_iter().map(|(l, _)| l).collect(),
            vcs: Vec::new(),
        }),
        None => Ok(()),
    }
}

/// Builds the per-VC channel dependency graph of routed, VC-labelled
/// paths and verifies it is acyclic — the check that validates the
/// dateline scheme: the same physical ring cycle is broken because its
/// links are visited on different VCs.
///
/// Injection rides VC 0 (the NI's fixed VC) and so does ejection (see
/// [`RoutingTables`]: the receptor is VC-blind, so packets serialize
/// into it).
///
/// # Errors
///
/// Returns the first [`DeadlockCycle`] found, if any, with both the
/// links and their VCs.
///
/// # Panics
///
/// Panics if a path references a connection that does not exist in
/// `topo` (a configuration-construction bug).
pub fn check_routing_deadlock_freedom(
    topo: &Topology,
    tables: &RoutingTables,
) -> Result<(), DeadlockCycle> {
    let mut cdg = Cdg::new(topo, usize::from(tables.max_vc()) + 1);
    match &tables.routes {
        FlowRoutes::Stored { flows, vc_labels } => {
            for fp in flows {
                for (path, labels) in fp.paths.iter().zip(&vc_labels[fp.spec.flow.index()]) {
                    let hops = path
                        .windows(2)
                        .zip(labels)
                        .map(|(w, &vc)| (link_toward(topo, w[0], w[1]), vc));
                    let chain = std::iter::once((topo.endpoint(fp.spec.src).link, VcId::ZERO))
                        .chain(hops)
                        .chain(std::iter::once((
                            topo.endpoint(fp.spec.dst).link,
                            VcId::ZERO,
                        )));
                    cdg.chain(chain);
                }
            }
        }
        FlowRoutes::Walked { specs, .. } => {
            let channel = |s: SwitchId, hop: RouteHop| (topo.out_link(s, hop.port), hop.vc);
            for spec in specs {
                let src = topo.endpoint(spec.src);
                for &hop in tables.lookup(src.switch, spec) {
                    cdg.edge((src.link, VcId::ZERO), channel(src.switch, hop));
                }
            }
            for s in topo.switch_ids() {
                for (key, hops) in tables.switch_table(s).entries() {
                    for &hop in hops {
                        let from = channel(s, hop);
                        let Some(next) = topo.link(from.0).to_switch() else {
                            continue;
                        };
                        for &after in tables.switch_table(next).lookup(key) {
                            cdg.edge(from, channel(next, after));
                        }
                    }
                }
            }
        }
    }
    match cdg.find_cycle() {
        Some(nodes) => {
            let (links, vcs) = nodes.into_iter().unzip();
            Err(DeadlockCycle { links, vcs })
        }
        None => Ok(()),
    }
}

/// A channel dependency graph over dense node indices
/// `link * vcs + vc`, so node order is `(link, vc)` order.
struct Cdg {
    vcs: usize,
    /// Per node: its distinct successors.
    succ: Vec<Vec<u32>>,
}

impl Cdg {
    fn new(topo: &Topology, vcs: usize) -> Self {
        Cdg {
            vcs,
            succ: vec![Vec::new(); topo.link_count() * vcs],
        }
    }

    fn edge(&mut self, from: (LinkId, VcId), to: (LinkId, VcId)) {
        let node = |(link, vc): (LinkId, VcId)| link.index() * self.vcs + vc.index();
        let to = node(to) as u32;
        let succ = &mut self.succ[node(from)];
        // Successor lists are bounded by a switch's output channels.
        if !succ.contains(&to) {
            succ.push(to);
        }
    }

    /// Adds an edge between each consecutive pair of `channels`.
    fn chain(&mut self, channels: impl Iterator<Item = (LinkId, VcId)>) {
        let mut prev = None;
        for c in channels {
            if let Some(p) = prev {
                self.edge(p, c);
            }
            prev = Some(c);
        }
    }

    /// Iterative DFS three-colour cycle detection, deterministic:
    /// nodes and successors are visited in ascending `(link, vc)`
    /// order. Returns the nodes of the first cycle found.
    fn find_cycle(mut self) -> Option<Vec<(LinkId, VcId)>> {
        for succ in &mut self.succ {
            succ.sort_unstable();
        }
        let mut color = vec![0u8; self.succ.len()]; // 0 white 1 grey 2 black
                                                    // Stack of (node, next-successor-index).
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for start in 0..self.succ.len() {
            if color[start] != 0 {
                continue;
            }
            color[start] = 1;
            stack.push((start as u32, 0));
            while let Some((node, idx)) = stack.last_mut() {
                let Some(&next) = self.succ[*node as usize].get(*idx) else {
                    color[*node as usize] = 2;
                    stack.pop();
                    continue;
                };
                *idx += 1;
                match color[next as usize] {
                    0 => {
                        color[next as usize] = 1;
                        stack.push((next, 0));
                    }
                    1 => {
                        // Found a grey node: the cycle is the stack
                        // from it onward.
                        let pos = stack
                            .iter()
                            .position(|&(n, _)| n == next)
                            .expect("grey node is on the stack");
                        return Some(
                            stack[pos..]
                                .iter()
                                .map(|&(n, _)| {
                                    let n = n as usize;
                                    (
                                        LinkId::new((n / self.vcs) as u32),
                                        VcId::new((n % self.vcs) as u8),
                                    )
                                })
                                .collect(),
                        );
                    }
                    _ => {}
                }
            }
        }
        None
    }
}

fn link_toward(topo: &Topology, from: SwitchId, to: SwitchId) -> LinkId {
    topo.switch_neighbors(from)
        .find(|&(_, _, next, _)| next == to)
        .map(|(_, l, _, _)| l)
        .unwrap_or_else(|| panic!("no link {from} -> {to}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{mesh, paper_setup, ring, torus};
    use crate::routing::{
        ring_minimal_path, FlowSpec, RouteAlgorithm, RouteKey, RoutingTables, VcPolicy,
    };

    #[test]
    fn paper_primary_is_deadlock_free() {
        let p = paper_setup();
        check_deadlock_freedom(&p.topology, &p.primary_paths).unwrap();
    }

    #[test]
    fn paper_dual_is_deadlock_free() {
        let p = paper_setup();
        check_deadlock_freedom(&p.topology, &p.dual_paths).unwrap();
    }

    #[test]
    fn ring_all_clockwise_deadlocks() {
        // Force every flow around a 4-ring clockwise: classic CDG
        // cycle.
        let t = ring(4).unwrap();
        let gens = t.generators();
        let recs = t.receptors();
        let s = |i: u32| SwitchId::new(i);
        // Flow i: generator at switch i -> receptor at switch (i+2)%4,
        // path strictly clockwise through i+1.
        let mut flows = Vec::new();
        for i in 0..4u32 {
            let spec = FlowSpec {
                flow: nocem_common::ids::FlowId::new(i),
                src: gens[i as usize],
                dst: recs[((i + 2) % 4) as usize],
            };
            flows.push(FlowPaths {
                spec,
                paths: vec![vec![s(i), s((i + 1) % 4), s((i + 2) % 4)]],
            });
        }
        let err = check_deadlock_freedom(&t, &flows).unwrap_err();
        assert!(err.links.len() >= 3, "cycle: {err}");
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn single_vc_ring_cycle_is_broken_by_dateline_vcs() {
        // The same all-clockwise 4-ring traffic, as a per-VC check: on
        // a single VC it deadlocks, with dateline labels it is safe.
        let t = ring(4).unwrap();
        let gens = t.generators();
        let recs = t.receptors();
        let s = |i: u32| SwitchId::new(i);
        let flows: Vec<FlowPaths> = (0..4u32)
            .map(|i| FlowPaths {
                spec: FlowSpec {
                    flow: nocem_common::ids::FlowId::new(i),
                    src: gens[i as usize],
                    dst: recs[((i + 2) % 4) as usize],
                },
                paths: vec![vec![s(i), s((i + 1) % 4), s((i + 2) % 4)]],
            })
            .collect();
        let single = RoutingTables::from_paths_with(&t, flows.clone(), VcPolicy::SingleVc).unwrap();
        let err = check_routing_deadlock_freedom(&t, &single).unwrap_err();
        assert_eq!(err.links.len(), err.vcs.len(), "per-VC cycle report");
        assert!(err.to_string().contains("/v0"));
        let dateline = RoutingTables::from_paths_with(&t, flows, VcPolicy::Dateline).unwrap();
        check_routing_deadlock_freedom(&t, &dateline).unwrap();
    }

    #[test]
    fn minimal_ring_routing_with_dateline_is_deadlock_free() {
        // Minimal bidirectional-ring routing crosses the wrap-around
        // for long flows; the dateline labels keep the per-VC CDG
        // acyclic for every source/destination pairing.
        for n in [3u32, 4, 5, 6, 8] {
            let t = ring(n).unwrap();
            let mut flows = Vec::new();
            for a in 0..n {
                for b in 0..n {
                    let spec = FlowSpec {
                        flow: nocem_common::ids::FlowId::new(flows.len() as u32),
                        src: t.generator_at(SwitchId::new(a)).unwrap(),
                        dst: t.receptor_at(SwitchId::new(b)).unwrap(),
                    };
                    flows.push(FlowPaths {
                        spec,
                        paths: vec![ring_minimal_path(n, SwitchId::new(a), SwitchId::new(b))],
                    });
                }
            }
            let rt = RoutingTables::from_paths_with(&t, flows, VcPolicy::Dateline).unwrap();
            check_routing_deadlock_freedom(&t, &rt).unwrap();
            if n >= 3 {
                assert!(rt.max_vc() >= 1, "ring{n} paths must cross the dateline");
            }
        }
    }

    #[test]
    fn torus_xy_with_dateline_is_deadlock_free() {
        for (w, h) in [(3u32, 3u32), (4, 4), (5, 3)] {
            let t = torus(w, h).unwrap();
            let flows = FlowSpec::all_pairs(&t);
            let rt = RoutingTables::compute_with(
                &t,
                &flows,
                RouteAlgorithm::TorusXy,
                VcPolicy::Dateline,
            )
            .unwrap();
            check_routing_deadlock_freedom(&t, &rt).unwrap();
            assert!(rt.max_vc() >= 1, "torus{w}x{h} paths must wrap");
        }
    }

    #[test]
    fn shortest_routing_on_ring_is_reported_safe_or_cyclic_consistently() {
        // Whatever BFS picks, the checker must terminate and give a
        // deterministic answer.
        let t = ring(6).unwrap();
        let flows = FlowSpec::one_to_one(&t).unwrap();
        let rt = RoutingTables::compute(&t, &flows, RouteAlgorithm::Shortest).unwrap();
        let a = check_deadlock_freedom(&t, &rt.flows());
        let b = check_deadlock_freedom(&t, &rt.flows());
        assert_eq!(a.is_ok(), b.is_ok());
    }

    /// Per-flow tables over the same paths as `dest`, walked out of it.
    fn per_flow_twin(t: &Topology, dest: &RoutingTables) -> RoutingTables {
        RoutingTables::from_paths_with(t, dest.flows().into_owned(), VcPolicy::SingleVc).unwrap()
    }

    #[test]
    fn destination_cdg_equals_per_flow_cdg_on_a_cyclic_routing() {
        // All-clockwise ring routing depends only on the destination,
        // so it can be keyed by destination — and it deadlocks. Both
        // constructions must report the same first cycle.
        for n in [3u32, 4, 6] {
            let t = ring(n).unwrap();
            let flows = FlowSpec::all_pairs(&t);
            let dest = RoutingTables::by_destination(&t, &flows, |at, _| {
                SwitchId::new((at.raw() + 1) % n)
            })
            .unwrap();
            assert_eq!(dest.key(), RouteKey::Destination);
            let per_flow = per_flow_twin(&t, &dest);
            assert_eq!(per_flow.key(), RouteKey::Flow);
            let err = check_routing_deadlock_freedom(&t, &dest).unwrap_err();
            assert_eq!(Err(err), check_routing_deadlock_freedom(&t, &per_flow));
        }
    }

    #[test]
    fn destination_cdg_equals_per_flow_cdg_on_mesh_xy() {
        for (w, h) in [(1u32, 1u32), (2, 3), (4, 4), (5, 2)] {
            let t = mesh(w, h).unwrap();
            let flows = FlowSpec::all_pairs(&t);
            for policy in [VcPolicy::SingleVc, VcPolicy::Dateline] {
                let dest =
                    RoutingTables::compute_with(&t, &flows, RouteAlgorithm::Xy, policy).unwrap();
                assert_eq!(dest.key(), RouteKey::Destination);
                check_routing_deadlock_freedom(&t, &dest).unwrap();
                check_routing_deadlock_freedom(&t, &per_flow_twin(&t, &dest)).unwrap();
            }
        }
    }

    #[test]
    fn empty_flow_set_is_trivially_safe() {
        let p = paper_setup();
        check_deadlock_freedom(&p.topology, &[]).unwrap();
    }
}
