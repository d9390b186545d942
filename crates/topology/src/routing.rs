//! Routing tables: from flows and paths to per-switch output-hop sets.
//!
//! Every head flit carries its [`FlowId`] and its destination, and each
//! switch holds a small table mapping a routing key to the set of
//! admissible [`RouteHop`]s — an output port plus the virtual channel
//! the packet continues on (one hop for deterministic routing, two for
//! the paper's "two routing possibilities"). The key is the flow, or
//! the destination when the routing function depends on nothing else
//! (see [`RoutingTables`] and [`RouteKey`]). This module computes those
//! tables from a [`Topology`] and a list of [`FlowSpec`]s using one of
//! several algorithms, or from explicitly given paths (which is how the
//! paper's experimental setup pins its hot links).
//!
//! Virtual-channel assignment is a labelling pass over the computed
//! paths, selected by [`VcPolicy`]: [`VcPolicy::SingleVc`] keeps every
//! hop on VC 0 (the original single-VC platform), while
//! [`VcPolicy::Dateline`] moves a packet to VC 1 from the first
//! wrap-around hop onward — the standard deadlock-avoidance scheme
//! that lets rings and tori route *minimally* across their wrap links
//! while the per-VC channel-dependency graph stays acyclic.
//!
//! Flow-keyed tables retain the configured paths and their VC labels
//! inside [`RoutingTables`]; destination-keyed tables retain only the
//! flows and recover each path by walking the tables. Either way,
//! downstream analyses (deadlock check, link load prediction) can
//! reason about the paths.

use crate::graph::{EndpointKind, GridInfo, Topology};
use crate::TopologyError;
use nocem_common::ids::{EndpointId, FlowId, PortId, SwitchId, VcId};
use std::borrow::Cow;
use std::collections::{BinaryHeap, HashSet};

/// A (source endpoint, destination endpoint) traffic flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowSpec {
    /// Dense flow id (index into routing tables).
    pub flow: FlowId,
    /// Source traffic generator.
    pub src: EndpointId,
    /// Destination traffic receptor.
    pub dst: EndpointId,
}

impl FlowSpec {
    /// Pairs generator *i* with receptor *i* (the common benchmark
    /// pattern, and the paper setup's flow structure).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::FlowMismatch`] if the topology does not
    /// have the same number of generators and receptors.
    pub fn one_to_one(topo: &Topology) -> Result<Vec<FlowSpec>, TopologyError> {
        let gens = topo.generators();
        let recs = topo.receptors();
        if gens.len() != recs.len() {
            return Err(TopologyError::FlowMismatch {
                generators: gens.len(),
                receptors: recs.len(),
            });
        }
        Ok(gens
            .iter()
            .zip(&recs)
            .enumerate()
            .map(|(i, (&src, &dst))| FlowSpec {
                flow: FlowId::new(i as u32),
                src,
                dst,
            })
            .collect())
    }

    /// One flow from every generator to every receptor (uniform-random
    /// destination traffic uses the whole set).
    pub fn all_pairs(topo: &Topology) -> Vec<FlowSpec> {
        let mut flows = Vec::new();
        for src in topo.generators() {
            for dst in topo.receptors() {
                flows.push(FlowSpec {
                    flow: FlowId::new(flows.len() as u32),
                    src,
                    dst,
                });
            }
        }
        flows
    }
}

/// A path through the switch graph, from the source's switch to the
/// destination's switch (inclusive).
pub type Path = Vec<SwitchId>;

pub use nocem_common::route::{RouteHop, RouteKey, RouteTable};

/// How virtual channels are assigned along computed paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VcPolicy {
    /// Every hop rides VC 0 — the original single-VC platform.
    #[default]
    SingleVc,
    /// Dateline scheme for rings and tori: a packet starts on VC 0 and
    /// switches to VC 1 from the first wrap-around hop of each
    /// dimension onward (the wrap hop itself already rides VC 1).
    /// Requires switches configured with at least 2 VCs whenever a
    /// path actually wraps; degenerates to [`VcPolicy::SingleVc`] on
    /// topologies without wrap-around links.
    Dateline,
}

/// The configured path alternatives of one flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowPaths {
    /// The flow.
    pub spec: FlowSpec,
    /// 1 to k loop-free switch paths. The first path is the primary.
    pub paths: Vec<Path>,
}

/// Routing algorithm selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteAlgorithm {
    /// Single deterministic shortest path (BFS, lowest-id tie-break).
    Shortest,
    /// Up to `k` shortest loop-free paths (Yen's algorithm); paths
    /// whose table union would allow a routing cycle are dropped.
    KShortest(usize),
    /// Dimension-ordered X-then-Y routing; requires grid metadata.
    Xy,
    /// Dimension-ordered X-then-Y routing that takes the shorter
    /// direction around each dimension, using wrap-around links where
    /// they exist (tori). Requires grid metadata; ties break toward
    /// the direct (non-wrapping) direction, so on a mesh it reduces
    /// to [`RouteAlgorithm::Xy`]. Pair with [`VcPolicy::Dateline`]
    /// and 2 VCs to keep the wrap-crossing paths deadlock-free.
    TorusXy,
}

/// Per-switch sparse output-hop tables, plus what is needed to recover
/// every flow's path from them.
///
/// The tables are keyed by destination ([`RouteKey::Destination`])
/// when the routing function depends only on the current switch and
/// the destination — [`RouteAlgorithm::Xy`], under either [`VcPolicy`]
/// (XY paths never take a wrap-around hop, so every label is VC 0).
/// Every other routing keeps per-flow tables ([`RouteKey::Flow`]):
/// [`RouteAlgorithm::TorusXy`] with [`VcPolicy::Dateline`] picks the
/// out-VC by whether the packet already crossed the dimension's wrap
/// link, so two flows toward one destination can leave a switch on
/// different VCs;
/// [`RouteAlgorithm::Shortest`], [`RouteAlgorithm::KShortest`] and
/// explicit paths are per-flow by construction.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    /// `[switch] -> sparse table` (a key has hops only at the switches
    /// its paths visit; see [`RouteTable`]). Sparseness keeps
    /// all-to-all patterns on large grids feasible: a dense
    /// `[switch][flow]` layout is `O(switches^3)` for uniform-random
    /// traffic.
    table: Vec<RouteTable>,
    /// What every table in `table` is keyed by.
    key: RouteKey,
    /// The flows and their paths (read by the deadlock check).
    pub(crate) routes: FlowRoutes,
}

/// Where the flows' paths live.
#[derive(Debug, Clone)]
pub(crate) enum FlowRoutes {
    /// Flow-keyed tables keep the configured paths and their VC labels
    /// (`[flow][path][hop] -> VC`, `path.len() - 1` labels per path).
    Stored {
        flows: Vec<FlowPaths>,
        vc_labels: Vec<Vec<Vec<VcId>>>,
    },
    /// Destination-keyed tables keep only the flows: a flow's single
    /// path is the walk from its source switch along its destination's
    /// entries.
    Walked {
        specs: Vec<FlowSpec>,
        /// `[endpoint] -> switch it attaches to`.
        endpoint_switch: Vec<SwitchId>,
        /// `[switch][output port] -> downstream switch` (`None` for
        /// ejection ports).
        next_switch: Vec<Vec<Option<SwitchId>>>,
    },
}

impl RoutingTables {
    /// Computes single-VC tables for `flows` over `topo` using `algo`
    /// (every hop on VC 0). Shorthand for [`RoutingTables::compute_with`]
    /// with [`VcPolicy::SingleVc`].
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] when a flow's endpoints have the wrong
    /// kind, no path exists, or (for the XY algorithms) the topology
    /// carries no grid metadata.
    pub fn compute(
        topo: &Topology,
        flows: &[FlowSpec],
        algo: RouteAlgorithm,
    ) -> Result<Self, TopologyError> {
        Self::compute_with(topo, flows, algo, VcPolicy::SingleVc)
    }

    /// Computes tables for `flows` over `topo` using `algo`, labelling
    /// every path's hops with virtual channels per `policy`.
    /// [`RouteAlgorithm::Xy`] yields destination-keyed tables, every
    /// other algorithm flow-keyed ones (see [`RoutingTables`]).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError`] when a flow's endpoints have the wrong
    /// kind, no path exists, or (for the XY algorithms) the topology
    /// carries no grid metadata.
    pub fn compute_with(
        topo: &Topology,
        flows: &[FlowSpec],
        algo: RouteAlgorithm,
        policy: VcPolicy,
    ) -> Result<Self, TopologyError> {
        if algo == RouteAlgorithm::Xy {
            if let Some(grid) = topo.grid() {
                return Self::by_destination(topo, flows, |at, to| xy_step(grid, at, to));
            }
        }
        let mut flow_paths = Vec::with_capacity(flows.len());
        for spec in flows {
            let (from, to) = endpoints_switches(topo, spec)?;
            let paths = match algo {
                RouteAlgorithm::Shortest => {
                    vec![shortest_path(topo, from, to)
                        .ok_or(TopologyError::NoRoute { flow: spec.flow })?]
                }
                RouteAlgorithm::KShortest(k) => {
                    let all = k_shortest_paths(topo, from, to, k.max(1));
                    if all.is_empty() {
                        return Err(TopologyError::NoRoute { flow: spec.flow });
                    }
                    prune_to_acyclic(all)
                }
                // A grid topology was routed by destination above.
                RouteAlgorithm::Xy => return Err(TopologyError::GridRequired),
                RouteAlgorithm::TorusXy => {
                    let grid = topo.grid().ok_or(TopologyError::GridRequired)?;
                    vec![torus_xy_path(topo, grid, from, to)]
                }
            };
            flow_paths.push(FlowPaths { spec: *spec, paths });
        }
        Self::from_paths_with(topo, flow_paths, policy)
    }

    /// Builds destination-keyed tables for a routing function whose
    /// next hop depends only on the current switch and the destination
    /// switch: `step(at, to)` is the switch after `at` (called only
    /// while `at != to`), and every hop rides VC 0.
    ///
    /// Flows are grouped by destination (a counting sort). For each
    /// destination, each flow's path is walked until it reaches a
    /// switch an earlier flow toward that destination already visited
    /// — from there on the paths coincide — so every `(switch,
    /// destination)` entry is computed once, and entries are pushed in
    /// ascending destination order, which every table appends.
    pub(crate) fn by_destination(
        topo: &Topology,
        flows: &[FlowSpec],
        step: impl Fn(SwitchId, SwitchId) -> SwitchId,
    ) -> Result<Self, TopologyError> {
        for spec in flows {
            endpoints_switches(topo, spec)?;
        }
        let key = RouteKey::Destination;
        let n = topo.switch_count();
        let mut table = vec![RouteTable::keyed_by(key); n];

        // Counting sort of the flows by destination endpoint.
        let mut start = vec![0u32; topo.endpoint_count() + 1];
        for spec in flows {
            start[spec.dst.index() + 1] += 1;
        }
        for e in 0..topo.endpoint_count() {
            start[e + 1] += start[e];
        }
        let mut fill = start.clone();
        let mut by_dst = vec![0u32; flows.len()];
        for (i, spec) in flows.iter().enumerate() {
            by_dst[fill[spec.dst.index()] as usize] = i as u32;
            fill[spec.dst.index()] += 1;
        }

        // One visited set over switches, cleared per destination.
        let mut visited = vec![false; n];
        for d in 0..topo.endpoint_count() {
            let group = &by_dst[start[d] as usize..start[d + 1] as usize];
            let Some(&first) = group.first() else {
                continue;
            };
            visited.fill(false);
            let dst = flows[first as usize].dst;
            let to = topo.endpoint(dst).switch;
            for &i in group {
                let spec = &flows[i as usize];
                let mut at = topo.endpoint(spec.src).switch;
                while !std::mem::replace(&mut visited[at.index()], true) {
                    if at == to {
                        // Ejection on VC 0, as for per-flow tables.
                        let eject = topo.ejection_port(to, dst).ok_or_else(|| {
                            TopologyError::InvalidPath {
                                flow: spec.flow,
                                reason: format!("{dst} is not attached to {to}"),
                            }
                        })?;
                        table[to.index()].push_hop(dst.raw(), RouteHop::vc0(eject));
                        break;
                    }
                    let next = step(at, to);
                    let port =
                        port_toward(topo, at, next).ok_or_else(|| TopologyError::InvalidPath {
                            flow: spec.flow,
                            reason: format!("no link {at} -> {next}"),
                        })?;
                    table[at.index()].push_hop(dst.raw(), RouteHop::vc0(port));
                    at = next;
                }
            }
        }

        let endpoint_switch = (0..topo.endpoint_count())
            .map(|e| topo.endpoint(EndpointId::new(e as u32)).switch)
            .collect();
        let next_switch = topo
            .switch_ids()
            .map(|s| {
                (0..topo.switch(s).outputs)
                    .map(|p| topo.link(topo.out_link(s, PortId::new(p))).to_switch())
                    .collect()
            })
            .collect();
        Ok(RoutingTables {
            table,
            key,
            routes: FlowRoutes::Walked {
                specs: flows.to_vec(),
                endpoint_switch,
                next_switch,
            },
        })
    }

    /// Builds single-VC tables from explicitly given paths (every hop
    /// on VC 0).
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidPath`] if a path does not start
    /// at the flow's source switch, does not end at its destination
    /// switch, revisits a switch, or uses a non-existent inter-switch
    /// connection.
    pub fn from_paths(topo: &Topology, flows: Vec<FlowPaths>) -> Result<Self, TopologyError> {
        Self::from_paths_with(topo, flows, VcPolicy::SingleVc)
    }

    /// Builds flow-keyed tables from explicitly given paths, labelling
    /// hops with virtual channels per `policy`.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidPath`] if a path does not start
    /// at the flow's source switch, does not end at its destination
    /// switch, revisits a switch, or uses a non-existent inter-switch
    /// connection.
    pub fn from_paths_with(
        topo: &Topology,
        flows: Vec<FlowPaths>,
        policy: VcPolicy,
    ) -> Result<Self, TopologyError> {
        let flow_count = flows.len();
        let mut table = vec![RouteTable::new(); topo.switch_count()];
        let mut vc_labels = vec![Vec::new(); flow_count];

        for fp in &flows {
            let spec = fp.spec;
            let (from, to) = endpoints_switches(topo, &spec)?;
            if fp.paths.is_empty() {
                return Err(TopologyError::NoRoute { flow: spec.flow });
            }
            for path in &fp.paths {
                validate_path(topo, spec.flow, path, from, to)?;
                let labels = match policy {
                    VcPolicy::SingleVc => vec![VcId::ZERO; path.len().saturating_sub(1)],
                    VcPolicy::Dateline => dateline_vcs(topo, path),
                };
                for (w, &vc) in path.windows(2).zip(&labels) {
                    let port = port_toward(topo, w[0], w[1]).ok_or_else(|| {
                        TopologyError::InvalidPath {
                            flow: spec.flow,
                            reason: format!("no link {} -> {}", w[0], w[1]),
                        }
                    })?;
                    table[w[0].index()].push_hop(spec.flow.raw(), RouteHop { port, vc });
                }
                // Ejection at the destination switch, always on VC 0:
                // receptors are VC-blind, so funnelling every packet
                // through one ejection VC keeps deliveries wormhole-
                // contiguous (no flit interleaving at the receptor).
                // Ejection links are pure sinks — no outgoing channel
                // dependencies — so this cannot create a cycle.
                let eject =
                    topo.ejection_port(to, spec.dst)
                        .ok_or_else(|| TopologyError::InvalidPath {
                            flow: spec.flow,
                            reason: format!("{} is not attached to {}", spec.dst, to),
                        })?;
                table[to.index()].push_hop(spec.flow.raw(), RouteHop::vc0(eject));
                vc_labels[spec.flow.index()].push(labels);
            }
        }
        Ok(RoutingTables {
            table,
            key: RouteKey::Flow,
            routes: FlowRoutes::Stored { flows, vc_labels },
        })
    }

    /// What the per-switch tables are keyed by.
    pub fn key(&self) -> RouteKey {
        self.key
    }

    /// The routing key `flow` is looked up by: its flow id or its
    /// destination endpoint id.
    pub fn key_of(&self, flow: &FlowSpec) -> u32 {
        self.key.of(flow.flow, flow.dst)
    }

    /// The admissible output hops of `flow` at switch `s` (empty if
    /// the flow never visits `s` — including flows the tables were
    /// never built for, which the sparse layout cannot distinguish).
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn lookup(&self, s: SwitchId, flow: &FlowSpec) -> &[RouteHop] {
        self.table[s.index()].lookup(self.key_of(flow))
    }

    /// The sparse per-switch table, as consumed by the switch models.
    pub fn switch_table(&self, s: SwitchId) -> &RouteTable {
        &self.table[s.index()]
    }

    /// Number of flows the tables were built for.
    pub fn flow_count(&self) -> usize {
        match &self.routes {
            FlowRoutes::Stored { flows, .. } => flows.len(),
            FlowRoutes::Walked { specs, .. } => specs.len(),
        }
    }

    /// The configured flows and their paths: borrowed from flow-keyed
    /// tables, walked out of destination-keyed ones.
    pub fn flows(&self) -> Cow<'_, [FlowPaths]> {
        match &self.routes {
            FlowRoutes::Stored { flows, .. } => Cow::Borrowed(flows),
            FlowRoutes::Walked { specs, .. } => Cow::Owned(
                specs
                    .iter()
                    .map(|spec| FlowPaths {
                        spec: *spec,
                        paths: vec![self.walk(spec).0],
                    })
                    .collect(),
            ),
        }
    }

    /// The VC labels of path `path_index` of `flow`, one per
    /// inter-switch hop.
    ///
    /// # Panics
    ///
    /// Panics if the flow or path index is out of range (a
    /// destination-keyed flow has exactly one path).
    pub fn path_vcs(&self, flow: &FlowSpec, path_index: usize) -> Cow<'_, [VcId]> {
        match &self.routes {
            FlowRoutes::Stored { vc_labels, .. } => {
                Cow::Borrowed(&vc_labels[flow.flow.index()][path_index])
            }
            FlowRoutes::Walked { .. } => {
                assert_eq!(path_index, 0, "a destination-keyed flow has one path");
                Cow::Owned(self.walk(flow).1)
            }
        }
    }

    /// Walks `flow` through destination-keyed tables from its source
    /// switch to its ejection: the switches visited and the VC of each
    /// inter-switch hop.
    fn walk(&self, flow: &FlowSpec) -> (Path, Vec<VcId>) {
        let FlowRoutes::Walked {
            endpoint_switch,
            next_switch,
            ..
        } = &self.routes
        else {
            unreachable!("only destination-keyed tables are walked");
        };
        let key = self.key_of(flow);
        let mut at = endpoint_switch[flow.src.index()];
        let (mut path, mut vcs) = (vec![at], Vec::new());
        loop {
            let hop = self.table[at.index()].lookup(key)[0];
            let Some(next) = next_switch[at.index()][hop.port.index()] else {
                return (path, vcs);
            };
            path.push(next);
            vcs.push(hop.vc);
            at = next;
        }
    }

    /// The highest VC any table entry uses (0 for single-VC tables).
    /// Switches must be configured with at least `max_vc() + 1` VCs.
    pub fn max_vc(&self) -> u8 {
        self.table
            .iter()
            .filter_map(RouteTable::max_vc)
            .max()
            .unwrap_or(0)
    }

    /// The maximum number of alternatives any (switch, key) entry
    /// holds — 1 for deterministic routing, 2 for the paper's dual
    /// routing.
    pub fn max_alternatives(&self) -> usize {
        self.table
            .iter()
            .map(RouteTable::max_alternatives)
            .max()
            .unwrap_or(0)
    }
}

fn endpoints_switches(
    topo: &Topology,
    spec: &FlowSpec,
) -> Result<(SwitchId, SwitchId), TopologyError> {
    let src = topo.endpoint(spec.src);
    if src.kind != EndpointKind::Generator {
        return Err(TopologyError::WrongEndpointKind {
            endpoint: spec.src,
            expected: EndpointKind::Generator,
        });
    }
    let dst = topo.endpoint(spec.dst);
    if dst.kind != EndpointKind::Receptor {
        return Err(TopologyError::WrongEndpointKind {
            endpoint: spec.dst,
            expected: EndpointKind::Receptor,
        });
    }
    Ok((src.switch, dst.switch))
}

fn validate_path(
    topo: &Topology,
    flow: FlowId,
    path: &Path,
    from: SwitchId,
    to: SwitchId,
) -> Result<(), TopologyError> {
    if path.first() != Some(&from) {
        return Err(TopologyError::InvalidPath {
            flow,
            reason: format!("path must start at {from}"),
        });
    }
    if path.last() != Some(&to) {
        return Err(TopologyError::InvalidPath {
            flow,
            reason: format!("path must end at {to}"),
        });
    }
    let mut seen = HashSet::new();
    for s in path {
        if s.index() >= topo.switch_count() {
            return Err(TopologyError::InvalidPath {
                flow,
                reason: format!("unknown switch {s}"),
            });
        }
        if !seen.insert(*s) {
            return Err(TopologyError::InvalidPath {
                flow,
                reason: format!("path revisits {s}"),
            });
        }
    }
    Ok(())
}

/// The output port of `from` whose link arrives at `to` (lowest port
/// wins if the topology has parallel links).
fn port_toward(topo: &Topology, from: SwitchId, to: SwitchId) -> Option<PortId> {
    topo.switch_neighbors(from)
        .find(|&(_, _, next, _)| next == to)
        .map(|(port, _, _, _)| port)
}

/// Deterministic BFS shortest path over inter-switch links, avoiding
/// `banned` switches (used by Yen's spur computation). Tie-breaks
/// toward the lowest switch id.
fn shortest_path_avoiding(
    topo: &Topology,
    from: SwitchId,
    to: SwitchId,
    banned_nodes: &HashSet<SwitchId>,
    banned_edges: &HashSet<(SwitchId, SwitchId)>,
) -> Option<Path> {
    if banned_nodes.contains(&from) {
        return None;
    }
    let n = topo.switch_count();
    let mut prev: Vec<Option<SwitchId>> = vec![None; n];
    let mut visited = vec![false; n];
    visited[from.index()] = true;
    let mut queue = std::collections::VecDeque::from([from]);
    while let Some(u) = queue.pop_front() {
        if u == to {
            break;
        }
        // Sort neighbours for determinism.
        let mut next: Vec<SwitchId> = topo.switch_neighbors(u).map(|(_, _, v, _)| v).collect();
        next.sort();
        next.dedup();
        for v in next {
            if visited[v.index()] || banned_nodes.contains(&v) || banned_edges.contains(&(u, v)) {
                continue;
            }
            visited[v.index()] = true;
            prev[v.index()] = Some(u);
            queue.push_back(v);
        }
    }
    if !visited[to.index()] {
        return None;
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = prev[cur.index()].expect("visited node has predecessor");
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

/// Deterministic BFS shortest path from `from` to `to`.
pub fn shortest_path(topo: &Topology, from: SwitchId, to: SwitchId) -> Option<Path> {
    shortest_path_avoiding(topo, from, to, &HashSet::new(), &HashSet::new())
}

/// Yen's algorithm: up to `k` loop-free paths in non-decreasing length
/// order (deterministic).
pub fn k_shortest_paths(topo: &Topology, from: SwitchId, to: SwitchId, k: usize) -> Vec<Path> {
    let Some(first) = shortest_path(topo, from, to) else {
        return Vec::new();
    };
    let mut found = vec![first];
    // Candidate set ordered by (length, path) for determinism.
    let mut candidates: BinaryHeap<std::cmp::Reverse<(usize, Path)>> = BinaryHeap::new();

    while found.len() < k {
        let last = found.last().expect("at least one found path").clone();
        for spur_idx in 0..last.len() - 1 {
            let spur_node = last[spur_idx];
            let root: Vec<SwitchId> = last[..=spur_idx].to_vec();

            let mut banned_edges = HashSet::new();
            for p in &found {
                if p.len() > spur_idx && p[..=spur_idx] == root[..] {
                    if let Some(&next) = p.get(spur_idx + 1) {
                        banned_edges.insert((spur_node, next));
                    }
                }
            }
            let banned_nodes: HashSet<SwitchId> = root[..spur_idx].iter().copied().collect();

            if let Some(spur) =
                shortest_path_avoiding(topo, spur_node, to, &banned_nodes, &banned_edges)
            {
                let mut total = root.clone();
                total.extend_from_slice(&spur[1..]);
                let cand = std::cmp::Reverse((total.len(), total));
                if !candidates.iter().any(|c| c == &cand) && !found.contains(&cand.0 .1) {
                    candidates.push(cand);
                }
            }
        }
        match candidates.pop() {
            Some(std::cmp::Reverse((_, path))) => found.push(path),
            None => break,
        }
    }
    found
}

/// Greedily keeps paths whose union of per-switch next-hops stays
/// acyclic, so the resulting table can never misroute a flit in a
/// loop. The primary (shortest) path is always kept.
fn prune_to_acyclic(paths: Vec<Path>) -> Vec<Path> {
    let mut kept: Vec<Path> = Vec::new();
    let mut edges: HashSet<(SwitchId, SwitchId)> = HashSet::new();
    for path in paths {
        let mut trial = edges.clone();
        for w in path.windows(2) {
            trial.insert((w[0], w[1]));
        }
        if union_is_acyclic(&trial) || kept.is_empty() {
            edges = trial;
            kept.push(path);
        }
    }
    kept
}

fn union_is_acyclic(edges: &HashSet<(SwitchId, SwitchId)>) -> bool {
    // Kahn's algorithm over the nodes that occur in the edge set.
    let mut nodes: HashSet<SwitchId> = HashSet::new();
    for &(u, v) in edges {
        nodes.insert(u);
        nodes.insert(v);
    }
    let mut indeg: std::collections::HashMap<SwitchId, usize> =
        nodes.iter().map(|&n| (n, 0)).collect();
    for &(_, v) in edges {
        *indeg.get_mut(&v).expect("node present") += 1;
    }
    let mut queue: Vec<SwitchId> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&n, _)| n)
        .collect();
    let mut removed = 0;
    while let Some(u) = queue.pop() {
        removed += 1;
        for &(a, b) in edges {
            if a == u {
                let d = indeg.get_mut(&b).expect("node present");
                *d -= 1;
                if *d == 0 {
                    queue.push(b);
                }
            }
        }
    }
    removed == nodes.len()
}

/// The next switch of a dimension-ordered (X then Y) route on a
/// grid from `at` toward `to` (`at != to`). It moves one coordinate
/// by one, so it never takes a wrap-around hop.
fn xy_step(grid: &GridInfo, at: SwitchId, to: SwitchId) -> SwitchId {
    let (x, y) = grid.coords(at);
    let (tx, ty) = grid.coords(to);
    let toward = |c: u32, t: u32| if c < t { c + 1 } else { c - 1 };
    if x != tx {
        grid.at(toward(x, tx), y)
    } else {
        grid.at(x, toward(y, ty))
    }
}

/// One dimension-ordered torus step: the distance and per-step delta
/// of the shorter direction around a ring of `size` nodes, preferring
/// the direct (non-wrapping) direction on ties or when the wrap link
/// does not exist (`size <= 2`).
fn torus_dim_steps(cur: u32, target: u32, size: u32) -> (u32, i64) {
    let direct = cur.abs_diff(target);
    let wrapped = size - direct;
    let direct_delta = if cur < target { 1 } else { -1 };
    if size > 2 && wrapped < direct {
        (wrapped, -direct_delta)
    } else {
        (direct, direct_delta)
    }
}

/// Dimension-ordered (X then Y) path on a torus, taking the shorter
/// direction around each dimension (wrap-around links included).
fn torus_xy_path(topo: &Topology, grid: &GridInfo, from: SwitchId, to: SwitchId) -> Path {
    let step = |coord: u32, delta: i64, size: u32| -> u32 {
        ((i64::from(coord) + delta).rem_euclid(i64::from(size))) as u32
    };
    let (mut x, mut y) = grid.coords(from);
    let (tx, ty) = grid.coords(to);
    let mut path = vec![from];
    let (hops_x, dx) = torus_dim_steps(x, tx, grid.width);
    for _ in 0..hops_x {
        x = step(x, dx, grid.width);
        path.push(grid.at(x, y));
    }
    let (hops_y, dy) = torus_dim_steps(y, ty, grid.height);
    for _ in 0..hops_y {
        y = step(y, dy, grid.height);
        path.push(grid.at(x, y));
    }
    debug_assert!(
        path.windows(2)
            .all(|w| port_toward(topo, w[0], w[1]).is_some()),
        "torus XY path uses only existing links"
    );
    path
}

/// The minimal path around a ring of `n` switches whose ids form the
/// cycle `0 ↔ 1 ↔ … ↔ n-1 ↔ 0`, from `from` to `to` (ties break
/// toward ascending ids). Pair with [`VcPolicy::Dateline`]: minimal
/// ring paths cross the wrap-around `0 ↔ n-1` pair whenever that arc
/// is shorter.
///
/// # Panics
///
/// Panics if `from` or `to` is not a valid switch of an `n`-ring.
pub fn ring_minimal_path(n: u32, from: SwitchId, to: SwitchId) -> Path {
    assert!(from.raw() < n && to.raw() < n, "switch outside the ring");
    let fwd = (to.raw() + n - from.raw()) % n;
    let bwd = (from.raw() + n - to.raw()) % n;
    if fwd <= bwd {
        (0..=fwd)
            .map(|k| SwitchId::new((from.raw() + k) % n))
            .collect()
    } else {
        (0..=bwd)
            .map(|k| SwitchId::new((from.raw() + n - k) % n))
            .collect()
    }
}

/// Labels the hops of `path` with dateline virtual channels: VC 0
/// until the path crosses a wrap-around link, VC 1 from that hop
/// onward, tracked independently per grid dimension (dimension-ordered
/// torus paths wrap at most once per dimension, ring paths at most
/// once overall).
///
/// Wrap-around hops are recognized on grids by
/// [`GridInfo::is_wrap_hop`] (coordinate distance above one in the
/// travelling dimension) and on ring-shaped topologies
/// ([`Topology::is_switch_ring`]) by switch-id distance above one. On
/// every other topology no hop is a wrap hop, so every hop labels
/// VC 0 — which is what makes [`VcPolicy::Dateline`] safe to apply
/// everywhere (star or irregular topologies with non-adjacent switch
/// ids on a hop are *not* misread as wrapping).
pub fn dateline_vcs(topo: &Topology, path: &[SwitchId]) -> Vec<VcId> {
    let ring = topo.grid().is_none() && topo.is_switch_ring();
    let mut crossed_x = false;
    let mut crossed_y = false;
    let mut labels = Vec::with_capacity(path.len().saturating_sub(1));
    for w in path.windows(2) {
        let crossed = if let Some(grid) = topo.grid() {
            let (_, ay) = grid.coords(w[0]);
            let (_, by) = grid.coords(w[1]);
            if ay == by {
                crossed_x |= grid.is_wrap_hop(w[0], w[1]);
                crossed_x
            } else {
                crossed_y |= grid.is_wrap_hop(w[0], w[1]);
                crossed_y
            }
        } else {
            crossed_x |= ring && w[0].raw().abs_diff(w[1].raw()) > 1;
            crossed_x
        };
        labels.push(VcId::new(u8::from(crossed)));
    }
    labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;
    use crate::graph::TopologyBuilder;

    fn line3() -> Topology {
        // s0 <-> s1 <-> s2, TG on s0, TR on s2.
        let mut b = TopologyBuilder::new("line3");
        let s = b.switches(3);
        b.connect_bidir(s[0], s[1]);
        b.connect_bidir(s[1], s[2]);
        b.generator(s[0]);
        b.receptor(s[2]);
        b.build().unwrap()
    }

    #[test]
    fn one_to_one_flows() {
        let t = line3();
        let flows = FlowSpec::one_to_one(&t).unwrap();
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].flow, FlowId::new(0));
    }

    #[test]
    fn one_to_one_rejects_mismatch() {
        let mut b = TopologyBuilder::new("t");
        let s0 = b.switch();
        let s1 = b.switch();
        b.connect_bidir(s0, s1);
        b.generator(s0);
        b.generator(s0);
        b.receptor(s1);
        let t = b.build().unwrap();
        assert!(matches!(
            FlowSpec::one_to_one(&t),
            Err(TopologyError::FlowMismatch { .. })
        ));
    }

    #[test]
    fn all_pairs_counts() {
        let t = builders::mesh(2, 2).unwrap();
        let flows = FlowSpec::all_pairs(&t);
        assert_eq!(flows.len(), 16); // 4 TG x 4 TR
    }

    #[test]
    fn shortest_path_on_line() {
        let t = line3();
        let p = shortest_path(&t, SwitchId::new(0), SwitchId::new(2)).unwrap();
        assert_eq!(
            p,
            vec![SwitchId::new(0), SwitchId::new(1), SwitchId::new(2)]
        );
    }

    #[test]
    fn shortest_routing_table() {
        let t = line3();
        let flows = FlowSpec::one_to_one(&t).unwrap();
        let rt = RoutingTables::compute(&t, &flows, RouteAlgorithm::Shortest).unwrap();
        assert_eq!(rt.flow_count(), 1);
        assert_eq!(rt.max_alternatives(), 1);
        // Flow must have an entry at every switch on the path.
        for s in [0u32, 1, 2] {
            assert_eq!(rt.lookup(SwitchId::new(s), &flows[0]).len(), 1);
        }
    }

    #[test]
    fn k_shortest_finds_ring_alternatives() {
        // 4-ring: two disjoint paths between opposite corners.
        let t = builders::ring(4).unwrap();
        let paths = k_shortest_paths(&t, SwitchId::new(0), SwitchId::new(2), 3);
        assert!(paths.len() >= 2, "expected >= 2 paths, got {paths:?}");
        assert_eq!(paths[0].len(), 3);
        // All returned paths are loop-free and correctly terminated.
        for p in &paths {
            assert_eq!(p.first(), Some(&SwitchId::new(0)));
            assert_eq!(p.last(), Some(&SwitchId::new(2)));
            let set: HashSet<_> = p.iter().collect();
            assert_eq!(set.len(), p.len());
        }
    }

    #[test]
    fn k_shortest_tables_have_two_alternatives() {
        // one_to_one would pair TG_i with TR_i on the *same* switch, so
        // build a cross-ring flow explicitly: switch 0 -> switch 2 has
        // two equal-length routes around a 4-ring.
        let t = builders::ring(4).unwrap();
        let cross = FlowSpec {
            flow: FlowId::new(0),
            src: t.generators()[0],
            dst: t.receptors()[2],
        };
        let rt = RoutingTables::compute(&t, &[cross], RouteAlgorithm::KShortest(2)).unwrap();
        assert!(rt.max_alternatives() >= 2, "ring should offer 2 routes");
    }

    #[test]
    fn xy_routing_on_mesh() {
        let t = builders::mesh(3, 3).unwrap();
        let flows = FlowSpec::one_to_one(&t).unwrap();
        let rt = RoutingTables::compute(&t, &flows, RouteAlgorithm::Xy).unwrap();
        assert_eq!(rt.max_alternatives(), 1, "XY is deterministic");
    }

    #[test]
    fn xy_tables_are_destination_keyed() {
        let t = builders::mesh(4, 3).unwrap();
        let flows = FlowSpec::all_pairs(&t);
        for policy in [VcPolicy::SingleVc, VcPolicy::Dateline] {
            let rt = RoutingTables::compute_with(&t, &flows, RouteAlgorithm::Xy, policy).unwrap();
            assert_eq!(rt.key(), RouteKey::Destination);
            assert_eq!(rt.max_vc(), 0, "XY never crosses a dateline");
            assert_eq!(rt.flow_count(), flows.len());
            // Exactly one entry per (switch, destination): every switch
            // hosts a source toward every receptor.
            for s in t.switch_ids() {
                assert_eq!(rt.switch_table(s).entry_count(), t.receptors().len());
            }
            // Walked paths are the XY paths, on VC 0.
            for (fp, spec) in rt.flows().iter().zip(&flows) {
                assert_eq!(fp.spec, *spec);
                let grid = t.grid().unwrap();
                let (from, to) = (t.endpoint(spec.src).switch, t.endpoint(spec.dst).switch);
                let mut expected = vec![from];
                while *expected.last().unwrap() != to {
                    expected.push(xy_step(grid, *expected.last().unwrap(), to));
                }
                assert_eq!(fp.paths, vec![expected.clone()]);
                assert_eq!(*rt.path_vcs(spec, 0), vec![VcId::ZERO; expected.len() - 1]);
            }
        }
    }

    #[test]
    fn other_algorithms_stay_flow_keyed() {
        let t = builders::torus(4, 4).unwrap();
        let flows = FlowSpec::all_pairs(&t);
        for (algo, policy) in [
            (RouteAlgorithm::TorusXy, VcPolicy::Dateline),
            (RouteAlgorithm::Shortest, VcPolicy::SingleVc),
            (RouteAlgorithm::KShortest(2), VcPolicy::SingleVc),
        ] {
            let rt = RoutingTables::compute_with(&t, &flows, algo, policy).unwrap();
            assert_eq!(rt.key(), RouteKey::Flow, "{algo:?}");
        }
    }

    /// Counts the per-flow entries of `rt` whose hops differ from
    /// another flow's toward the same destination at the same switch.
    fn destination_conflicts(t: &Topology, rt: &RoutingTables, flows: &[FlowSpec]) -> usize {
        let mut conflicts = 0;
        for s in t.switch_ids() {
            let mut first: std::collections::HashMap<EndpointId, &[RouteHop]> =
                std::collections::HashMap::new();
            for spec in flows {
                let hops = rt.lookup(s, spec);
                if hops.is_empty() {
                    continue;
                }
                if *first.entry(spec.dst).or_insert(hops) != hops {
                    conflicts += 1;
                }
            }
        }
        conflicts
    }

    #[test]
    fn dateline_torus_routes_are_not_a_function_of_the_destination() {
        // Why torus XY + dateline stays flow-keyed: two flows toward
        // one destination can leave a switch on different VCs.
        let t = builders::torus(8, 8).unwrap();
        let flows = FlowSpec::all_pairs(&t);
        let rt =
            RoutingTables::compute_with(&t, &flows, RouteAlgorithm::TorusXy, VcPolicy::Dateline)
                .unwrap();
        let entries: usize = t
            .switch_ids()
            .map(|s| rt.switch_table(s).entry_count())
            .sum();
        assert_eq!(entries, 20_480);
        assert_eq!(destination_conflicts(&t, &rt, &flows), 1_024);
        // The same paths on one VC are destination-determined.
        let rt0 =
            RoutingTables::compute_with(&t, &flows, RouteAlgorithm::TorusXy, VcPolicy::SingleVc)
                .unwrap();
        assert_eq!(destination_conflicts(&t, &rt0, &flows), 0);
    }

    #[test]
    fn xy_checks_endpoint_kinds() {
        let t = builders::mesh(2, 2).unwrap();
        let swapped = FlowSpec {
            flow: FlowId::new(0),
            src: t.receptors()[0],
            dst: t.generators()[1],
        };
        assert!(matches!(
            RoutingTables::compute(&t, &[swapped], RouteAlgorithm::Xy),
            Err(TopologyError::WrongEndpointKind { .. })
        ));
    }

    #[test]
    fn xy_requires_grid() {
        let t = line3(); // no grid metadata
        let flows = FlowSpec::one_to_one(&t).unwrap();
        assert!(matches!(
            RoutingTables::compute(&t, &flows, RouteAlgorithm::Xy),
            Err(TopologyError::GridRequired)
        ));
    }

    #[test]
    fn explicit_path_validation() {
        let t = line3();
        let flows = FlowSpec::one_to_one(&t).unwrap();
        let bad = vec![FlowPaths {
            spec: flows[0],
            paths: vec![vec![SwitchId::new(1), SwitchId::new(2)]], // wrong start
        }];
        assert!(matches!(
            RoutingTables::from_paths(&t, bad),
            Err(TopologyError::InvalidPath { .. })
        ));
    }

    #[test]
    fn explicit_path_rejects_revisit() {
        let t = builders::ring(4).unwrap();
        let flows = FlowSpec::one_to_one(&t).unwrap();
        let spec = flows[0];
        let from = t.endpoint(spec.src).switch;
        let to = t.endpoint(spec.dst).switch;
        let looping = vec![FlowPaths {
            spec,
            paths: vec![vec![from, from, to]],
        }];
        let err = RoutingTables::from_paths(&t, looping).unwrap_err();
        assert!(err.to_string().contains("revisits"));
    }

    #[test]
    fn wrong_endpoint_kinds_rejected() {
        let t = line3();
        let tg = t.generators()[0];
        let tr = t.receptors()[0];
        let swapped = FlowSpec {
            flow: FlowId::new(0),
            src: tr,
            dst: tg,
        };
        assert!(matches!(
            RoutingTables::compute(&t, &[swapped], RouteAlgorithm::Shortest),
            Err(TopologyError::WrongEndpointKind { .. })
        ));
    }

    #[test]
    fn ring_minimal_takes_the_shorter_arc() {
        let s = SwitchId::new;
        // Direct arc when it is shorter.
        assert_eq!(ring_minimal_path(8, s(1), s(3)), vec![s(1), s(2), s(3)]);
        // Wrap-around arc when that is shorter.
        assert_eq!(ring_minimal_path(8, s(1), s(7)), vec![s(1), s(0), s(7)]);
        assert_eq!(ring_minimal_path(8, s(7), s(1)), vec![s(7), s(0), s(1)]);
        // Tie (opposite side) breaks toward ascending ids.
        assert_eq!(
            ring_minimal_path(4, s(0), s(2)),
            vec![s(0), s(1), s(2)],
            "tie breaks forward"
        );
        // Degenerate: already there.
        assert_eq!(ring_minimal_path(5, s(2), s(2)), vec![s(2)]);
    }

    #[test]
    fn torus_xy_wraps_when_shorter() {
        let t = builders::torus(4, 4).unwrap();
        let grid = t.grid().unwrap();
        // x: 0 -> 3 is one wrap hop, not three direct hops.
        let p = torus_xy_path(&t, grid, SwitchId::new(0), SwitchId::new(3));
        assert_eq!(p, vec![SwitchId::new(0), SwitchId::new(3)]);
        // Distance-2 ties go direct.
        let p = torus_xy_path(&t, grid, SwitchId::new(0), SwitchId::new(2));
        assert_eq!(
            p,
            vec![SwitchId::new(0), SwitchId::new(1), SwitchId::new(2)]
        );
        // Both dimensions wrap: (0,0) -> (3,3) is two hops.
        let p = torus_xy_path(&t, grid, grid.at(0, 0), grid.at(3, 3));
        assert_eq!(p, vec![grid.at(0, 0), grid.at(3, 0), grid.at(3, 3)]);
    }

    #[test]
    fn torus_xy_reduces_to_xy_on_width_two_dimensions() {
        // A 2-wide torus has no wrap links; the direct direction must
        // be taken even though "wrapping" would tie.
        let t = builders::torus(2, 3).unwrap();
        let grid = t.grid().unwrap();
        let p = torus_xy_path(&t, grid, grid.at(0, 0), grid.at(1, 0));
        assert_eq!(p, vec![grid.at(0, 0), grid.at(1, 0)]);
    }

    #[test]
    fn dateline_labels_flip_to_vc1_at_the_wrap_hop() {
        let t = builders::ring(6).unwrap();
        let s = SwitchId::new;
        // 4 -> 5 -> 0 -> 1: the 5->0 hop crosses the dateline; it and
        // everything after ride VC 1.
        let labels = dateline_vcs(&t, &[s(4), s(5), s(0), s(1)]);
        assert_eq!(
            labels,
            vec![VcId::new(0), VcId::new(1), VcId::new(1)],
            "VC 1 from the wrap hop onward"
        );
        // A path that never wraps stays on VC 0.
        let labels = dateline_vcs(&t, &[s(1), s(2), s(3)]);
        assert_eq!(labels, vec![VcId::ZERO; 2]);
    }

    #[test]
    fn dateline_is_inert_off_grid_off_ring() {
        // A star hops between non-adjacent switch ids (leaf 1 -> hub 0
        // -> leaf 3), which must NOT be mistaken for a wrap-around
        // crossing: Dateline on an arbitrary topology labels VC 0
        // everywhere and stays valid on a single-VC platform.
        let t = builders::star(4).unwrap();
        let s = SwitchId::new;
        let labels = dateline_vcs(&t, &[s(1), s(0), s(3)]);
        assert_eq!(labels, vec![VcId::ZERO; 2]);
    }

    #[test]
    fn dateline_labels_reset_per_torus_dimension() {
        let t = builders::torus(4, 4).unwrap();
        let grid = t.grid().unwrap().clone();
        // x wraps (3,0 -> 0,0), then y goes direct: the y segment
        // starts back on VC 0 (per-dimension datelines).
        let path = vec![grid.at(2, 0), grid.at(3, 0), grid.at(0, 0), grid.at(0, 1)];
        let labels = dateline_vcs(&t, &path);
        assert_eq!(labels, vec![VcId::new(0), VcId::new(1), VcId::new(0)]);
    }

    #[test]
    fn torus_xy_tables_carry_vc_labels() {
        let t = builders::torus(4, 4).unwrap();
        let flows = FlowSpec::all_pairs(&t);
        let rt =
            RoutingTables::compute_with(&t, &flows, RouteAlgorithm::TorusXy, VcPolicy::Dateline)
                .unwrap();
        assert_eq!(rt.max_vc(), 1, "dateline uses exactly two VCs");
        // Single-VC labelling of the same paths reports max VC 0.
        let rt0 =
            RoutingTables::compute_with(&t, &flows, RouteAlgorithm::TorusXy, VcPolicy::SingleVc)
                .unwrap();
        assert_eq!(rt0.max_vc(), 0);
        // Labels are exposed per path, one per hop.
        for fp in rt.flows().iter() {
            for (pi, path) in fp.paths.iter().enumerate() {
                assert_eq!(rt.path_vcs(&fp.spec, pi).len(), path.len() - 1);
            }
        }
    }

    #[test]
    fn union_acyclicity_helper() {
        let mut edges = HashSet::new();
        edges.insert((SwitchId::new(0), SwitchId::new(1)));
        edges.insert((SwitchId::new(1), SwitchId::new(2)));
        assert!(union_is_acyclic(&edges));
        edges.insert((SwitchId::new(2), SwitchId::new(0)));
        assert!(!union_is_acyclic(&edges));
    }
}
