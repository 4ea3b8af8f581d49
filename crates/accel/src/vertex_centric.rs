//! Vertex-centric programming accelerators (paper §8, Fig. 12):
//! Graphicionado, GraphDynS, and the paper's proposed optimization.
//!
//! All three designs share Graphicionado's Table 5 hardware (1 GHz,
//! 8 streams, 64 MB eDRAM, 68 GB/s) so comparisons are apples-to-apples,
//! exactly as the paper evaluates them. A specific algorithm manifests by
//! redefining `×`/`+` (min-plus for BFS/SSSP — see
//! `teaal_sim::OpTable::sssp`).
//!
//! The per-iteration cascades:
//!
//! - **Graphicionado** (Fig. 12a): processes active edges, then applies to
//!   *every* vertex (`P1 = R + P0` over the dense property vector).
//! - **GraphDynS-like** (Fig. 12b): builds `MP = take(R, P0, 1)` so only
//!   candidate vertices apply, but tracks them with a 256-entry bitmap —
//!   expressed as a `uniform_shape` partitioning with *eager* loading of
//!   whole property chunks.
//! - **Proposal**: drops the partitioning, loading and applying only the
//!   vertices actually touched.

use teaal_core::TeaalSpec;

/// Which of the three designs to instantiate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GraphDesign {
    /// Baseline Graphicionado (Fig. 12a).
    Graphicionado,
    /// GraphDynS-like with the 256-chunk bitmap (Fig. 12b).
    GraphDynS,
    /// The paper's proposal: apply only to modified vertices.
    Proposal,
}

impl GraphDesign {
    /// Display name matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            GraphDesign::Graphicionado => "Graphicionado",
            GraphDesign::GraphDynS => "GraphDynS-like",
            GraphDesign::Proposal => "Our Proposal",
        }
    }
}

/// Number of bitmap entries GraphDynS tracks (paper §8).
pub const GRAPHDYNS_CHUNKS: u64 = 256;

fn arch_and_edge_format(design: GraphDesign, weighted: bool) -> String {
    // Graphicionado stores the graph as an edge list (source id reloaded
    // per edge); GraphDynS and the proposal switch to CSR and skip the
    // weight for unweighted algorithms (paper §8).
    let (v_cbits, v_pbits) = match design {
        GraphDesign::Graphicionado => (64, 64),
        _ => (32, if weighted { 64 } else { 0 }),
    };
    format!(
        concat!(
            "format:\n",
            "  G:\n",
            "    Graph:\n",
            "      S:\n",
            "        format: C\n",
            "        cbits: 32\n",
            "        pbits: 32\n",
            "      V:\n",
            "        format: C\n",
            "        cbits: {v_cbits}\n",
            "        pbits: {v_pbits}\n",
            "  P0:\n",
            "    Dense:\n",
            "      V:\n",
            "        format: U\n",
            "        pbits: 64\n",
            "architecture:\n",
            "  clock: 1_000_000_000\n",
            "  configs:\n",
            "    Default:\n",
            "      name: System\n",
            "      local:\n",
            "        - name: DRAM\n",
            "          class: DRAM\n",
            "          bandwidth: 68_000_000_000\n",
            "        - name: eDRAM\n",
            "          class: buffet\n",
            "          width: 512\n",
            "          depth: 1048576\n",
            "          bandwidth: 512_000_000_000\n",
            "      subtree:\n",
            "        - name: Stream\n",
            "          count: 8\n",
            "          local:\n",
            "            - name: FrontierIx\n",
            "              class: intersect\n",
            "              type: leader-follower\n",
            "              leader: 1\n",
            "            - name: GatherIx\n",
            "              class: intersect\n",
            "              type: leader-follower\n",
            "              leader: 0\n",
            "            - name: ProcALU\n",
            "              class: compute\n",
            "              op: mul\n",
            "            - name: ApplyALU\n",
            "              class: compute\n",
            "              op: add\n",
        ),
        v_cbits = v_cbits,
        v_pbits = v_pbits,
    )
}

/// Builds the full per-iteration specification for one design.
///
/// `vertices` sizes the GraphDynS property chunks (`V / 256`);
/// `weighted` selects the SSSP edge format (BFS drops the weights).
pub fn yaml(design: GraphDesign, vertices: u64, weighted: bool) -> String {
    let mut s = String::new();
    s.push_str(concat!(
        "einsum:\n",
        "  declaration:\n",
        "    G: [S, V]\n",
        "    A0: [S]\n",
        "    P0: [V]\n",
        "    SO: [S, V]\n",
        "    R: [V]\n",
    ));
    match design {
        GraphDesign::Graphicionado => s.push_str(concat!(
            "    P1: [V]\n",
            "    M: [V]\n",
            "    A1: [V]\n",
            "  expressions:\n",
            "    - SO[v, s] = take(G[v, s], A0[s], 0)\n",
            "    - R[v] = SO[v, s] * A0[s]\n",
            "    - P1[v] = R[v] + P0[v]\n",
            "    - M[v] = P1[v] - P0[v]\n",
            "    - A1[v] = take(M[v], P1[v], 1)\n",
        )),
        _ => s.push_str(concat!(
            "    MP: [V]\n",
            "    NP: [V]\n",
            "    M: [V]\n",
            "    PW: [V]\n",
            "    A1: [V]\n",
            "  expressions:\n",
            "    - SO[v, s] = take(G[v, s], A0[s], 0)\n",
            "    - R[v] = SO[v, s] * A0[s]\n",
            "    - MP[v] = take(R[v], P0[v], 1)\n",
            "    - NP[v] = R[v] + MP[v]\n",
            "    - M[v] = NP[v] - MP[v]\n",
            "    - PW[v] = take(M[v], NP[v], 1)\n",
            "    - A1[v] = take(M[v], NP[v], 1)\n",
        )),
    }

    s.push_str(concat!(
        "mapping:\n",
        "  rank-order:\n",
        "    G: [S, V]\n",
        "    SO: [S, V]\n",
        "  loop-order:\n",
        "    SO: [S, V]\n",
        "    R: [S, V]\n",
    ));
    if design == GraphDesign::GraphDynS {
        let chunk = (vertices / GRAPHDYNS_CHUNKS).max(1);
        s.push_str(&format!(
            concat!(
                "  partitioning:\n",
                "    MP:\n",
                "      V: [uniform_shape({chunk})]\n",
            ),
            chunk = chunk
        ));
    }
    // Edges are sharded across the 8 streams by source vertex; the apply
    // phase shards by destination vertex (Graphicionado's organization).
    s.push_str(concat!(
        "  spacetime:\n",
        "    SO:\n",
        "      space: [S]\n",
        "      time: [V]\n",
        "    R:\n",
        "      space: [S]\n",
        "      time: [V]\n",
    ));
    match design {
        GraphDesign::Graphicionado => s.push_str(concat!(
            "    P1:\n",
            "      space: [V]\n",
            "      time: []\n",
            "    M:\n",
            "      space: [V]\n",
            "      time: []\n",
            "    A1:\n",
            "      space: [V]\n",
            "      time: []\n",
        )),
        GraphDesign::GraphDynS => s.push_str(concat!(
            "    MP:\n",
            "      space: [V0]\n",
            "      time: [V1]\n",
            "    NP:\n",
            "      space: [V]\n",
            "      time: []\n",
            "    M:\n",
            "      space: [V]\n",
            "      time: []\n",
            "    PW:\n",
            "      space: [V]\n",
            "      time: []\n",
            "    A1:\n",
            "      space: [V]\n",
            "      time: []\n",
        )),
        GraphDesign::Proposal => s.push_str(concat!(
            "    MP:\n",
            "      space: [V]\n",
            "      time: []\n",
            "    NP:\n",
            "      space: [V]\n",
            "      time: []\n",
            "    M:\n",
            "      space: [V]\n",
            "      time: []\n",
            "    PW:\n",
            "      space: [V]\n",
            "      time: []\n",
            "    A1:\n",
            "      space: [V]\n",
            "      time: []\n",
        )),
    }

    s.push_str(&arch_and_edge_format(design, weighted));

    // Bindings. Every Einsum runs on the one topology. Deliberate DRAM
    // residents: the graph G, the property reads of P0, and the property
    // write-back (all of P1 for Graphicionado; the masked PW for the
    // others). Everything else — the temp property array R, the apply
    // bookkeeping MP/NP/M, and the active lists — lives in the 64 MB
    // eDRAM, as in the published designs. Binding the apply ALU to both
    // P1 and M keeps Graphicionado's apply Einsums in separate blocks
    // (third of the §4.3 fusion criteria), so the full dense P1
    // write-back hits DRAM — exactly the traffic GraphDynS's masked
    // write-back avoids.
    let edram = |tensor: &str, rank: &str| {
        format!(
            concat!(
                "      - component: eDRAM\n",
                "        tensor: {tensor}\n",
                "        rank: {rank}\n",
                "        type: elem\n",
                "        style: lazy\n",
            ),
            tensor = tensor,
            rank = rank
        )
    };
    let p0_dram = |rank: &str, style: &str| {
        format!(
            concat!(
                "      - component: DRAM\n",
                "        tensor: P0\n",
                "        config: Dense\n",
                "        rank: {rank}\n",
                "        type: elem\n",
                "        style: {style}\n",
            ),
            rank = rank,
            style = style
        )
    };
    s.push_str("binding:\n");
    s.push_str(concat!(
        "  SO:\n",
        "    config: Default\n",
        "    storage:\n",
        "      - component: DRAM\n",
        "        tensor: G\n",
        "        config: Graph\n",
        "        rank: S\n",
        "        type: elem\n",
        "        style: lazy\n",
    ));
    s.push_str(&edram("A0", "S"));
    s.push_str(concat!(
        "    intersect:\n",
        "      - component: FrontierIx\n",
        "  R:\n",
        "    config: Default\n",
        "    storage:\n",
    ));
    s.push_str(&edram("R", "V"));
    s.push_str(&edram("A0", "S"));
    s.push_str(concat!(
        "    compute:\n",
        "      - component: ProcALU\n",
        "        op: mul\n",
        "    intersect:\n",
        "      - component: FrontierIx\n",
    ));
    match design {
        GraphDesign::Graphicionado => {
            s.push_str("  P1:\n    config: Default\n    storage:\n");
            s.push_str(&edram("R", "V"));
            s.push_str(&p0_dram("V", "lazy"));
            s.push_str(concat!(
                "    compute:\n",
                "      - component: ApplyALU\n",
                "        op: add\n",
            ));
            s.push_str("  M:\n    config: Default\n    storage:\n");
            s.push_str(&edram("P1", "V"));
            s.push_str(&edram("P0", "V"));
            s.push_str(&edram("M", "V"));
            s.push_str(concat!(
                "    compute:\n",
                "      - component: ApplyALU\n",
                "        op: add\n",
            ));
            s.push_str("  A1:\n    config: Default\n    storage:\n");
            s.push_str(&edram("M", "V"));
            s.push_str(&edram("P1", "V"));
            s.push_str(&edram("A1", "V"));
        }
        GraphDesign::GraphDynS => {
            s.push_str("  MP:\n    config: Default\n    storage:\n");
            s.push_str(&edram("R", "V1"));
            s.push_str(&edram("MP", "V1"));
            s.push_str(&p0_dram("V1", "eager"));
            s.push_str(concat!(
                "    compute:\n",
                "      - component: ApplyALU\n",
                "        op: add\n",
                "    intersect:\n",
                "      - component: GatherIx\n",
            ));
            for (einsum, reads) in [
                ("NP", ["R", "MP"]),
                ("M", ["NP", "MP"]),
                ("A1", ["M", "NP"]),
            ] {
                s.push_str(&format!("  {einsum}:\n    config: Default\n    storage:\n"));
                for t in reads {
                    s.push_str(&edram(t, "V"));
                }
                if einsum != "A1" {
                    s.push_str(&edram(einsum, "V"));
                } else {
                    s.push_str(&edram("A1", "V"));
                }
            }
            // PW (the masked write-back) goes to DRAM: no own binding.
            s.push_str("  PW:\n    config: Default\n    storage:\n");
            s.push_str(&edram("M", "V"));
            s.push_str(&edram("NP", "V"));
        }
        GraphDesign::Proposal => {
            s.push_str("  MP:\n    config: Default\n    storage:\n");
            s.push_str(&edram("R", "V"));
            s.push_str(&edram("MP", "V"));
            s.push_str(&p0_dram("V", "lazy"));
            s.push_str(concat!(
                "    compute:\n",
                "      - component: ApplyALU\n",
                "        op: add\n",
                "    intersect:\n",
                "      - component: GatherIx\n",
            ));
            for (einsum, reads) in [
                ("NP", ["R", "MP"]),
                ("M", ["NP", "MP"]),
                ("A1", ["M", "NP"]),
            ] {
                s.push_str(&format!("  {einsum}:\n    config: Default\n    storage:\n"));
                for t in reads {
                    s.push_str(&edram(t, "V"));
                }
                if einsum != "A1" {
                    s.push_str(&edram(einsum, "V"));
                } else {
                    s.push_str(&edram("A1", "V"));
                }
            }
            s.push_str("  PW:\n    config: Default\n    storage:\n");
            s.push_str(&edram("M", "V"));
            s.push_str(&edram("NP", "V"));
        }
    }
    s
}

/// Parses and validates one design's specification.
///
/// # Panics
///
/// Panics if the generated specification fails to validate (covered by
/// tests).
pub fn spec(design: GraphDesign, vertices: u64, weighted: bool) -> TeaalSpec {
    TeaalSpec::parse(&yaml(design, vertices, weighted))
        .expect("generated vertex-centric spec is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_designs_parse() {
        for d in [
            GraphDesign::Graphicionado,
            GraphDesign::GraphDynS,
            GraphDesign::Proposal,
        ] {
            let s = spec(d, 65536, true);
            assert!(s.cascade.equations().len() >= 5, "{d:?}");
            assert_eq!(s.architecture.clock_hz, 1e9);
        }
    }

    #[test]
    fn graphicionado_applies_to_all_vertices() {
        let s = spec(GraphDesign::Graphicionado, 1024, false);
        // P1 = R + P0: a union over the dense property vector.
        let eq = s.cascade.equation("P1").unwrap();
        assert_eq!(eq.input_tensors(), vec!["R", "P0"]);
    }

    #[test]
    fn graphdyns_partitions_the_property_vector() {
        let s = spec(GraphDesign::GraphDynS, 65536, false);
        let dirs = s.mapping.partitioning_of("MP");
        assert_eq!(dirs.len(), 1);
        match &dirs[0].ops[0] {
            teaal_core::spec::PartitionOp::UniformShape(c) => {
                assert_eq!(*c, 65536 / GRAPHDYNS_CHUNKS)
            }
            other => panic!("expected uniform_shape, got {other:?}"),
        }
        // And loads property chunks eagerly.
        let b = s.binding.for_einsum("MP");
        let p0 = b
            .storage
            .iter()
            .find(|st| st.tensor == "P0")
            .expect("P0 bound");
        assert_eq!(p0.style, teaal_core::spec::BindStyle::Eager);
        assert_eq!(p0.rank, "V1");
    }

    #[test]
    fn proposal_loads_lazily_without_partitioning() {
        let s = spec(GraphDesign::Proposal, 65536, false);
        assert!(s.mapping.partitioning_of("MP").is_empty());
        let b = s.binding.for_einsum("MP");
        let p0 = b
            .storage
            .iter()
            .find(|st| st.tensor == "P0")
            .expect("P0 bound");
        assert_eq!(p0.style, teaal_core::spec::BindStyle::Lazy);
    }

    #[test]
    fn format_change_drops_weights_for_bfs() {
        let gd_bfs = spec(GraphDesign::GraphDynS, 1024, false);
        let gd_sssp = spec(GraphDesign::GraphDynS, 1024, true);
        let bits_bfs = gd_bfs.format.tensors["G"]["Graph"].element_bits("V");
        let bits_sssp = gd_sssp.format.tensors["G"]["Graph"].element_bits("V");
        assert!(bits_bfs < bits_sssp);
        // Graphicionado's edge list is bigger than either.
        let gi = spec(GraphDesign::Graphicionado, 1024, false);
        let bits_gi = gi.format.tensors["G"]["Graph"].element_bits("V");
        assert!(bits_gi > bits_sssp);
    }
}
