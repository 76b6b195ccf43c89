//! Graph substrate for parallel equivalence class sorting.
//!
//! The constant-round ER algorithm of the paper (Theorem 4) tests the edges of
//! `H_d`, a union of `d` random Hamiltonian cycles, and then works with the
//! strongly connected components induced by same-class edges; the lower-bound
//! adversary of Section 3 maintains weighted equitable colorings of a
//! "known-different" graph. This crate provides those building blocks:
//!
//! * [`UnionFind`] — disjoint sets with union by size and path compression,
//!   the bookkeeping structure used to aggregate discovered equivalences.
//! * [`bitset`] — the packed substrates: [`PairBitset`], one bit per
//!   unordered pair in a flat upper-triangular word array, [`PairMatrix`],
//!   a symmetric relation with one contiguous word row per element, and
//!   [`BitRow`], a flat per-element bit set. The adversary knowledge graph, the
//!   union-find class views, and the word-parallel `same_batch` oracle path
//!   are all built on these.
//! * [`DiGraph`] — a compact adjacency-list directed graph.
//! * [`scc`] — Tarjan's and Kosaraju's strongly connected component
//!   algorithms (both, so they can cross-validate each other in tests).
//! * [`connected`] — connected components of undirected edge sets.
//! * [`HamiltonianUnion`] — the `H_d` construction together with its
//!   decomposition into exclusive-read comparison rounds.
//! * [`coloring`] — equitable and weighted equitable colorings and their
//!   validity checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod coloring;
pub mod connected;
pub mod digraph;
pub mod hamiltonian;
pub mod scc;
pub mod union_find;

pub use bitset::{coord_to_idx, BitRow, PairBitset, PairMatrix};
pub use coloring::{EquitableColoring, WeightedEquitableColoring};
pub use connected::{components_as_bitrows, connected_components};
pub use digraph::DiGraph;
pub use hamiltonian::{Fragments, HamiltonianUnion};
pub use scc::{component_labels, kosaraju_scc, scc_as_bitrows, tarjan_scc};
pub use union_find::UnionFind;
