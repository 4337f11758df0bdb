//! # qkbfly
//!
//! QKBfly: query-driven on-the-fly knowledge base construction — the
//! primary contribution of Nguyen et al., PVLDB 11(1), 2017, re-implemented
//! in Rust on the substrates of this workspace.
//!
//! Given input documents, QKBfly works in three stages (§2.2):
//!
//! 1. **Semantic graph** ([`graph`], [`build`]) — one graph per sentence
//!    over clause, noun-phrase, pronoun and entity nodes, linked across
//!    sentences by candidate co-reference (`sameAs`) edges;
//! 2. **Graph algorithm** ([`weights`], [`densify`], [`ilp`]) — joint
//!    named-entity disambiguation and co-reference resolution by greedy
//!    densest-subgraph approximation under the constraints (1)–(4) of §4,
//!    or exactly via 0-1 ILP (Appendix A);
//! 3. **Canonicalization** ([`canonicalize`]) — surviving mention clusters
//!    become linked or emerging entities, relation patterns are merged by
//!    paraphrase synsets, and clause structure yields higher-arity facts
//!    (§5).
//!
//! The [`pipeline`] module wires the stages into the system variants the
//! paper evaluates (joint / pipeline / noun-only / ILP) plus the DEFIE +
//! Babelfy baseline ([`defie`], [`babelfy`]); [`train`] fits the α₁..α₄
//! edge-weight hyper-parameters with L-BFGS as in §4.
//!
//! ## Quickstart
//!
//! ```no_run
//! use qkbfly::Qkbfly;
//! # fn repo() -> qkb_kb::EntityRepository { qkb_kb::EntityRepository::new() }
//! # fn patterns() -> qkb_kb::PatternRepository { qkb_kb::PatternRepository::standard() }
//! # fn stats() -> qkb_kb::BackgroundStats { qkb_kb::BackgroundStats::empty() }
//! let system = Qkbfly::new(repo(), patterns(), stats());
//! let result =
//!     system.build_kb(&["Brad Pitt is an actor. He supports the ONE Campaign.".to_string()]);
//! for fact in result.kb.iter_facts() {
//!     println!("{}", result.render(fact));
//! }
//! ```

pub mod babelfy;
pub mod build;
pub mod canonicalize;
pub mod decompose;
pub mod defie;
pub mod densify;
pub mod graph;
pub mod ilp;
pub mod pipeline;
pub mod train;
pub mod weights;

pub use densify::{DensifyOutcome, MentionResolution};
pub use graph::{EdgeKind, NodeId, NodeKind, SemanticGraph};
pub use pipeline::*;
pub use weights::WeightModel;
